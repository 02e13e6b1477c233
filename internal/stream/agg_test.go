package stream

import (
	"math/rand"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// Groups reports the live group count.
func (a *Aggregate) Groups() int { return a.table.len() }

// Groups reports the live group count of this shard.
func (a *PartialAggregate) Groups() int { return a.table.len() }

// Groups reports the live merged group count.
func (f *FinalMerge) Groups() int { return f.table.len() }

func newAgg(t *testing.T, groupBy []string, specs []AggSpec, having expr.Expr) (*Aggregate, *Materialize) {
	t.Helper()
	out, err := AggOutSchema(tempSchema(), groupBy, specs)
	if err != nil {
		t.Fatal(err)
	}
	mat := NewMaterialize(out)
	a, err := NewAggregate(mat, tempSchema(), groupBy, specs, having)
	if err != nil {
		t.Fatal(err)
	}
	return a, mat
}

func TestAggregateGroupedAvg(t *testing.T) {
	a, mat := newAgg(t, []string{"room"},
		[]AggSpec{{Kind: AggAvg, Arg: expr.C("temp"), Alias: "avgtemp"}}, nil)
	a.Push(temp(1, "L1", 20))
	a.Push(temp(2, "L1", 30))
	a.Push(temp(3, "L2", 10))
	snap := mat.MustSnapshot([]OrderSpec{{Col: "room"}}, -1)
	if len(snap) != 2 {
		t.Fatalf("groups = %v", snap)
	}
	if snap[0].Vals[1].AsFloat() != 25 || snap[1].Vals[1].AsFloat() != 10 {
		t.Fatalf("avgs = %v", snap)
	}
	if a.Groups() != 2 {
		t.Fatalf("group count = %d", a.Groups())
	}
}

func TestAggregateRetractionUpdates(t *testing.T) {
	a, mat := newAgg(t, []string{"room"},
		[]AggSpec{{Kind: AggSum, Arg: expr.C("temp"), Alias: "s"}}, nil)
	x := temp(1, "L1", 20)
	a.Push(x)
	a.Push(temp(2, "L1", 5))
	if got := mat.MustSnapshot(nil, -1); got[0].Vals[1].AsFloat() != 25 {
		t.Fatalf("sum = %v", got)
	}
	a.Push(x.Negate()) // delete the 20
	got := mat.MustSnapshot(nil, -1)
	if len(got) != 1 || got[0].Vals[1].AsFloat() != 5 {
		t.Fatalf("after retraction = %v", got)
	}
	// empty the group entirely: result disappears
	a.Push(temp(3, "L1", 5).Negate())
	if mat.Len() != 0 {
		t.Fatalf("empty group lingers: %v", mat.MustSnapshot(nil, -1))
	}
	if a.Groups() != 0 {
		t.Fatal("group state leaked")
	}
}

func TestAggregateMinMaxWithDeletes(t *testing.T) {
	a, mat := newAgg(t, nil, []AggSpec{
		{Kind: AggMin, Arg: expr.C("temp"), Alias: "lo"},
		{Kind: AggMax, Arg: expr.C("temp"), Alias: "hi"},
	}, nil)
	v1, v2, v3 := temp(1, "x", 10), temp(2, "x", 30), temp(3, "x", 20)
	a.Push(v1)
	a.Push(v2)
	a.Push(v3)
	got := mat.MustSnapshot(nil, -1)
	if got[0].Vals[0].AsFloat() != 10 || got[0].Vals[1].AsFloat() != 30 {
		t.Fatalf("min/max = %v", got)
	}
	a.Push(v2.Negate()) // delete current max
	got = mat.MustSnapshot(nil, -1)
	if got[0].Vals[1].AsFloat() != 20 {
		t.Fatalf("max after delete = %v", got)
	}
	a.Push(v1.Negate()) // delete current min
	got = mat.MustSnapshot(nil, -1)
	if got[0].Vals[0].AsFloat() != 20 {
		t.Fatalf("min after delete = %v", got)
	}
}

func TestAggregateCountStar(t *testing.T) {
	a, mat := newAgg(t, []string{"room"}, []AggSpec{{Kind: AggCount, Alias: "n"}}, nil)
	a.Push(temp(1, "L1", 1))
	a.Push(temp(2, "L1", 2))
	got := mat.MustSnapshot(nil, -1)
	if got[0].Vals[1].AsInt() != 2 {
		t.Fatalf("count = %v", got)
	}
	// deletion of unknown group ignored
	a.Push(temp(3, "ZZ", 0).Negate())
	if a.Groups() != 1 {
		t.Fatal("phantom group created")
	}
}

func TestAggregateHaving(t *testing.T) {
	a, mat := newAgg(t, []string{"room"},
		[]AggSpec{{Kind: AggAvg, Arg: expr.C("temp"), Alias: "avgtemp"}},
		expr.Bin{Op: expr.OpGt, L: expr.C("avgtemp"), R: expr.L(25.0)})
	a.Push(temp(1, "L1", 20)) // avg 20: filtered
	if mat.Len() != 0 {
		t.Fatalf("having leaked: %v", mat.MustSnapshot(nil, -1))
	}
	a.Push(temp(2, "L1", 40)) // avg 30: passes
	if mat.Len() != 1 {
		t.Fatal("having blocked valid group")
	}
	a.Push(temp(3, "L1", 0)) // avg 20: drops out again
	if mat.Len() != 0 {
		t.Fatalf("having did not retract: %v", mat.MustSnapshot(nil, -1))
	}
}

func TestAggregateNullsSkipped(t *testing.T) {
	a, mat := newAgg(t, nil, []AggSpec{{Kind: AggAvg, Arg: expr.C("temp"), Alias: "m"}}, nil)
	a.Push(data.NewTuple(1, data.Str("L1"), data.Null))
	a.Push(temp(2, "L1", 10))
	got := mat.MustSnapshot(nil, -1)
	if got[0].Vals[0].AsFloat() != 10 {
		t.Fatalf("null not skipped: %v", got)
	}
}

func TestAggregateErrors(t *testing.T) {
	col := NewCollector(tempSchema())
	if _, err := NewAggregate(col, tempSchema(), []string{"bogus"}, nil, nil); err == nil {
		t.Fatal("bad group col accepted")
	}
	if _, err := NewAggregate(col, tempSchema(), nil,
		[]AggSpec{{Kind: AggSum, Arg: expr.C("room")}}, nil); err == nil {
		t.Fatal("sum over string accepted")
	}
	if _, err := NewAggregate(col, tempSchema(), nil,
		[]AggSpec{{Kind: AggSum}}, nil); err == nil {
		t.Fatal("sum without argument accepted")
	}
	if _, err := NewAggregate(col, tempSchema(), nil,
		[]AggSpec{{Kind: AggCount, Arg: expr.C("nope")}}, nil); err == nil {
		t.Fatal("unbound agg arg accepted")
	}
	two := NewCollector(tempSchema())
	if _, err := NewAggregate(two, tempSchema(), nil,
		[]AggSpec{{Kind: AggCount}}, nil); err == nil {
		t.Fatal("downstream arity mismatch accepted")
	}
	// having over missing output column
	okDown := NewCollector(&data.Schema{Cols: make([]data.Column, 1)})
	if _, err := NewAggregate(okDown, tempSchema(), nil,
		[]AggSpec{{Kind: AggCount, Alias: "n"}}, expr.C("zzz")); err == nil {
		t.Fatal("unbound having accepted")
	}
}

func TestParseAggKind(t *testing.T) {
	for name, want := range map[string]AggKind{"count": AggCount, "SUM": AggSum, "Avg": AggAvg, "min": AggMin, "max": AggMax} {
		got, ok := ParseAggKind(name)
		if !ok || got != want {
			t.Errorf("ParseAggKind(%q) = %v %t", name, got, ok)
		}
	}
	if _, ok := ParseAggKind("median"); ok {
		t.Error("median should be unknown")
	}
	if AggAvg.String() != "avg" {
		t.Error("String")
	}
}

// Property: windowed aggregation equals recomputing the aggregate over the
// brute-force window contents at every point.
func TestWindowedAggregateEquivalence(t *testing.T) {
	a, mat := newAgg(t, []string{"room"},
		[]AggSpec{{Kind: AggSum, Arg: expr.C("temp"), Alias: "s"},
			{Kind: AggCount, Alias: "n"}}, nil)
	w := NewTimeWindow(a, 20*time.Second, 0)

	r := rand.New(rand.NewSource(9))
	var ref []data.Tuple
	now := vtime.Time(0)
	rooms := []string{"L1", "L2"}
	for i := 0; i < 200; i++ {
		now += vtime.Time(r.Int63n(int64(5 * vtime.Second)))
		tu := data.NewTuple(now, data.Str(rooms[r.Intn(2)]), data.Float(float64(r.Intn(50))))
		w.Push(tu)
		ref = append(ref, tu)
		ref = expireRef(ref, now, 20*time.Second)

		want := map[string]struct {
			sum float64
			n   int64
		}{}
		for _, rt := range ref {
			e := want[rt.Vals[0].AsString()]
			e.sum += rt.Vals[1].AsFloat()
			e.n++
			want[rt.Vals[0].AsString()] = e
		}
		snap := mat.MustSnapshot([]OrderSpec{{Col: "room"}}, -1)
		if len(snap) != len(want) {
			t.Fatalf("step %d: %d groups, want %d", i, len(snap), len(want))
		}
		for _, row := range snap {
			e := want[row.Vals[0].AsString()]
			if row.Vals[1].AsFloat() != e.sum || row.Vals[2].AsInt() != e.n {
				t.Fatalf("step %d: group %v: got (%v, %v) want (%v, %v)",
					i, row.Vals[0], row.Vals[1], row.Vals[2], e.sum, e.n)
			}
		}
	}
}
