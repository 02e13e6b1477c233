package stream

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

func areaSchema() *data.Schema {
	s := data.NewSchema("sa",
		data.Col("room", data.TString),
		data.Col("status", data.TString),
	)
	s.IsStream = true
	return s
}

func seatSchema() *data.Schema {
	s := data.NewSchema("ss",
		data.Col("room", data.TString),
		data.Col("desk", data.TInt),
		data.Col("status", data.TString),
	)
	s.IsStream = true
	return s
}

func area(ts int64, room, status string) data.Tuple {
	return data.NewTuple(vtime.Time(ts), data.Str(room), data.Str(status))
}

func seat(ts int64, room string, desk int64, status string) data.Tuple {
	return data.NewTuple(vtime.Time(ts), data.Str(room), data.Int(desk), data.Str(status))
}

func newTestJoin(t *testing.T, residual expr.Expr) (*Join, *Collector) {
	t.Helper()
	out := areaSchema().Concat(seatSchema())
	col := NewCollector(out)
	j, err := NewJoin(col, areaSchema(), seatSchema(),
		[]string{"sa.room"}, []string{"ss.room"}, residual)
	if err != nil {
		t.Fatal(err)
	}
	return j, col
}

// joinRows counts the rows each side of j holds.
func joinRows(j *Join) (l, r int) {
	for _, rec := range j.recs {
		l += len(rec.rows[0])
		r += len(rec.rows[1])
	}
	return l, r
}

func TestJoinBasicMatch(t *testing.T) {
	j, col := newTestJoin(t, nil)
	j.Left().Push(area(1, "L1", "open"))
	j.Right().Push(seat(2, "L1", 1, "free"))
	j.Right().Push(seat(3, "L2", 1, "free")) // no partner
	got := col.Snapshot()
	if len(got) != 1 {
		t.Fatalf("joined = %v", got)
	}
	if got[0].Vals[0].AsString() != "L1" || got[0].Vals[2].AsString() != "L1" {
		t.Fatalf("tuple = %v", got[0])
	}
	// max timestamp propagates
	if got[0].TS != 2 {
		t.Fatalf("ts = %v", got[0].TS)
	}
	if l, r := joinRows(j); l != 1 || r != 2 {
		t.Fatalf("tables = %d, %d", l, r)
	}
}

func TestJoinRetraction(t *testing.T) {
	j, col := newTestJoin(t, nil)
	a := area(1, "L1", "open")
	s1 := seat(1, "L1", 1, "free")
	s2 := seat(1, "L1", 2, "free")
	j.Left().Push(a)
	j.Right().Push(s1)
	j.Right().Push(s2)
	if col.Len() != 2 {
		t.Fatalf("inserts = %v", col.Snapshot())
	}
	j.Left().Push(a.Negate()) // retracting the area row retracts both joins
	got := col.Snapshot()
	if len(got) != 4 {
		t.Fatalf("events = %v", got)
	}
	if got[2].Op != data.Delete || got[3].Op != data.Delete {
		t.Fatalf("retractions = %v", got[2:])
	}
	if l, _ := joinRows(j); l != 0 {
		t.Fatal("left table should be empty")
	}
}

func TestJoinResidualPredicate(t *testing.T) {
	j, col := newTestJoin(t, expr.Bin{Op: expr.OpGt, L: expr.C("ss.desk"), R: expr.L(1)})
	j.Left().Push(area(1, "L1", "open"))
	j.Right().Push(seat(1, "L1", 1, "free")) // fails residual
	j.Right().Push(seat(1, "L1", 2, "free")) // passes
	got := col.Snapshot()
	if len(got) != 1 || got[0].Vals[3].AsInt() != 2 {
		t.Fatalf("residual join = %v", got)
	}
}

func TestJoinErrors(t *testing.T) {
	out := areaSchema().Concat(seatSchema())
	col := NewCollector(out)
	if _, err := NewJoin(col, areaSchema(), seatSchema(),
		[]string{"sa.room"}, []string{}, nil); err == nil {
		t.Fatal("key arity mismatch accepted")
	}
	if _, err := NewJoin(col, areaSchema(), seatSchema(),
		[]string{"bogus"}, []string{"ss.room"}, nil); err == nil {
		t.Fatal("bad left key accepted")
	}
	if _, err := NewJoin(col, areaSchema(), seatSchema(),
		[]string{"sa.room"}, []string{"bogus"}, nil); err == nil {
		t.Fatal("bad right key accepted")
	}
	if _, err := NewJoin(col, areaSchema(), seatSchema(),
		[]string{"sa.room"}, []string{"ss.room"}, expr.C("nope")); err == nil {
		t.Fatal("unbound residual accepted")
	}
	small := NewCollector(areaSchema())
	if _, err := NewJoin(small, areaSchema(), seatSchema(),
		[]string{"sa.room"}, []string{"ss.room"}, nil); err == nil {
		t.Fatal("downstream arity mismatch accepted")
	}
}

// Property: the symmetric hash join over windows equals a brute-force
// nested-loop join of the current window contents, across random
// insert/expiry interleavings.
func TestJoinEquivalentToNestedLoop(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	rooms := []string{"L1", "L2", "L3"}

	out := areaSchema().Concat(seatSchema())
	mat := NewMaterialize(out)
	j, err := NewJoin(mat, areaSchema(), seatSchema(),
		[]string{"sa.room"}, []string{"ss.room"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wl := NewTimeWindow(j.Left(), 10*time.Second, 0)
	wr := NewTimeWindow(j.Right(), 15*time.Second, 0)

	var lWin, rWin []data.Tuple // reference window contents
	now := vtime.Time(0)
	for step := 0; step < 300; step++ {
		now += vtime.Time(r.Int63n(int64(3 * vtime.Second)))
		if r.Intn(2) == 0 {
			tu := data.NewTuple(now, data.Str(rooms[r.Intn(3)]), data.Str("open"))
			wl.Push(tu)
			lWin = append(lWin, tu)
		} else {
			tu := data.NewTuple(now, data.Str(rooms[r.Intn(3)]), data.Int(int64(r.Intn(4))), data.Str("free"))
			wr.Push(tu)
			rWin = append(rWin, tu)
		}
		// both windows see the clock advance (Engine.Advance in production)
		wl.Advance(now)
		wr.Advance(now)
		// reference expiry
		lWin = expireRef(lWin, now, 10*time.Second)
		rWin = expireRef(rWin, now, 15*time.Second)

		if step%37 != 0 {
			continue
		}
		want := 0
		for _, l := range lWin {
			for _, rr := range rWin {
				if l.Vals[0].Equal(rr.Vals[0]) {
					want++
				}
			}
		}
		snap := mat.MustSnapshot(nil, -1)
		if len(snap) != want {
			t.Fatalf("step %d: join has %d rows, nested loop %d", step, len(snap), want)
		}
	}
}

func expireRef(win []data.Tuple, now vtime.Time, rng time.Duration) []data.Tuple {
	out := win[:0]
	for _, tu := range win {
		if tu.TS > now.Add(-rng) {
			out = append(out, tu)
		}
	}
	return out
}

// A join that writes only some columns emits, batch for batch, the rows of
// the whole-row join narrowed to those columns — in front of a retaining
// consumer (fresh Vals) and of one that keeps nothing (the pooled arena) —
// with its residual evaluated on the written row. Every deletion retracts a
// live row: a join retracts a row its side never held against the other
// side anyway, and those retractions, narrowed, may match a different row.
func TestJoinColsMatchesNarrowedJoin(t *testing.T) {
	residual := expr.Bin{Op: expr.OpNe, L: expr.C("sa.status"), R: expr.C("ss.status")}
	full := areaSchema().Concat(seatSchema())
	for _, keep := range [][]int{{1, 4}, {0, 1, 4}, {1, 2, 3, 4}, {1, 4}} {
		out := full.Project(keep)
		for _, mat := range []bool{false, true} {
			var sink, ref Operator = NewCollector(out), NewCollector(full)
			if mat {
				sink, ref = NewMaterialize(out), NewMaterialize(full)
			}
			narrow := must[*Join](t)(NewJoinCols(sink, areaSchema(), seatSchema(), []string{"sa.room"}, []string{"ss.room"}, residual, keep))
			whole := must[*Join](t)(NewJoin(ref, areaSchema(), seatSchema(), []string{"sa.room"}, []string{"ss.room"}, residual))
			if !narrow.OutSchema().Equal(out) {
				t.Fatalf("keep %v: join writes %s, want %s", keep, narrow.OutSchema(), out)
			}
			rng := rand.New(rand.NewSource(int64(len(keep))))
			var sent [2][]data.Tuple
			status := []string{"free", "busy"}
			for step := range 200 {
				side := rng.Intn(2)
				var batch []data.Tuple
				for range 1 + rng.Intn(3) {
					if live := sent[side]; len(live) > 0 && rng.Intn(4) == 0 {
						k := rng.Intn(len(live))
						batch = append(batch, live[k].Negate())
						sent[side] = slices.Delete(live, k, k+1)
						continue
					}
					room := "R" + string(rune('0'+rng.Intn(3)))
					tu := area(int64(step), room, status[rng.Intn(2)])
					if side == 1 {
						tu = seat(int64(step), room, int64(rng.Intn(4)), status[rng.Intn(2)])
					}
					sent[side] = append(sent[side], tu)
					batch = append(batch, tu)
				}
				ins := [2][2]Operator{{narrow.Left(), narrow.Right()}, {whole.Left(), whole.Right()}}
				ins[0][side].PushBatch(batch)
				ins[1][side].PushBatch(batch)
				if mat {
					// A result keeps one timestamp per distinct row, so only
					// the values and their multiplicities compare.
					got, want := sink.(*Materialize).MustSnapshot(nil, -1), ref.(*Materialize).MustSnapshot(nil, -1)
					for i := range want {
						want[i] = want[i].Project(keep)
						want[i].TS = 0
					}
					for i := range got {
						got[i].TS = 0
					}
					SortTuples(got)
					SortTuples(want)
					if !sameTuples(got, want) {
						t.Fatalf("keep %v step %d: result %v, want %v", keep, step, got, want)
					}
					continue
				}
				got, want := sink.(*Collector).Snapshot(), ref.(*Collector).Snapshot()
				for i := range want {
					want[i] = want[i].Project(keep)
				}
				if !sameTuples(got, want) {
					t.Fatalf("keep %v step %d: emitted %v, want %v", keep, step, got, want)
				}
			}
		}
	}
}

// NewJoinCols refuses column lists that are not ascending positions of the
// concatenated schema, and a residual over a column it does not write.
func TestJoinColsErrors(t *testing.T) {
	full := areaSchema().Concat(seatSchema())
	for _, keep := range [][]int{{4, 1}, {1, 1}, {-1, 2}, {0, 5}} {
		if _, err := NewJoinCols(NewCollector(full), areaSchema(), seatSchema(), []string{"sa.room"}, []string{"ss.room"}, nil, keep); err == nil {
			t.Errorf("keep %v accepted", keep)
		}
	}
	residual := expr.Bin{Op: expr.OpNe, L: expr.C("sa.status"), R: expr.C("ss.status")}
	if _, err := NewJoinCols(NewCollector(full.Project([]int{1})), areaSchema(), seatSchema(),
		[]string{"sa.room"}, []string{"ss.room"}, residual, []int{1}); err == nil {
		t.Error("a residual over a column the join does not write was accepted")
	}
	if _, err := NewJoinCols(NewCollector(full), areaSchema(), seatSchema(),
		[]string{"sa.room"}, []string{"ss.room"}, nil, []int{1}); err == nil {
		t.Error("a consumer wider than the written columns was accepted")
	}
}
