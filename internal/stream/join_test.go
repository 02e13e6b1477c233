package stream

import (
	"math/rand"
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
