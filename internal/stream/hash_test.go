package stream

import (
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// forceHashCollisions makes every key hash to the same bucket for the
// duration of the test, so the collision-verification paths (EqualVals /
// EqualOn scans) carry the whole load.
func forceHashCollisions(t *testing.T) {
	t.Helper()
	old := testHashMask
	testHashMask = 0
	t.Cleanup(func() { testHashMask = old })
}

func TestJoinUnderForcedCollisions(t *testing.T) {
	forceHashCollisions(t)
	j, col := newTestJoin(t, nil)
	j.Left().Push(area(1, "L1", "open"))
	j.Left().Push(area(1, "L2", "closed"))
	j.Right().Push(seat(2, "L1", 1, "free"))
	j.Right().Push(seat(2, "L2", 1, "taken"))
	j.Right().Push(seat(2, "L3", 1, "free")) // no partner
	got := col.Snapshot()
	if len(got) != 2 {
		t.Fatalf("expected 2 joined rows despite collisions, got %v", got)
	}
	for _, g := range got {
		if g.Vals[0].AsString() != g.Vals[2].AsString() {
			t.Fatalf("collision bucket joined mismatched keys: %v", g)
		}
	}
	// Deletion must remove exactly the right tuple from the shared bucket.
	j.Left().Push(area(3, "L1", "open").Negate())
	j.Right().Push(seat(4, "L1", 2, "free"))
	if n := col.Len(); n != 3 { // 2 inserts + 1 retraction, no new match
		t.Fatalf("after delete, got %d outputs: %v", n, col.Snapshot())
	}
}

func TestAggregateUnderForcedCollisions(t *testing.T) {
	forceHashCollisions(t)
	in := seatSchema()
	out, err := AggOutSchema(in, []string{"ss.room"},
		[]AggSpec{{Kind: AggCount, Alias: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	mat := NewMaterialize(out)
	agg, err := NewAggregate(mat, in, []string{"ss.room"},
		[]AggSpec{{Kind: AggCount, Alias: "n"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	agg.Push(seat(1, "L1", 1, "free"))
	agg.Push(seat(2, "L1", 2, "free"))
	agg.Push(seat(3, "L2", 1, "free"))
	agg.Push(seat(4, "L3", 1, "free"))
	if agg.Groups() != 3 {
		t.Fatalf("groups = %d, want 3", agg.Groups())
	}
	rows := mat.MustSnapshot([]OrderSpec{{Col: "room"}}, -1)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].Vals[1].AsInt() != 2 || rows[1].Vals[1].AsInt() != 1 {
		t.Fatalf("counts wrong under collisions: %v", rows)
	}
	// Retract both L1 rows: the group must disappear from its bucket.
	agg.Push(seat(5, "L1", 1, "free").Negate())
	agg.Push(seat(6, "L1", 2, "free").Negate())
	if agg.Groups() != 2 {
		t.Fatalf("groups after retraction = %d, want 2", agg.Groups())
	}
}

func TestDistinctUnderForcedCollisions(t *testing.T) {
	forceHashCollisions(t)
	col := NewCollector(areaSchema())
	d := NewDistinct(col)
	d.Push(area(1, "L1", "open"))
	d.Push(area(2, "L1", "open")) // duplicate: suppressed
	d.Push(area(3, "L2", "open")) // distinct value, same bucket
	if col.Len() != 2 {
		t.Fatalf("distinct forwarded %d, want 2: %v", col.Len(), col.Snapshot())
	}
	d.Push(area(4, "L1", "open").Negate()) // 2 -> 1: suppressed
	d.Push(area(5, "L1", "open").Negate()) // 1 -> 0: forwarded
	if col.Len() != 3 {
		t.Fatalf("distinct delete handling broke: %v", col.Snapshot())
	}
}

func TestMaterializeUnderForcedCollisions(t *testing.T) {
	forceHashCollisions(t)
	m := NewMaterialize(areaSchema())
	m.Push(area(1, "L1", "open"))
	m.Push(area(2, "L2", "open"))
	m.Push(area(3, "L1", "open")) // multiplicity 2
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2 distinct rows", m.Len())
	}
	rows := m.MustSnapshot([]OrderSpec{{Col: "room"}}, -1)
	if len(rows) != 3 {
		t.Fatalf("snapshot = %v", rows)
	}
	m.Push(area(4, "L1", "open").Negate())
	m.Push(area(5, "L1", "open").Negate())
	if m.Len() != 1 {
		t.Fatalf("Len after deletes = %d, want 1", m.Len())
	}
	// The freed row must not leak into a later, different insert.
	m.Push(area(6, "L3", "shut"))
	rows = m.MustSnapshot([]OrderSpec{{Col: "room"}}, -1)
	if rows[1].Vals[0].AsString() != "L3" || rows[1].Vals[1].AsString() != "shut" {
		t.Fatalf("freelist reuse corrupted rows: %v", rows)
	}
}

// Pushing tuple-by-tuple and pushing in batches must produce identical
// materialized results.
func TestPushBatchEquivalence(t *testing.T) {
	mkInput := func(n int) []data.Tuple {
		ts := make([]data.Tuple, 0, n)
		for i := 0; i < n; i++ {
			ts = append(ts, data.Tuple{
				Vals: []data.Value{data.Int(int64(i % 5)), data.Float(float64(i))},
				TS:   vtime.Time(int64(i+1) * int64(50*time.Millisecond)),
			})
		}
		return ts
	}

	p1 := buildJoinAgg(t, 10*time.Second, 0, false)
	for i, tu := range mkInput(200) {
		if i%2 == 0 {
			p1.left.Push(tu)
		} else {
			p1.right.Push(tu)
		}
	}

	p2 := buildJoinAgg(t, 10*time.Second, 0, false)
	var lb, rb []data.Tuple
	for i, tu := range mkInput(200) {
		if i%2 == 0 {
			lb = append(lb, tu)
		} else {
			rb = append(rb, tu)
		}
		// Flush interleaved chunks so both sides advance together.
		if len(lb) == 10 {
			p2.left.PushBatch(lb)
			p2.right.PushBatch(rb)
			lb, rb = lb[:0], rb[:0]
		}
	}
	p2.left.PushBatch(lb)
	p2.right.PushBatch(rb)

	a := p1.mat.MustSnapshot(nil, -1)
	b := p2.mat.MustSnapshot(nil, -1)
	sortByKey(a)
	sortByKey(b)
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].EqualVals(b[i]) {
			t.Fatalf("row %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if p1.mat.Len() == 0 {
		t.Fatal("pipeline produced no rows; test is vacuous")
	}
}

func TestWindowPushBatchExpiry(t *testing.T) {
	col := NewCollector(areaSchema())
	w := NewRowsWindow(col, 2)
	batch := []data.Tuple{
		area(1, "L1", "a"), area(2, "L2", "b"), area(3, "L3", "c"),
	}
	w.PushBatch(batch)
	if w.Len() != 2 {
		t.Fatalf("window len = %d, want 2", w.Len())
	}
	// 3 inserts + 1 expiry retraction.
	if col.Len() != 4 {
		t.Fatalf("downstream saw %d deltas, want 4: %v", col.Len(), col.Snapshot())
	}
}

func TestEnginePushBatch(t *testing.T) {
	e := NewEngine("n", vtime.NewScheduler())
	in := e.MustRegister("s", areaSchema())
	col := NewCollector(areaSchema())
	in.Subscribe(col)
	in.PushBatch([]data.Tuple{area(1, "L1", "a"), area(2, "L2", "b")})
	if col.Len() != 2 {
		t.Fatalf("batch delivered %d", col.Len())
	}
}
