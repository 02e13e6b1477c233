package stream

import (
	"fmt"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// retainer stores pushed tuples without cloning, as windows and join tables
// do, so tests can observe what a fan-out hands each subscriber.
type retainer struct {
	schema *data.Schema
	tuples []data.Tuple
}

func (r *retainer) Schema() *data.Schema      { return r.schema }
func (r *retainer) Push(t data.Tuple)         { r.tuples = append(r.tuples, t) }
func (r *retainer) PushBatch(ts []data.Tuple) { r.tuples = append(r.tuples, ts...) }

func TestFanoutSubscribeUnsubscribe(t *testing.T) {
	f := NewFanout(tempSchema())
	a := NewCollector(tempSchema())
	b := NewCollector(tempSchema())
	f.Subscribe(a)
	f.Subscribe(b)
	if f.Subscribers() != 2 {
		t.Fatalf("subscribers = %d", f.Subscribers())
	}
	f.Push(temp(1, "L1", 20))
	if len(a.Snapshot()) != 1 || len(b.Snapshot()) != 1 {
		t.Fatal("push did not reach both subscribers")
	}
	if !f.Unsubscribe(a) {
		t.Fatal("unsubscribe reported not found")
	}
	if f.Unsubscribe(a) {
		t.Fatal("double unsubscribe reported found")
	}
	f.Push(temp(2, "L2", 21))
	if len(a.Snapshot()) != 1 {
		t.Fatal("detached subscriber still receiving")
	}
	if len(b.Snapshot()) != 2 {
		t.Fatal("surviving subscriber perturbed by unsubscribe")
	}
	if !f.Unsubscribe(b) || f.Subscribers() != 0 {
		t.Fatal("teardown incomplete")
	}
	f.Push(temp(3, "L3", 22)) // no subscribers: must not panic
}

func TestFanoutFreshAndEmpty(t *testing.T) {
	schema := tempSchema()
	f := NewFanout(schema)
	if f.Schema() != schema {
		t.Fatal("schema accessor")
	}
	if f.Unsubscribe(NewCollector(tempSchema())) {
		t.Fatal("unsubscribe on never-subscribed fanout reported found")
	}
	col := NewCollector(tempSchema())
	f.Subscribe(col)
	f.PushBatch(nil) // empty batch: no-op
	if col.Len() != 0 {
		t.Fatal("empty batch delivered tuples")
	}

	sched := vtime.NewScheduler()
	sched.RunUntil(5 * vtime.Second) // clock at 5s so zero-TS stamping is observable below
	e := NewEngine("n", sched)
	if e.Advancers() != 0 {
		t.Fatal("fresh engine has advancers")
	}
	if e.UntrackWindow(NewTimeWindow(col, time.Second, 0)) {
		t.Fatal("untrack on fresh engine reported found")
	}
	in := e.MustRegister("s", schema)
	if in.Schema() != schema || in.Name() != "s" {
		t.Fatal("input accessors")
	}
	if in.Unsubscribe(col) {
		t.Fatal("unsubscribe on never-subscribed input reported found")
	}
	in.PushBatch(nil) // empty batch: no-op

	// Multi-subscriber batch push: every subscriber sees the zero timestamp
	// stamped and is handed the same Vals; the caller's slice is not the
	// input's to write to and keeps its zero.
	a, b := &retainer{schema: tempSchema()}, &retainer{schema: tempSchema()}
	in.Subscribe(a)
	in.Subscribe(b)
	pushed := []data.Tuple{temp(1, "L1", 20), {Vals: []data.Value{data.Str("L2"), data.Float(21)}}}
	in.PushBatch(pushed)
	if len(a.tuples) != 2 || len(b.tuples) != 2 {
		t.Fatal("batch lost")
	}
	if a.tuples[1].TS != 5*vtime.Second || b.tuples[1].TS != 5*vtime.Second {
		t.Fatal("zero timestamp not stamped")
	}
	if pushed[1].TS != 0 {
		t.Fatal("input stamped the caller's slice")
	}
	if &a.tuples[0].Vals[0] != &pushed[0].Vals[0] || &b.tuples[1].Vals[0] != &pushed[1].Vals[0] {
		t.Fatal("subscribers were not handed the pushed Vals")
	}
	in.PushBatch([]data.Tuple{temp(2, "L1", 22)})
	if len(a.tuples) != 3 {
		t.Fatal("batch push lost")
	}
}

func TestMustDisplayPanicsOnConflict(t *testing.T) {
	e := NewEngine("n", vtime.NewScheduler())
	e.MustDisplay("lobby", tempSchema())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.MustDisplay("lobby", data.NewSchema("x", data.Col("r", data.TString)))
}

// TestFanoutOwnershipConvention holds every operator kind to the read-only
// rule a Fanout relies on: batches of inserts, deletes and ticks go through
// one Fanout into one of each, which all retain, negate, re-stamp, hash and
// forward the same tuples — the sharder's workers from other goroutines, so
// under -race a write anywhere is a report — and what was pushed must stay
// equal to a deep copy taken before.
func TestFanoutOwnershipConvention(t *testing.T) {
	in := batchSchema("r")
	aggOut := must[*data.Schema](t)(AggOutSchema(in, []string{"g"}, batchSpecs))
	f := NewFanout(in)
	var advs []Advancer
	window := func(w *Window) {
		f.Subscribe(w)
		advs = append(advs, w)
	}
	window(NewTimeWindow(&retainer{schema: in}, 2*time.Second, 0))
	window(NewTimeWindow(&retainer{schema: in}, 2*time.Second, time.Second))
	window(NewRowsWindow(&retainer{schema: in}, 3))
	window(NewNowWindow(&retainer{schema: in}))

	joined := in.Concat(batchSchema("s"))
	j := must[*Join](t)(NewJoin(&retainer{schema: joined}, in, batchSchema("s"), []string{"g"}, []string{"g"},
		expr.Bin{Op: expr.OpLe, L: expr.C("r.v"), R: expr.C("s.v")}))
	f.Subscribe(j.Left())
	f.Subscribe(j.Right())

	aggMat := NewMaterialize(aggOut)
	f.Subscribe(must[*Aggregate](t)(NewAggregate(aggMat, in, []string{"g"}, batchSpecs, nil)))
	fm := must[*FinalMerge](t)(NewFinalMerge(NewMaterialize(aggOut), in, []string{"g"}, batchSpecs, nil))
	f.Subscribe(must[*PartialAggregate](t)(NewPartialAggregate(fm, in, []string{"g"}, batchSpecs)))

	f.Subscribe(NewDistinct(&retainer{schema: in}))
	passed := &retainer{schema: in}
	f.Subscribe(NewFilter(passed, expr.MustBind(expr.Bin{Op: expr.OpGt, L: expr.C("v"), R: expr.L(1.0)}, in)))
	items := []ProjectItem{{Expr: expr.C("g")}, {Expr: expr.Bin{Op: expr.OpMul, L: expr.C("v"), R: expr.L(2.0)}, Alias: "d"}}
	f.Subscribe(must[*Project](t)(NewProject(&retainer{schema: must[*data.Schema](t)(OutSchema(in, items))}, in, items)))
	mat := NewMaterialize(in)
	f.Subscribe(mat)
	f.Subscribe(NewCollector(in))

	shardMat := NewMaterialize(aggOut)
	merge := NewMerge(shardMat)
	set := NewShardSet(2)
	defer set.Close()
	sh := must[*Sharder](t)(NewSharder(set, "in", in, []int{0}))
	deployLocal(t, set, merge, func(int) (map[string]Operator, []Advancer) {
		w := NewTimeWindow(must[*Aggregate](t)(NewAggregate(merge, in, []string{"g"}, batchSpecs, nil)), 2*time.Second, 0)
		return map[string]Operator{"in": w}, []Advancer{w}
	})
	f.Subscribe(sh)
	advs = append(advs, set)

	row := func(sec int64, g data.Value, v float64) data.Tuple {
		return data.NewTuple(vtime.Time(sec)*vtime.Second, g, data.Float(v))
	}
	a, b := data.Str("a"), data.Str("b")
	batches := [][]data.Tuple{
		{row(1, a, 1), row(1, b, 2), row(1, data.Null, 3), row(1, a, 4), row(1, a, 1).Negate()},
		{row(2, b, 5), row(2, a, 4).Negate(), row(2, a, 6), row(2, b, 2), row(2, b, 5).Negate()},
		{row(5, a, 7), row(5, a, 6).Negate(), row(5, data.Null, 8)}, // event time expires batch one
	}
	var want [][]data.Tuple
	check := func(when string) {
		t.Helper()
		for i, pushed := range batches[:len(want)] {
			for k, tu := range pushed {
				if w := want[i][k]; tu.TS != w.TS || tu.Op != w.Op || !bitEqual(tu, w) {
					t.Fatalf("%s: batch %d tuple %d is %v, was pushed as %v", when, i, k, tu, w)
				}
			}
		}
	}
	for i, pushed := range batches {
		want = append(want, cloneAll(pushed))
		if i == 1 {
			for _, tu := range pushed { // the per-tuple path takes the same rule
				f.Push(tu)
			}
		} else {
			f.PushBatch(pushed)
		}
		check(fmt.Sprintf("after push %d", i))
		for _, adv := range advs {
			adv.Advance(vtime.Time(i+2) * vtime.Second)
		}
		set.Flush()
		check(fmt.Sprintf("after tick %d", i))
	}
	for _, adv := range advs {
		adv.Advance(20 * vtime.Second) // every window drains: retractions of retained tuples
	}
	set.Flush()
	check("after the windows drained")

	// The operators did work on what they were handed.
	if &passed.tuples[0].Vals[0] != &batches[0][1].Vals[0] {
		t.Fatal("filter's consumer was not handed the pushed Vals")
	}
	if got := mat.Len(); got != 4 {
		t.Fatalf("materialized %d rows of the input, want 4", got)
	}
	if aggMat.Len() != 3 || shardMat.Len() != 0 {
		t.Fatalf("aggregate holds %d groups (want 3), drained sharded aggregate %d (want 0)", aggMat.Len(), shardMat.Len())
	}
}

// TestFanoutPushBatchAllocs pins what sharing buys: a batch nobody keeps
// costs a fan-out nothing, however many subscribers look at it.
func TestFanoutPushBatchAllocs(t *testing.T) {
	in := batchSchema("r")
	f := NewFanout(in)
	sink := &retainer{schema: in}
	for i := 0; i < 24; i++ {
		f.Subscribe(NewFilter(sink, expr.MustBind(expr.Bin{Op: expr.OpAnd,
			L: expr.Bin{Op: expr.OpGt, L: expr.C("v"), R: expr.L(float64(100 + i))},
			R: expr.Bin{Op: expr.OpEq, L: expr.C("g"), R: expr.L("a")}}, in)))
	}
	batch := make([]data.Tuple, 64)
	for i := range batch {
		batch[i] = data.NewTuple(vtime.Second, data.Str("a"), data.Float(float64(i)))
	}
	if n := testing.AllocsPerRun(100, func() { f.PushBatch(batch) }); n != 0 {
		t.Fatalf("Fanout.PushBatch into 24 rejecting filters: %v allocs per batch, want 0", n)
	}
	if len(sink.tuples) != 0 {
		t.Fatal("a filter passed a tuple")
	}
}

// TestNestedInputLeavesSharedBatchAlone: a subscriber that forwards the
// batch it was handed into another engine input (the recursive-view feed
// does) must not get the other subscribers' tuples stamped under them.
func TestNestedInputLeavesSharedBatchAlone(t *testing.T) {
	sched := vtime.NewScheduler()
	sched.RunUntil(5 * vtime.Second)
	e := NewEngine("n", sched)
	nested := e.MustRegister("nested", tempSchema())
	inner := &retainer{schema: tempSchema()}
	nested.Subscribe(inner)

	outer := NewFanout(tempSchema())
	before, after := &retainer{schema: tempSchema()}, &retainer{schema: tempSchema()}
	outer.Subscribe(before)
	outer.Subscribe(NewCallback(tempSchema(), nested.PushBatch))
	outer.Subscribe(after)

	pushed := []data.Tuple{temp(1, "L1", 20), {Vals: []data.Value{data.Str("L2"), data.Float(21)}}}
	outer.PushBatch(pushed)
	if inner.tuples[0].TS != vtime.Second || inner.tuples[1].TS != 5*vtime.Second {
		t.Fatalf("nested input saw timestamps %v, %v", inner.tuples[0].TS, inner.tuples[1].TS)
	}
	for _, r := range []*retainer{before, after} {
		if r.tuples[1].TS != 0 {
			t.Fatal("nested input stamped the batch its siblings share")
		}
	}
	if pushed[1].TS != 0 {
		t.Fatal("nested input stamped the pusher's slice")
	}
}

func TestInputUnsubscribe(t *testing.T) {
	e := NewEngine("n", vtime.NewScheduler())
	in, err := e.Register("temps", tempSchema())
	if err != nil {
		t.Fatal(err)
	}
	a := NewCollector(tempSchema())
	b := NewCollector(tempSchema())
	in.Subscribe(a)
	in.Subscribe(b)
	if in.Subscribers() != 2 {
		t.Fatalf("subscribers = %d", in.Subscribers())
	}
	if !in.Unsubscribe(a) {
		t.Fatal("unsubscribe reported not found")
	}
	if in.Unsubscribe(a) {
		t.Fatal("double unsubscribe reported found")
	}
	in.Push(temp(1, "L1", 20))
	if len(a.Snapshot()) != 0 {
		t.Fatal("detached subscriber still receiving")
	}
	if len(b.Snapshot()) != 1 {
		t.Fatal("surviving subscriber perturbed by unsubscribe")
	}
}

func TestEngineUntrackWindow(t *testing.T) {
	e := NewEngine("n", vtime.NewScheduler())
	col := NewCollector(tempSchema())
	w := NewTimeWindow(col, 2*time.Second, 0)
	e.TrackWindow(w)
	if e.Advancers() != 1 {
		t.Fatalf("advancers = %d", e.Advancers())
	}
	w.Push(temp(1, "a", 1))
	e.Advance(30 * vtime.Second)
	if got := col.Snapshot(); len(got) != 2 || got[1].Op != data.Delete {
		t.Fatalf("tracked window never expired: %v", got)
	}
	if !e.UntrackWindow(w) {
		t.Fatal("untrack reported not found")
	}
	if e.UntrackWindow(w) {
		t.Fatal("double untrack reported found")
	}
	if e.Advancers() != 0 {
		t.Fatalf("advancers = %d after untrack", e.Advancers())
	}
	w.Push(temp(31, "b", 2))
	e.Advance(60 * vtime.Second)
	if got := col.Snapshot(); len(got) != 3 {
		t.Fatalf("untracked window still ticked: %v", got)
	}
}

func TestWindowContents(t *testing.T) {
	col := NewCollector(tempSchema())
	w := NewTimeWindow(col, 5*time.Second, 0)
	w.Push(temp(1, "a", 1))
	w.Push(temp(2, "b", 2))
	c := temp(10, "c", 3)
	w.Push(c) // expires a and b
	got := w.Contents()
	if len(got) != 1 || got[0].Vals[0].AsString() != "c" {
		t.Fatalf("contents = %v", got)
	}
	// Contents hands out the live rows — the very Vals that were pushed —
	// and a caller appending to the slice cannot grow into the window's ring.
	if &got[0].Vals[0] != &c.Vals[0] {
		t.Fatal("Contents copied the row")
	}
	_ = append(got, temp(11, "x", 4))
	w.Push(temp(11, "d", 5))
	if got := w.Contents(); len(got) != 2 || got[1].Vals[0].AsString() != "d" {
		t.Fatalf("contents after an append to the earlier slice = %v", got)
	}
}
