package stream

import (
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// retainer stores pushed tuples without cloning, so tests can observe the
// fan-out ownership convention (clones for all but the last subscriber).
type retainer struct {
	schema *data.Schema
	tuples []data.Tuple
}

func (r *retainer) Schema() *data.Schema { return r.schema }
func (r *retainer) Push(t data.Tuple)    { r.tuples = append(r.tuples, t) }

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
	sched.At(5*vtime.Second, func() {})
	sched.Run() // clock at 5s so zero-TS stamping is observable below
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

	// Multi-subscriber batch push: zero timestamps stamped in place, every
	// subscriber but the last on its own clone.
	a, b := &retainer{schema: tempSchema()}, &retainer{schema: tempSchema()}
	in.Subscribe(a)
	in.Subscribe(b)
	in.PushBatch([]data.Tuple{temp(1, "L1", 20), {Vals: []data.Value{data.Str("L2"), data.Float(21)}}})
	if len(a.tuples) != 2 || len(b.tuples) != 2 {
		t.Fatal("batch lost")
	}
	if a.tuples[1].TS == 0 || b.tuples[1].TS == 0 {
		t.Fatal("zero timestamp not stamped")
	}
	a.tuples[0].Vals[1] = data.Float(99)
	if b.tuples[0].Vals[1].AsFloat() != 20 {
		t.Fatal("batch clone shares storage across subscribers")
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

func TestFanoutOwnershipConvention(t *testing.T) {
	f := NewFanout(tempSchema())
	first := &retainer{schema: tempSchema()}
	last := &retainer{schema: tempSchema()}
	f.Subscribe(first)
	f.Subscribe(last)
	orig := temp(1, "L1", 20)
	f.Push(orig)
	// The last subscriber gets the original (zero-copy); earlier ones get
	// clones, so mutating one subscriber's copy must not corrupt another's.
	if &last.tuples[0].Vals[0] != &orig.Vals[0] {
		t.Fatal("last subscriber did not receive the original tuple")
	}
	first.tuples[0].Vals[1] = data.Float(99)
	if last.tuples[0].Vals[1].AsFloat() != 20 {
		t.Fatal("clone shares storage with the original")
	}

	f.PushBatch([]data.Tuple{temp(2, "L2", 21), temp(3, "L3", 22)})
	first.tuples[1].Vals[1] = data.Float(77)
	if last.tuples[1].Vals[1].AsFloat() != 21 {
		t.Fatal("batch clone shares storage with the original")
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
	w.Push(temp(10, "c", 3)) // expires a and b
	got := w.Contents()
	if len(got) != 1 || got[0].Vals[0].AsString() != "c" {
		t.Fatalf("contents = %v", got)
	}
	// Contents clones: mutating the snapshot must not corrupt the window.
	got[0].Vals[0] = data.Str("x")
	if w.Contents()[0].Vals[0].AsString() != "c" {
		t.Fatal("Contents returned live storage")
	}
}
