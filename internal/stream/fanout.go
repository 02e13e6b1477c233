package stream

import (
	"sync"
	"sync/atomic"

	"aspen/internal/data"
)

// Fanout is the engine's one dynamic fan-out point: an engine Input is a
// named Fanout, the seam where N queries' divergent suffixes attach to one
// physical scan+window+select prefix is one (the plan layer's shared-subplan
// sharing), and so is the OUTPUT TO split between a query's result and its
// display. The subscriber list is copy-on-write — PushBatch loads it
// atomically and dispatch lock-free, Subscribe and Unsubscribe replace
// it under a lock — so attaching or stopping one query never serializes
// the hot path of the others.
//
// Every subscriber is handed the same tuples and the same batch slice: both
// are read-only once pushed (see Operator), so sharing them is free and a
// fan-out's cost is its subscribers' own work.
type Fanout struct {
	mu     sync.Mutex
	schema *data.Schema
	subs   atomic.Pointer[[]Operator]
}

// NewFanout creates an empty fan-out point carrying the schema.
func NewFanout(schema *data.Schema) *Fanout {
	return &Fanout{schema: schema}
}

// Schema implements Operator.
func (f *Fanout) Schema() *data.Schema { return f.schema }

// Subscribe attaches a consumer. The subscriber list is copied, so
// in-flight pushes keep dispatching to the list they loaded.
func (f *Fanout) Subscribe(op Operator) {
	f.mu.Lock()
	var next []Operator
	if cur := f.subs.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, op)
	f.subs.Store(&next)
	f.mu.Unlock()
}

// Unsubscribe detaches a consumer, reporting whether it was found. Only
// the first matching subscription is removed, so a double-subscribed
// consumer detaches one subscription per call. An in-flight push keeps the
// list it loaded, so the consumer may see one last delivery.
func (f *Fanout) Unsubscribe(op Operator) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.subs.Load()
	if cur == nil {
		return false
	}
	next := make([]Operator, 0, len(*cur))
	removed := false
	for _, o := range *cur {
		if !removed && o == op {
			removed = true
			continue
		}
		next = append(next, o)
	}
	if removed {
		f.subs.Store(&next)
	}
	return removed
}

// Subscribers reports the current number of attached consumers; churn
// tests assert it returns to baseline after queries stop.
func (f *Fanout) Subscribers() int { return len(f.subscribers()) }

func (f *Fanout) subscribers() []Operator {
	if p := f.subs.Load(); p != nil {
		return *p
	}
	return nil
}

// Push implements Operator.
func (f *Fanout) Push(t data.Tuple) { f.PushBatch([]data.Tuple{t}) }

// PushBatch implements Operator: one dispatch per subscriber.
func (f *Fanout) PushBatch(ts []data.Tuple) {
	if len(ts) == 0 {
		return
	}
	for _, op := range f.subscribers() {
		op.PushBatch(ts)
	}
}
