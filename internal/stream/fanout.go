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
// display. The subscriber list is copy-on-write — Push and PushBatch load
// it atomically and dispatch lock-free, Subscribe and Unsubscribe replace
// it under a lock — so attaching or stopping one query never serializes
// the hot path of the others.
//
// Ownership, for Push and PushBatch alike: every subscriber but the last
// receives its own cloned tuples (downstream operators may retain them as
// state), and the final subscriber is handed the originals, so a
// single-subscriber chain stays zero-copy and the pusher gives its tuples'
// Vals away.
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
func (f *Fanout) Push(t data.Tuple) {
	subs := f.subscribers()
	for i, op := range subs {
		if i < len(subs)-1 {
			op.Push(t.Clone())
			continue
		}
		op.Push(t)
	}
}

// PushBatch implements BatchOperator: one dispatch per subscriber, every
// subscriber but the last on its own cloned batch.
func (f *Fanout) PushBatch(ts []data.Tuple) {
	if len(ts) == 0 {
		return
	}
	subs := f.subscribers()
	for i, op := range subs {
		b := ts
		if i < len(subs)-1 {
			cl := make([]data.Tuple, len(ts))
			for k, t := range ts {
				cl[k] = t.Clone()
			}
			b = cl
		}
		PushBatch(op, b)
	}
}
