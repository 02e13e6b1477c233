package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aspen/internal/data"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// tracer records, from the benchmark's own side of each call into a layer,
// how long the layer was busy and how much work it was handed. Nothing in
// the engine is instrumented.
//
// A span is written per (layer, epoch): a layer called once per epoch gets
// its true start and end; a layer called per tuple (the operator shims)
// gets the start of its first call and end = start + busy time, with the
// call count beside it — millions of per-tuple spans would not fit in
// memory, and the self-time arithmetic only needs the sums.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	layers []*layer
	byName map[string]*layer
	spans  []span
	epoch  int
}

// span is one line of results/trace-<workload>.jsonl.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Epoch   int    `json:"epoch"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Calls   int64  `json:"calls"`
	Items   int64  `json:"items"`
}

// layer accumulates one named boundary. busy is inclusive time; child is
// the part of it spent inside layers entered while this one was running, so
// self = busy − child. Counters are atomic because the remote workload's
// worker-side layers are fed from the worker's connection goroutine.
type layer struct {
	name string

	// totals over the run, folded in by endEpoch (under tracer.mu)
	// busy and child are nanoseconds; items counts the work handed to the
	// layer and out the work it handed to layers entered beneath it
	busy, child, calls, items, out int64

	// the running epoch's share; end adds, endEpoch swaps out
	eFirst, eBusy, eChild, eCalls, eItems, eOut atomic.Int64
	eParent                                     atomic.Pointer[layer]
}

// tctx is one goroutine's position in the layer tree: the layer currently
// running is the parent of whatever is entered next.
//
// An untraced run has no tracer: a nil *tracer hands out nil contexts and
// nil layers, and begin, end and do on a nil context record nothing, so a
// workload writes its epoch once and the traced run times that same code.
type tctx struct {
	t   *tracer
	cur *layer
}

func (t *tracer) ctx() *tctx {
	if t == nil {
		return nil
	}
	return &tctx{t: t}
}

// clock is nanoseconds since the tracer's origin. time.Since on a monotonic
// origin is one clock read where time.Now is two, and the per-tuple shims
// pay for every read.
func (c *tctx) clock() int64 { return int64(time.Since(c.t.origin)) }

// begin enters l; pass what it returns to end.
func (c *tctx) begin(l *layer) (parent *layer, t0 int64) {
	if c == nil {
		return nil, 0
	}
	parent, c.cur = c.cur, l
	return parent, c.clock()
}

// end leaves l, which was handed items units of work.
func (c *tctx) end(l, parent *layer, t0 int64, items int) {
	if c == nil {
		return
	}
	d := c.clock() - t0
	c.cur = parent
	if parent != nil {
		parent.eChild.Add(d)
		parent.eOut.Add(int64(items))
	}
	if l.eFirst.Load() == 0 && l.eFirst.CompareAndSwap(0, t0+1) {
		l.eParent.Store(parent)
	}
	l.eBusy.Add(d)
	l.eCalls.Add(1)
	l.eItems.Add(int64(items))
}

// do runs fn as one call into l and returns how long it took, traced or not.
func (c *tctx) do(l *layer, items int, fn func()) time.Duration {
	t0 := time.Now()
	p, c0 := c.begin(l)
	fn()
	c.end(l, p, c0, items)
	return time.Since(t0)
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), byName: map[string]*layer{}}
}

// layer returns the named layer, creating it on first use.
func (t *tracer) layer(name string) *layer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.byName[name]; ok {
		return l
	}
	l := &layer{name: name}
	t.byName[name] = l
	t.layers = append(t.layers, l)
	return l
}

func (l *layer) self() time.Duration { return time.Duration(l.busy - l.child) }

// endEpoch turns every layer's accumulation for the epoch into one span and
// folds it into the layer's totals; call it with no layer running. A
// warm-up epoch (keep false) is dropped instead.
func (t *tracer) endEpoch(keep bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.layers {
		child, out, calls := l.eChild.Swap(0), l.eOut.Swap(0), l.eCalls.Swap(0)
		start := l.eFirst.Swap(0) - 1
		busy, items, parent := l.eBusy.Swap(0), l.eItems.Swap(0), l.eParent.Swap(nil)
		if !keep || calls == 0 {
			continue
		}
		l.child, l.out = l.child+child, l.out+out
		l.busy, l.calls, l.items = l.busy+busy, l.calls+calls, l.items+items
		s := span{Name: l.name, Epoch: t.epoch, StartNS: start,
			EndNS: start + busy, Calls: calls, Items: items}
		if parent != nil {
			s.Parent = parent.name
		}
		t.spans = append(t.spans, s)
	}
	if keep {
		t.epoch++
	}
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// top returns the layers ordered by self time, largest first.
func (t *tracer) top(n int) []*layer {
	t.mu.Lock()
	ls := append([]*layer(nil), t.layers...)
	t.mu.Unlock()
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].self() > ls[j].self() })
	if len(ls) > n {
		ls = ls[:n]
	}
	return ls
}

// shim is the benchmark-owned operator placed in front of an engine
// operator: it times the call into next and counts the tuples handed over.
type shim struct {
	next stream.Operator
	l    *layer
	cx   *tctx
}

// Schema implements stream.Operator.
func (s *shim) Schema() *data.Schema { return s.next.Schema() }

// Push implements stream.Operator.
func (s *shim) Push(t data.Tuple) {
	p, t0 := s.cx.begin(s.l)
	s.next.Push(t)
	s.cx.end(s.l, p, t0, 1)
}

// PushBatch implements stream.BatchOperator.
func (s *shim) PushBatch(ts []data.Tuple) {
	p, t0 := s.cx.begin(s.l)
	stream.PushBatch(s.next, ts)
	s.cx.end(s.l, p, t0, len(ts))
}

// advShim times a window's clock-driven expiry into the window's layer.
type advShim struct {
	next stream.Advancer
	l    *layer
	cx   *tctx
}

// Advance implements stream.Advancer.
func (a *advShim) Advance(now vtime.Time) {
	p, t0 := a.cx.begin(a.l)
	a.next.Advance(now)
	a.cx.end(a.l, p, t0, 0)
}
