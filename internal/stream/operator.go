// Package stream implements ASPEN's distributed stream engine (Fig. 1,
// "Stream Engine (on PCs)"): push-based relational operators over
// timestamped delta streams, windows, symmetric hash joins, incremental
// grouped aggregation, materialized results for display, and one exchange
// layer for spreading a query over the PCs: a ShardSet replicates a
// pipeline P ways behind hash-partitioning Sharders, each replica living in
// this process or on a ShardWorker in another — built, placed and moved by
// the same routine either way (shard.go), reached over multiplexed TCP
// streams in a columnar wire format (remote.go, mux.go, wire.go).
//
// Every operator processes tuples carrying an insert/delete polarity
// (data.Op). Windows emit deletions as tuples expire, so joins and
// aggregates downstream stay incrementally correct — the same machinery the
// recursive view maintenance of internal/views builds on (paper ref [11]).
package stream

import (
	"fmt"
	"slices"
	"sync"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// Operator is a push-based tuple consumer.
//
// Ownership: a tuple's Vals are read-only from the moment the tuple is
// pushed. The pusher gives them away and never writes to them again; any
// consumer may retain them as internal state (windows buffer them, join
// tables index them), and any number of consumers may hold the same ones (a
// Fanout hands every subscriber the same tuples), so no operator writes to
// Vals it was handed: one that needs a different tuple builds it (Negate and
// re-stamping copy the header, Project writes new Vals). Sinks that outlive
// their producers (Materialize, Collector, Distinct) copy what they keep, so
// a displayed row never pins the batch it arrived in.
//
// The one exception is a consumer that keeps nothing (keepsNothing): it
// holds none of the Vals it was handed once Push or PushBatch returns. Those
// are Materialize and Collector, which copy, and Project, Aggregate,
// PartialAggregate and FinalMerge, which read values out and build rows of
// their own. Three producers write into reused memory in front of one:
// Project writes every batch into one buffer, Join writes the rows of one
// input call into a pooled arena, and the aggregates build a group's next
// row in the row it last retracted. Every other consumer — Window, Join,
// Distinct (which forwards what it gets), Fanout and Input, GroupedFilter,
// Filter, Sharder and Merge, callbacks — is handed Vals nobody writes to
// again. The plan's shape decides which applies; there is no option.
type Operator interface {
	// Schema describes the tuples this operator accepts.
	Schema() *data.Schema
	// Push processes one tuple (insert or delete).
	Push(t data.Tuple)
}

// BatchOperator is implemented by operators with a native batched push
// that amortizes per-tuple dispatch (locking, transport framing, window
// maintenance) over the batch.
//
// A batch is also the unit of visible change. When PushBatch returns, the
// operator's state and everything downstream of it are what pushing the
// tuples one by one would have left, but the deltas sent downstream on the
// way need only net out to the same: Aggregate and PartialAggregate emit one
// retract+insert per group the batch changed, not the states the group
// passed through inside it. What Push emits is unchanged — it is the batch
// of one — and nothing is held back across calls, so ticks, flush barriers
// and checkpoints between calls see exact state.
type BatchOperator interface {
	Operator
	// PushBatch processes the tuples in order. The batch slice is read-only
	// too, and only valid during the call: the operator neither writes to
	// its elements (other subscribers of a Fanout are handed the same slice)
	// nor keeps it (its producer may refill it once the call returns). The
	// tuples inside follow the Push ownership rule.
	PushBatch(ts []data.Tuple)
}

// PushBatch delivers a batch to op, using its native batch path when
// implemented and falling back to per-tuple Push otherwise.
func PushBatch(op Operator, ts []data.Tuple) {
	if b, ok := op.(BatchOperator); ok {
		b.PushBatch(ts)
		return
	}
	for _, t := range ts {
		op.Push(t)
	}
}

// keepsNothing reports whether op holds none of the Vals it was handed once
// its Push or PushBatch returns, so a producer in front of it may write its
// next output into the same memory (see the ownership rule on Operator).
func keepsNothing(op Operator) bool {
	switch op.(type) {
	case *Materialize, *Collector, *Project, *Aggregate, *PartialAggregate, *FinalMerge:
		return true
	}
	return false
}

// testHashMask narrows operator key hashes; tests set it to 0 to force
// every key into one collision bucket, exercising bucket verification.
var testHashMask = ^uint64(0)

// SetTestHashMask narrows operator key hashes and returns the previous
// mask. It exists for tests in other packages (the plan-level differential
// harness) that force every key into one collision bucket; only call it
// while no operators are processing (before deploying, after closing).
func SetTestHashMask(m uint64) (prev uint64) {
	prev = testHashMask
	testHashMask = m
	return prev
}

// Advancer is implemented by operators with time-driven state (windows);
// the engine ticks them so expiry happens even when a stream goes quiet.
type Advancer interface {
	Advance(now vtime.Time)
}

// Filter drops tuples failing a predicate. Polarity passes through
// unchanged: a deletion of a tuple that passed is a deletion downstream.
type Filter struct {
	next  Operator
	pred  *expr.Compiled
	batch []data.Tuple // scratch for PushBatch
}

// NewFilter builds a filter in front of next.
func NewFilter(next Operator, pred *expr.Compiled) *Filter {
	return &Filter{next: next, pred: pred}
}

// Schema implements Operator.
func (f *Filter) Schema() *data.Schema { return f.next.Schema() }

// Push implements Operator.
func (f *Filter) Push(t data.Tuple) {
	if f.pred.EvalBool(t) {
		f.next.Push(t)
	}
}

// PushBatch implements BatchOperator: the passing subset forwards as one
// batch.
func (f *Filter) PushBatch(ts []data.Tuple) {
	out := f.batch[:0]
	for _, t := range ts {
		if f.pred.EvalBool(t) {
			out = append(out, t)
		}
	}
	f.batch = out[:0]
	if len(out) > 0 {
		PushBatch(f.next, out)
		clear(out) // the scratch must not pin the batch
	}
}

// Project maps tuples through scalar expressions.
type Project struct {
	next   Operator
	exprs  []*expr.Compiled
	schema *data.Schema
	batch  []data.Tuple // scratch for PushBatch
	// reuse: next keeps nothing, so outputs are written into the reused buf
	// instead of fresh Vals.
	reuse bool
	buf   []data.Value
}

// ProjectItem is one projected expression with an optional alias.
type ProjectItem struct {
	Expr  expr.Expr
	Alias string
}

// NewProject builds a projection in front of next, which must accept
// exactly len(items) columns.
func NewProject(next Operator, in *data.Schema, items []ProjectItem) (*Project, error) {
	if next.Schema().Arity() != len(items) {
		return nil, fmt.Errorf("stream: projection arity %d does not match downstream %s",
			len(items), next.Schema())
	}
	exprs := make([]*expr.Compiled, len(items))
	for i, it := range items {
		c, err := expr.Bind(it.Expr, in)
		if err != nil {
			return nil, err
		}
		exprs[i] = c
	}
	return &Project{next: next, exprs: exprs, schema: in, reuse: keepsNothing(next)}, nil
}

// OutSchema computes the schema a projection over in would produce:
// aliases become column names; bare column references keep their qualified
// names; other expressions get positional names.
func OutSchema(in *data.Schema, items []ProjectItem) (*data.Schema, error) {
	out := &data.Schema{Name: in.Name, IsStream: in.IsStream}
	for i, it := range items {
		c, err := expr.Bind(it.Expr, in)
		if err != nil {
			return nil, err
		}
		name := it.Alias
		rel := ""
		if name == "" {
			if col, ok := it.Expr.(expr.Col); ok {
				rel, name = data.SplitQualified(col.Ref)
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		out.Cols = append(out.Cols, data.Column{Rel: rel, Name: name, Type: c.Type})
	}
	return out, nil
}

// Schema implements Operator (input schema).
func (p *Project) Schema() *data.Schema { return p.schema }

// Push implements Operator.
func (p *Project) Push(t data.Tuple) {
	vals := p.vals(len(p.exprs))
	for i, e := range p.exprs {
		vals[i] = e.Eval(t)
	}
	p.next.Push(data.Tuple{Vals: vals, TS: t.TS, Op: t.Op})
}

// PushBatch implements BatchOperator: output rows share one backing array —
// the reused buffer in front of a consumer that keeps nothing, a fresh one
// per batch otherwise.
func (p *Project) PushBatch(ts []data.Tuple) {
	if len(ts) == 0 {
		return
	}
	n := len(p.exprs)
	backing := p.vals(n * len(ts))
	out := p.batch[:0]
	for i, t := range ts {
		vals := backing[i*n : (i+1)*n : (i+1)*n]
		for k, e := range p.exprs {
			vals[k] = e.Eval(t)
		}
		out = append(out, data.Tuple{Vals: vals, TS: t.TS, Op: t.Op})
	}
	p.batch = out[:0]
	PushBatch(p.next, out)
	clear(out) // the scratch must not pin the batch
}

// vals returns room for k output values.
func (p *Project) vals(k int) []data.Value {
	if !p.reuse {
		return make([]data.Value, k)
	}
	p.buf = slices.Grow(p.buf[:0], k)[:k]
	return p.buf
}

// Distinct enforces set semantics over a delta stream using multiplicity
// counting: an insert is forwarded only on 0→1, a delete only on 1→0 — the
// very tuple it was handed either way. Multiplicities live in a rowSet.
type Distinct struct {
	next Operator
	rows rowSet
}

// NewDistinct builds a distinct operator.
func NewDistinct(next Operator) *Distinct {
	return &Distinct{next: next, rows: newRowSet(next.Schema().Arity())}
}

// Schema implements Operator.
func (d *Distinct) Schema() *data.Schema { return d.next.Schema() }

// Push implements Operator. The deletion of an unseen tuple is ignored.
func (d *Distinct) Push(t data.Tuple) {
	if t.Op == data.Insert && d.rows.add(t, 1) || t.Op == data.Delete && d.rows.remove(t) {
		d.next.Push(t)
	}
}

// Callback adapts a function to Operator; the engine's leaf sink.
type Callback struct {
	schema *data.Schema
	fn     func(data.Tuple)
}

// NewCallback wraps fn as an operator with the given schema.
func NewCallback(schema *data.Schema, fn func(data.Tuple)) *Callback {
	return &Callback{schema: schema, fn: fn}
}

// Schema implements Operator.
func (c *Callback) Schema() *data.Schema { return c.schema }

// Push implements Operator.
func (c *Callback) Push(t data.Tuple) { c.fn(t) }

// BatchCallback adapts a batch function to Operator; like Callback but
// receiving each PushBatch as one call, so feeding another engine input
// (recursive-view edges) costs one dispatch per batch.
type BatchCallback struct {
	schema *data.Schema
	fn     func([]data.Tuple)
}

// NewBatchCallback wraps fn as a batch-native operator with the given
// schema.
func NewBatchCallback(schema *data.Schema, fn func([]data.Tuple)) *BatchCallback {
	return &BatchCallback{schema: schema, fn: fn}
}

// Schema implements Operator.
func (c *BatchCallback) Schema() *data.Schema { return c.schema }

// Push implements Operator.
func (c *BatchCallback) Push(t data.Tuple) {
	batch := [1]data.Tuple{t}
	c.fn(batch[:])
}

// PushBatch implements BatchOperator.
func (c *BatchCallback) PushBatch(ts []data.Tuple) { c.fn(ts) }

// Collector accumulates pushed tuples; a test and example helper.
type Collector struct {
	mu     sync.Mutex
	schema *data.Schema
	Tuples []data.Tuple
}

// NewCollector creates a collector with the given schema.
func NewCollector(schema *data.Schema) *Collector { return &Collector{schema: schema} }

// Schema implements Operator.
func (c *Collector) Schema() *data.Schema { return c.schema }

// Push implements Operator.
func (c *Collector) Push(t data.Tuple) {
	c.mu.Lock()
	c.Tuples = append(c.Tuples, t.Clone())
	c.mu.Unlock()
}

// PushBatch implements BatchOperator: one lock acquisition per batch.
func (c *Collector) PushBatch(ts []data.Tuple) {
	c.mu.Lock()
	for _, t := range ts {
		c.Tuples = append(c.Tuples, t.Clone())
	}
	c.mu.Unlock()
}

// Snapshot returns a copy of everything collected so far.
func (c *Collector) Snapshot() []data.Tuple {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]data.Tuple, len(c.Tuples))
	copy(out, c.Tuples)
	return out
}

// Len returns the number of collected tuples.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.Tuples)
}

// Reset clears the collector.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.Tuples = nil
	c.mu.Unlock()
}

// SortTuples orders tuples by canonical key; deterministic test helper.
func SortTuples(ts []data.Tuple) {
	data.SortByKey(ts)
}
