package stream

import (
	"fmt"
	"slices"
	"strings"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// AggKind enumerates the aggregate functions of the stream engine.
type AggKind uint8

// Aggregate kinds.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// ParseAggKind maps a function name from the parser to an AggKind.
func ParseAggKind(name string) (AggKind, bool) {
	switch strings.ToLower(name) {
	case "count":
		return AggCount, true
	case "sum":
		return AggSum, true
	case "avg":
		return AggAvg, true
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	}
	return 0, false
}

// String names the kind.
func (k AggKind) String() string {
	return [...]string{"count", "sum", "avg", "min", "max"}[k]
}

// AggSpec is one aggregate column: FUNC(Arg) AS Alias. A nil Arg means
// COUNT(*).
type AggSpec struct {
	Kind  AggKind
	Arg   expr.Expr
	Alias string
}

// Aggregate maintains grouped aggregates incrementally over a delta
// stream. For every group whose result a Push or a PushBatch changed, it
// emits a retraction of the group's previous output row followed by an
// insertion of the new one, so downstream state (materialized displays,
// HAVING filters) tracks the aggregate exactly once the call returns. A
// batch emits net changes only: the states a group passes through inside
// one PushBatch are not emitted, and a group the batch leaves with the row
// it had emits nothing. Push is the one-tuple batch, so its output is a
// retract+insert per changing tuple.
// Group state is keyed by 64-bit hashes of the canonical grouping-key
// encoding; a bucket holds every group sharing the hash, and lookups verify
// candidates against the stored key values, so no key string is
// materialized per push.
type Aggregate struct {
	next   Operator
	in     *data.Schema
	out    *data.Schema
	specs  []AggSpec
	args   []*expr.Compiled // nil entry for COUNT(*)
	table  groupTable
	having *expr.Compiled
}

// groupTable is the grouped-state core shared by the one-phase Aggregate
// and the two-phase PartialAggregate / FinalMerge operators: hash-bucketed
// group lookup keyed on the canonical encoding of the grouping columns
// (data.Hasher), with collision buckets verified value-by-value through
// EqualOn, so no key string is materialized per push.
type groupTable struct {
	keyIdx []int
	kvIdx  []int // identity indexes into groupState.keyVals
	nAggs  int
	groups map[uint64][]*groupState
	n      int // live group count
	hasher data.Hasher
	// touched lists the groups the running fold has changed and not yet
	// emitted; empty between calls.
	touched []touchedGroup
	// reuse: the operator's consumer keeps nothing, so a group builds its
	// next row in the row it last retracted (groupState.spare).
	reuse bool
}

type touchedGroup struct {
	key uint64
	g   *groupState
}

// newGroupTable resolves the grouping columns against in. groupBy must
// already be validated (AggOutSchema / AggPartialSchema do).
func newGroupTable(next Operator, in *data.Schema, groupBy []string, nAggs int) groupTable {
	gt := groupTable{nAggs: nAggs, groups: map[uint64][]*groupState{}, reuse: keepsNothing(next)}
	// keyIdx must stay non-nil: Tuple.HashOn(h, nil) means "all columns",
	// but an empty GROUP BY means one global group (empty key).
	gt.keyIdx = make([]int, 0, len(groupBy))
	gt.kvIdx = make([]int, 0, len(groupBy))
	for _, g := range groupBy {
		i, _ := in.ColIndex(g)
		gt.keyIdx = append(gt.keyIdx, i)
		gt.kvIdx = append(gt.kvIdx, len(gt.kvIdx))
	}
	return gt
}

// lookup finds the tuple's group, creating it for insertions. The nil
// group result means a deletion addressed an unknown group (ignored by
// every caller, matching the delta-stream convention).
func (gt *groupTable) lookup(t data.Tuple) (uint64, *groupState) {
	key := gt.hasher.HashOn(t, gt.keyIdx) & testHashMask
	for _, cand := range gt.groups[key] {
		// Verify the hash-bucket candidate's stored key values against the
		// tuple's grouping columns under key-equality semantics.
		if (data.Tuple{Vals: cand.keyVals}).EqualOn(gt.kvIdx, t, gt.keyIdx) {
			return key, cand
		}
	}
	if t.Op == data.Delete {
		return key, nil
	}
	g := &groupState{aggs: make([]aggState, gt.nAggs)}
	for i := range g.aggs {
		g.aggs[i].vals = map[float64]int64{}
	}
	g.keyVals = make([]data.Value, len(gt.keyIdx))
	for i, idx := range gt.keyIdx {
		g.keyVals[i] = t.Vals[idx]
	}
	gt.groups[key] = append(gt.groups[key], g)
	gt.n++
	return key, g
}

// remove drops a dead group from its bucket.
func (gt *groupTable) remove(key uint64, g *groupState) {
	bucket := gt.groups[key]
	for i, cand := range bucket {
		if cand == g {
			copy(bucket[i:], bucket[i+1:])
			bucket[len(bucket)-1] = nil // drop the reference for GC
			if len(bucket) == 1 {
				delete(gt.groups, key)
			} else {
				gt.groups[key] = bucket[:len(bucket)-1]
			}
			break
		}
	}
	gt.n--
}

// fold runs a batch through the table for Aggregate and PartialAggregate,
// which accumulate identically and differ only in the row they emit. Every
// tuple accumulates in arrival order (float sums depend on it); each group
// the batch touched emits once, when the batch ends, the row its final
// state gives, stamped with the last tuple that reached it. A group whose
// count reaches zero retires at that tuple, as it would on a Push: it
// retracts its row and leaves the table, so a later insert of the key
// starts from fresh state and a later delete of it is ignored.
func (gt *groupTable) fold(next Operator, ts []data.Tuple, args []*expr.Compiled, row func(g *groupState, dst []data.Value) []data.Value) {
	for _, t := range ts {
		key, g := gt.lookup(t)
		if g == nil {
			continue // deletion for unknown group: ignore
		}
		accumulate(g, t, args)
		if g.count <= 0 {
			gt.emitRow(next, key, g, nil, t.TS)
			continue
		}
		g.cause = t.TS
		if !g.touched {
			g.touched = true
			gt.touched = append(gt.touched, touchedGroup{key, g})
		}
	}
	for _, d := range gt.touched {
		if d.g.count <= 0 {
			continue // retired after it was listed
		}
		d.g.touched = false
		gt.emitRow(next, d.key, d.g, row(d.g, gt.rowBuf(d.g)), d.g.cause)
	}
	clear(gt.touched) // a retired group must not stay reachable from the scratch
	gt.touched = gt.touched[:0]
}

// rowBuf returns what g's next row is built in: the group's spare when the
// consumer keeps nothing, nil (fresh Vals) otherwise.
func (gt *groupTable) rowBuf(g *groupState) []data.Value {
	if gt.reuse {
		return g.spare[:0]
	}
	return nil
}

// emitRow retracts g's previously emitted row and emits newOut (nil means
// no visible row, e.g. failed HAVING or dead group), suppressing no-op
// transitions, then removes the group once its count reaches zero. Both
// rows carry the timestamp ts of the tuple that caused the change. When the
// consumer keeps nothing, the retracted row becomes the group's spare, and
// a spare that newOut was built in stops being one.
func (gt *groupTable) emitRow(next Operator, key uint64, g *groupState, newOut []data.Value, ts vtime.Time) {
	old := g.lastOut
	if old != nil {
		same := newOut != nil && len(newOut) == len(g.lastOut)
		if same {
			for i := range newOut {
				if !(newOut[i].IsNull() && g.lastOut[i].IsNull()) && !newOut[i].Equal(g.lastOut[i]) {
					same = false
					break
				}
			}
		}
		if same {
			return // no visible change
		}
		next.Push(data.Tuple{Vals: g.lastOut, TS: ts, Op: data.Delete})
		g.lastOut = nil
	}
	if newOut != nil {
		next.Push(data.Tuple{Vals: newOut, TS: ts, Op: data.Insert})
		g.lastOut = newOut
	}
	if gt.reuse {
		g.spare = old
	}
	if g.count <= 0 {
		gt.remove(key, g)
	}
}

type groupState struct {
	keyVals []data.Value
	count   int64 // tuples in group
	aggs    []aggState
	lastOut []data.Value // previously emitted row (nil if none)
	// spare is a row this group built and retracted, free to build the next
	// one in; only used when the consumer keeps nothing.
	spare []data.Value
	// touched and cause live only inside groupTable.fold: the group is on
	// the touched list, and cause is the timestamp of the last tuple folded
	// into it.
	touched bool
	cause   vtime.Time
}

type aggState struct {
	n   int64 // non-null inputs
	sum float64
	// multiset of values for min/max deletion support
	vals map[float64]int64
}

// AggOutSchema computes the output schema of a grouped aggregation:
// grouping columns followed by one column per aggregate (COUNT is INT,
// the numeric aggregates are FLOAT).
func AggOutSchema(in *data.Schema, groupBy []string, specs []AggSpec) (*data.Schema, error) {
	out := &data.Schema{Name: in.Name, IsStream: in.IsStream}
	for _, g := range groupBy {
		i, err := in.ColIndex(g)
		if err != nil {
			return nil, err
		}
		out.Cols = append(out.Cols, in.Cols[i])
	}
	for i, s := range specs {
		typ := data.TInt
		if s.Arg != nil {
			c, err := expr.Bind(s.Arg, in)
			if err != nil {
				return nil, err
			}
			if !c.Type.Numeric() && s.Kind != AggCount {
				return nil, fmt.Errorf("stream: %s over non-numeric %s", s.Kind, c.Type)
			}
			if s.Kind != AggCount {
				typ = data.TFloat // numeric aggregates are computed in float64
			}
		} else if s.Kind != AggCount {
			return nil, fmt.Errorf("stream: %s requires an argument", s.Kind)
		}
		name := s.Alias
		if name == "" {
			name = fmt.Sprintf("%s%d", s.Kind, i+1)
		}
		out.Cols = append(out.Cols, data.Column{Name: name, Type: typ})
	}
	return out, nil
}

// NewAggregate builds the operator. groupBy names grouping columns in the
// input schema; having (optional) is evaluated over the output schema.
func NewAggregate(next Operator, in *data.Schema, groupBy []string, specs []AggSpec, having expr.Expr) (*Aggregate, error) {
	out, err := AggOutSchema(in, groupBy, specs)
	if err != nil {
		return nil, err
	}
	a := &Aggregate{next: next, in: in, out: out, specs: specs,
		table: newGroupTable(next, in, groupBy, len(specs))}
	if a.args, err = bindAggArgs(in, specs); err != nil {
		return nil, err
	}
	if err := checkAggDownstream(next, out, "aggregate"); err != nil {
		return nil, err
	}
	if having != nil {
		c, err := expr.Bind(having, out)
		if err != nil {
			return nil, err
		}
		a.having = c
	}
	return a, nil
}

// Schema implements Operator.
func (a *Aggregate) Schema() *data.Schema { return a.in }

// OutSchema returns the grouped output schema.
func (a *Aggregate) OutSchema() *data.Schema { return a.out }

// Push implements Operator.
func (a *Aggregate) Push(t data.Tuple) {
	batch := [1]data.Tuple{t}
	a.PushBatch(batch[:])
}

// PushBatch implements BatchOperator: each group the batch changed emits
// once, after the whole batch has accumulated.
func (a *Aggregate) PushBatch(ts []data.Tuple) {
	a.table.fold(a.next, ts, a.args, func(g *groupState, dst []data.Value) []data.Value {
		return finalRow(g, a.specs, a.having, dst)
	})
}

// bindAggArgs compiles each spec's argument against in (nil entries mark
// COUNT(*)). Shared by the one- and two-phase aggregate constructors.
func bindAggArgs(in *data.Schema, specs []AggSpec) ([]*expr.Compiled, error) {
	args := make([]*expr.Compiled, len(specs))
	for i, s := range specs {
		if s.Arg == nil {
			continue
		}
		c, err := expr.Bind(s.Arg, in)
		if err != nil {
			return nil, err
		}
		args[i] = c
	}
	return args, nil
}

// checkAggDownstream validates that next accepts out-shaped tuples.
func checkAggDownstream(next Operator, out *data.Schema, what string) error {
	if next.Schema().Arity() != out.Arity() {
		return fmt.Errorf("stream: %s output arity %d does not match downstream %s",
			what, out.Arity(), next.Schema())
	}
	return nil
}

// accumulate folds one input tuple into the group's running state — the
// group count and every aggregate's (n, sum, value-multiset) — with the
// tuple's polarity deciding the delta sign. Aggregate and
// PartialAggregate accumulate identically; they differ only in what they
// emit.
func accumulate(g *groupState, t data.Tuple, args []*expr.Compiled) {
	delta := int64(1)
	if t.Op == data.Delete {
		delta = -1
	}
	g.count += delta
	for i := range args {
		st := &g.aggs[i]
		if args[i] == nil { // COUNT(*)
			st.n += delta
			continue
		}
		v := args[i].Eval(t)
		if v.IsNull() {
			continue
		}
		f := v.AsFloat()
		st.n += delta
		st.sum += float64(delta) * f
		st.vals[f] += delta
		if st.vals[f] <= 0 {
			delete(st.vals, f)
		}
	}
}

// finalRow builds a group's visible output row — grouping columns followed
// by finalized aggregates — in dst's backing array when it has room, or
// returns nil for a dead group / failed HAVING. Shared by Aggregate and
// FinalMerge, whose output contracts are identical.
func finalRow(g *groupState, specs []AggSpec, having *expr.Compiled, dst []data.Value) []data.Value {
	if g.count <= 0 {
		return nil
	}
	out := append(slices.Grow(dst[:0], len(g.keyVals)+len(specs)), g.keyVals...)
	for i, s := range specs {
		out = append(out, g.aggs[i].result(s.Kind))
	}
	if having != nil && !having.EvalVals(out).AsBool() {
		return nil
	}
	return out
}

// result finalizes one aggregate from its state.
func (st *aggState) result(k AggKind) data.Value {
	switch k {
	case AggCount:
		return data.Int(st.n)
	case AggSum:
		if st.n == 0 {
			return data.Null
		}
		return data.Float(st.sum)
	case AggAvg:
		if st.n == 0 {
			return data.Null
		}
		return data.Float(st.sum / float64(st.n))
	case AggMin:
		if len(st.vals) == 0 {
			return data.Null
		}
		first := true
		min := 0.0
		for v := range st.vals {
			if first || v < min {
				min, first = v, false
			}
		}
		return data.Float(min)
	case AggMax:
		if len(st.vals) == 0 {
			return data.Null
		}
		first := true
		max := 0.0
		for v := range st.vals {
			if first || v > max {
				max, first = v, false
			}
		}
		return data.Float(max)
	}
	return data.Null
}

// Groups reports the live group count (for plan displays).
func (a *Aggregate) Groups() int { return a.table.n }
