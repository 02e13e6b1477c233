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
// stream. For every group whose result a PushBatch changed, it
// emits a retraction of the group's previous output row followed by an
// insertion of the new one, so downstream state (materialized displays,
// HAVING filters) tracks the aggregate exactly once the call returns. A
// batch emits net changes only: the states a group passes through inside
// one PushBatch are not emitted, and a group the batch leaves with the row
// it had emits nothing. Push is the one-tuple batch, so its output is a
// retract+insert per changing tuple. Its groups live in a groupTable.
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
// and the two-phase PartialAggregate / FinalMerge operators. A group is a
// keyTable id keyed on its grouping columns, whose payload is its
// groupState; a retired group's state, with its aggregate slots, is reused
// by the next new group.
//
// A lookup first asks the table's memo (recall), because a group's tuples
// tend to arrive back to back: a join emits one probe's matches together,
// and readings arrive room by room.
type groupTable struct {
	keyIdx []int
	ext    []bool // per aggregate: MIN or MAX, the kinds that keep a value multiset
	index  keyTable
	groups []groupState // by id
	// touched lists, in first-touch order, the groups the running fold has
	// changed and not yet emitted; a group retired since it was listed is -1.
	// Empty between calls.
	touched []int32
	// reuse: the operator's consumer keeps nothing, so a group builds its
	// next row in the row it last retracted (groupState.spare).
	reuse bool
	slot  Slot // emitRow's batch of one
}

// newGroupTable keys a table on the input columns keyIdx (non-nil: an empty
// GROUP BY is one global group, while indexHash(t, nil) would mean "all
// columns") for the aggregates specs.
func newGroupTable(next Operator, keyIdx []int, specs []AggSpec) groupTable {
	ext := make([]bool, len(specs))
	for i, s := range specs {
		ext[i] = s.Kind == AggMin || s.Kind == AggMax
	}
	return emptyGroupTable(keyIdx, ext, keepsNothing(next))
}

// emptyGroupTable is the one constructor of a groupTable value: a new
// operator's table and a restored one both start here, so no field a table
// needs is left zero.
func emptyGroupTable(keyIdx []int, ext []bool, reuse bool) groupTable {
	return groupTable{keyIdx: keyIdx, ext: ext, index: newKeyTable(len(keyIdx)), reuse: reuse}
}

// groupCols resolves groupBy against in. groupBy must already be validated
// (AggOutSchema / AggPartialSchema do).
func groupCols(in *data.Schema, groupBy []string) []int {
	idx := make([]int, 0, len(groupBy))
	for _, g := range groupBy {
		i, _ := in.ColIndex(g)
		idx = append(idx, i)
	}
	return idx
}

// len reports the live group count.
func (gt *groupTable) len() int { return gt.index.len() }

// lookup finds the tuple's group, creating it for insertions. A nil group
// means a deletion addressed an unknown group (ignored by every caller,
// matching the delta-stream convention). The pointer is valid until the
// next lookup. A tuple of the group the last lookup resolved is answered
// by one key check.
func (gt *groupTable) lookup(t data.Tuple) (int32, *groupState) {
	id := gt.index.recall(t, gt.keyIdx)
	if id < 0 {
		if id, _ = gt.index.lookup(t, gt.keyIdx, t.Op != data.Delete); id < 0 {
			return -1, nil
		}
		gt.grow(id)
	}
	return id, &gt.groups[id]
}

// grow gives a new id its group: aggregate slots and, for MIN and MAX,
// value multisets. A reused id keeps the state its retire emptied.
func (gt *groupTable) grow(id int32) {
	if int(id) < len(gt.groups) {
		return
	}
	g := groupState{aggs: make([]aggState, len(gt.ext))}
	for i, e := range gt.ext {
		if e {
			g.aggs[i].vals = map[float64]int64{}
		}
	}
	gt.groups = append(gt.groups, g)
}

// retire drops a dead group from the table and the touched list, and
// empties its state for the next new group, keeping the memory it owns:
// aggregate slots, value multisets and spare row.
func (gt *groupTable) retire(id int32) {
	g := &gt.groups[id]
	gt.index.retire(id)
	if g.touched > 0 {
		gt.touched[g.touched-1] = -1
	}
	for i := range g.aggs {
		clear(g.aggs[i].vals)
		g.aggs[i] = aggState{vals: g.aggs[i].vals}
	}
	*g = groupState{aggs: g.aggs, spare: g.spare}
}

// fold runs a batch through the table for Aggregate and PartialAggregate,
// which accumulate identically and differ only in the row they emit. Every
// tuple accumulates in arrival order (float sums depend on it); each group
// the batch touched emits once, when the batch ends, the row its final
// state gives, stamped with the last tuple that reached it. A group whose
// count reaches zero retires at that tuple, as it would in a batch of one: it
// retracts its row and leaves the table, so a later insert of the key
// starts from fresh state and a later delete of it is ignored.
func (gt *groupTable) fold(next Operator, ts []data.Tuple, args []*expr.Compiled, row func(key []data.Value, g *groupState, dst []data.Value) []data.Value) {
	for _, t := range ts {
		id, g := gt.lookup(t)
		if g == nil {
			continue // deletion for unknown group: ignore
		}
		accumulate(g, t, args)
		if g.count <= 0 {
			gt.emitRow(next, id, g, nil, t.TS)
			continue
		}
		g.cause = t.TS
		if g.touched == 0 {
			gt.touched = append(gt.touched, id)
			g.touched = int32(len(gt.touched))
		}
	}
	for _, id := range gt.touched {
		if id < 0 {
			continue // retired after it was listed
		}
		g := &gt.groups[id]
		g.touched = 0
		gt.emitRow(next, id, g, row(gt.index.key(id), g, gt.rowBuf(g)), g.cause)
	}
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
// transitions, then retires the group once its count reaches zero. Both
// rows carry the timestamp ts of the tuple that caused the change. When the
// consumer keeps nothing, the retracted row becomes the group's spare, and
// a spare that newOut was built in stops being one.
func (gt *groupTable) emitRow(next Operator, id int32, g *groupState, newOut []data.Value, ts vtime.Time) {
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
		gt.slot.Send(next, data.Tuple{Vals: g.lastOut, TS: ts, Op: data.Delete})
		g.lastOut = nil
	}
	if newOut != nil {
		gt.slot.Send(next, data.Tuple{Vals: newOut, TS: ts, Op: data.Insert})
		g.lastOut = newOut
	}
	if gt.reuse {
		g.spare = old
	}
	if g.count <= 0 {
		gt.retire(id)
	}
}

type groupState struct {
	count   int64 // tuples in group
	aggs    []aggState
	lastOut []data.Value // previously emitted row (nil if none)
	// spare is a row this group built and retracted, free to build the next
	// one in; only used when the consumer keeps nothing.
	spare []data.Value
	// touched and cause live only inside groupTable.fold: touched is the
	// group's position on the touched list + 1 (0: not on it), and cause is
	// the timestamp of the last tuple folded into it.
	touched int32
	cause   vtime.Time
}

type aggState struct {
	n   int64 // non-null inputs
	sum float64
	// vals is the multiset of values MIN and MAX need to survive deletions;
	// nil for the other kinds, which never read it.
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
		table: newGroupTable(next, groupCols(in, groupBy), specs)}
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

// Push implements Operator.
func (a *Aggregate) Push(t data.Tuple) { a.PushBatch([]data.Tuple{t}) }

// PushBatch implements Operator: each group the batch changed emits
// once, after the whole batch has accumulated.
func (a *Aggregate) PushBatch(ts []data.Tuple) {
	a.table.fold(a.next, ts, a.args, func(key []data.Value, g *groupState, dst []data.Value) []data.Value {
		return finalRow(key, g, a.specs, a.having, dst)
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
// group count and every aggregate's (n, sum) and, for MIN and MAX, value
// multiset — with the tuple's polarity deciding the delta sign. Aggregate and
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
		if st.vals != nil {
			st.addVal(f, delta)
		}
	}
}

// addVal counts delta more copies of f in a MIN/MAX value multiset.
func (st *aggState) addVal(f float64, delta int64) {
	if n := st.vals[f] + delta; n > 0 {
		st.vals[f] = n
	} else {
		delete(st.vals, f)
	}
}

// finalRow builds the visible output row of the group keyed key — grouping
// columns followed by finalized aggregates — in dst's backing array when it
// has room, or returns nil for a dead group / failed HAVING. Shared by
// Aggregate and FinalMerge, whose output contracts are identical.
func finalRow(key []data.Value, g *groupState, specs []AggSpec, having *expr.Compiled, dst []data.Value) []data.Value {
	if g.count <= 0 {
		return nil
	}
	out := append(slices.Grow(dst[:0], len(key)+len(specs)), key...)
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
