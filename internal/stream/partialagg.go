package stream

import (
	"fmt"
	"slices"

	"aspen/internal/data"
	"aspen/internal/expr"
)

// Two-phase aggregation: a partition-parallel plan that cannot co-locate a
// group's tuples in one replica (a global aggregate, or a grouping key the
// exchange cannot partition on) splits the Aggregate into
//
//	replica j: PartialAggregate  — per-shard partial group states
//	serial:    FinalMerge        — merges the shards' partials per group
//
// PartialAggregate emits each group's partial state as a tuple; every net
// change of a PushBatch retracts the previous partial row
// and inserts the new one, the exact discipline Aggregate uses for visible
// rows, so FinalMerge sees at most one live contribution per (group, shard)
// at any instant and can combine contributions additively. Deletions flow
// through both stages: the partial state shrinks, the shrunken partial
// replaces the old one, and the merged result follows.
//
// The partial row layout (AggPartialSchema) is the grouping columns, the
// group's tuple count, then per aggregate a non-null-input count and a
// kind-dependent value (SUM/AVG: the partial sum; MIN/MAX: the shard's
// current extremum; COUNT: unused). Summing counts and sums merges
// exactly; MIN/MAX merge through a multiset of per-shard extrema, since
// the global extremum is the extremum of the shard extrema.

// AggPartialSchema computes the partial-state schema of a two-phase
// aggregation over in: grouping columns, the group tuple count, then one
// (count, value) column pair per aggregate.
func AggPartialSchema(in *data.Schema, groupBy []string, specs []AggSpec) (*data.Schema, error) {
	if _, err := AggOutSchema(in, groupBy, specs); err != nil {
		return nil, err // same validation (group columns resolve, args bind)
	}
	out := &data.Schema{Name: in.Name, IsStream: in.IsStream}
	for _, g := range groupBy {
		i, _ := in.ColIndex(g)
		out.Cols = append(out.Cols, in.Cols[i])
	}
	out.Cols = append(out.Cols, data.Column{Name: "_cnt", Type: data.TInt})
	for i := range specs {
		out.Cols = append(out.Cols,
			data.Column{Name: fmt.Sprintf("_n%d", i+1), Type: data.TInt},
			data.Column{Name: fmt.Sprintf("_v%d", i+1), Type: data.TFloat})
	}
	return out, nil
}

// PartialAggregate is the replica-side stage: it maintains the same group
// state as Aggregate over the tuples routed to its shard, but emits
// partial-state rows instead of finalized results.
type PartialAggregate struct {
	next  Operator
	in    *data.Schema
	out   *data.Schema
	specs []AggSpec
	args  []*expr.Compiled // nil entry for COUNT(*)
	table groupTable
}

// NewPartialAggregate builds the partial stage; next (the exchange funnel
// in front of the FinalMerge) must accept AggPartialSchema-shaped tuples.
func NewPartialAggregate(next Operator, in *data.Schema, groupBy []string, specs []AggSpec) (*PartialAggregate, error) {
	out, err := AggPartialSchema(in, groupBy, specs)
	if err != nil {
		return nil, err
	}
	a := &PartialAggregate{next: next, in: in, out: out, specs: specs,
		table: newGroupTable(next, groupCols(in, groupBy), specs)}
	if a.args, err = bindAggArgs(in, specs); err != nil {
		return nil, err
	}
	if err := checkAggDownstream(next, out, "partial aggregate"); err != nil {
		return nil, err
	}
	return a, nil
}

// Schema implements Operator.
func (a *PartialAggregate) Schema() *data.Schema { return a.in }

// OutSchema returns the partial-state schema.
func (a *PartialAggregate) OutSchema() *data.Schema { return a.out }

// Groups reports the live group count of this shard.
func (a *PartialAggregate) Groups() int { return a.table.len() }

// Push implements Operator.
func (a *PartialAggregate) Push(t data.Tuple) { a.PushBatch([]data.Tuple{t}) }

// PushBatch implements Operator: each group the batch changed replaces
// its partial row once, after the whole batch has accumulated, so only net
// changes travel to the merge.
func (a *PartialAggregate) PushBatch(ts []data.Tuple) {
	a.table.fold(a.next, ts, a.args, a.partialRow)
}

// partialRow builds a live group's partial-state row in dst's backing array
// when it has room.
func (a *PartialAggregate) partialRow(g *groupState, dst []data.Value) []data.Value {
	out := append(slices.Grow(dst[:0], len(g.keyVals)+1+2*len(a.specs)), g.keyVals...)
	out = append(out, data.Int(g.count))
	for i, s := range a.specs {
		st := &g.aggs[i]
		out = append(out, data.Int(st.n), st.partial(s.Kind))
	}
	return out
}

// partial encodes the kind-dependent partial value of one aggregate.
func (st *aggState) partial(k AggKind) data.Value {
	switch k {
	case AggCount:
		return data.Null // the count column carries everything
	case AggAvg:
		if st.n == 0 {
			return data.Null
		}
		return data.Float(st.sum) // finalized only at the merge
	default: // SUM, MIN, MAX partials encode like their finalized results
		return st.result(k)
	}
}

// FinalMerge is the serial stage: it combines the shards' partial-state
// rows per group and emits finalized rows exactly as Aggregate would have
// (retract-then-insert on change, HAVING over the output schema). It is a
// single-writer operator; the plan places it behind the exchange's Merge
// funnel, which serializes the shard workers' pushes.
type FinalMerge struct {
	next   Operator
	in     *data.Schema // AggPartialSchema(source, groupBy, specs)
	out    *data.Schema
	specs  []AggSpec
	cntIdx int   // group tuple-count column in the partial row
	nIdx   []int // per-spec non-null-input count columns
	vIdx   []int // per-spec partial value columns
	table  groupTable
	having *expr.Compiled
}

// NewFinalMerge builds the merge stage for an aggregation over source (the
// pre-aggregation schema). next must accept AggOutSchema-shaped tuples;
// having (optional) is evaluated over that output schema.
func NewFinalMerge(next Operator, source *data.Schema, groupBy []string, specs []AggSpec, having expr.Expr) (*FinalMerge, error) {
	in, err := AggPartialSchema(source, groupBy, specs)
	if err != nil {
		return nil, err
	}
	out, err := AggOutSchema(source, groupBy, specs)
	if err != nil {
		return nil, err
	}
	f := &FinalMerge{next: next, in: in, out: out, specs: specs,
		cntIdx: len(groupBy)}
	// Group columns sit first in the partial row, in groupBy order; key on
	// them positionally (identity indexes, like the stored key values).
	keyIdx := make([]int, len(groupBy))
	for i := range keyIdx {
		keyIdx[i] = i
	}
	f.table = newGroupTable(next, keyIdx, specs)
	for i := range specs {
		f.nIdx = append(f.nIdx, f.cntIdx+1+2*i)
		f.vIdx = append(f.vIdx, f.cntIdx+2+2*i)
	}
	if next.Schema().Arity() != out.Arity() {
		return nil, fmt.Errorf("stream: merged aggregate output arity %d does not match downstream %s",
			out.Arity(), next.Schema())
	}
	if having != nil {
		c, err := expr.Bind(having, out)
		if err != nil {
			return nil, err
		}
		f.having = c
	}
	return f, nil
}

// Schema implements Operator (the partial-state input schema).
func (f *FinalMerge) Schema() *data.Schema { return f.in }

// OutSchema returns the finalized output schema.
func (f *FinalMerge) OutSchema() *data.Schema { return f.out }

// Groups reports the live merged group count.
func (f *FinalMerge) Groups() int { return f.table.len() }

// Push implements Operator.
func (f *FinalMerge) Push(t data.Tuple) { f.PushBatch([]data.Tuple{t}) }

// PushBatch implements Operator: each partial-state delta folds into its
// group's merged totals. Contributions are additive (counts and sums
// subtract exactly; MIN/MAX contributions live in a delta-counted multiset),
// so interleaving across shards is immaterial — each shard retracts its old
// partial before inserting the new one, in its own order. The merge emits
// per tuple, not once per batch like groupTable.fold: that retraction
// legitimately takes a merged group through count zero, where fold would
// retire it and emit the pair anyway.
func (f *FinalMerge) PushBatch(ts []data.Tuple) {
	for _, t := range ts {
		id, g := f.table.lookup(t)
		if g == nil {
			continue // retraction for an unknown group: ignore
		}
		delta := int64(1)
		if t.Op == data.Delete {
			delta = -1
		}
		g.count += delta * t.Vals[f.cntIdx].AsInt()
		for i, s := range f.specs {
			st := &g.aggs[i]
			st.n += delta * t.Vals[f.nIdx[i]].AsInt()
			v := t.Vals[f.vIdx[i]]
			if v.IsNull() {
				continue
			}
			switch s.Kind {
			case AggSum, AggAvg:
				st.sum += float64(delta) * v.AsFloat()
			case AggMin, AggMax:
				st.addVal(v.AsFloat(), delta)
			}
		}
		f.table.emitRow(f.next, id, g, finalRow(g, f.specs, f.having, f.table.rowBuf(g)), t.TS)
	}
}
