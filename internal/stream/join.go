package stream

import (
	"fmt"
	"slices"
	"sync"

	"aspen/internal/data"
	"aspen/internal/expr"
)

// Join is a symmetric hash join over two delta streams (Wilschut & Apers).
// Window state arrives as +/- deltas from upstream Window operators; an
// insertion joins the other side's rows of its key and emits joined
// insertions, a deletion emits joined retractions. The result is exactly the
// join of the two windows at every instant.
//
// Both sides share one key-grouped table: a record per join key that either
// side holds rows of, with that key's left rows and right rows in arrival
// order, found through a keyIndex by the 64-bit hash of the key's canonical
// encoding. A tuple probes once and checks its key once, against the
// record's first row; it then updates its own side and joins every row of
// the other side without checking again. So keys never mix, the per-tuple
// path allocates nothing once the table has grown, and joined rows come out
// in arrival order within a key.
type Join struct {
	next Operator

	in       [2]*data.Schema // left, right
	out      *data.Schema
	keys     [2][]int // equi-join column indexes: left, right
	residual *expr.Compiled
	index    keyIndex
	recs     []joinRec
	free     []int32 // retired records, reused with their slices
	hasher   data.Hasher
	ins      [2]joinInput
	// batch collects the joined rows of one input call for one downstream
	// dispatch; cleared after it, so it pins no row between calls.
	batch []data.Tuple
	// reuse: next keeps nothing, so the joined rows of one input call are
	// written into arena, taken from joinArenas for the call and returned
	// after the dispatch; nil between calls.
	reuse bool
	arena *[]data.Value
}

// joinRec holds one join key's rows: rows[0] the left side's, rows[1] the
// right side's, each in arrival order. A record whose sides are both empty
// is retired.
type joinRec struct {
	rows [2][]data.Tuple
}

// joinArenas recycles the value arenas joins write their rows into in front
// of a consumer that keeps nothing. A pool and not one arena per join: a
// tick's expiry batch can join thousands of rows, and an arena kept by its
// join would pin that high-water mark for good.
var joinArenas = sync.Pool{New: func() any { return new([]data.Value) }}

type joinInput struct {
	j    *Join
	side int // 0 left, 1 right
}

// Schema implements Operator.
func (ji *joinInput) Schema() *data.Schema { return ji.j.in[ji.side] }

// Push implements Operator.
func (ji *joinInput) Push(t data.Tuple) { ji.PushBatch([]data.Tuple{t}) }

// PushBatch implements Operator: the tuples probe and update the table in
// order, and the rows they join to — the same rows in the same order as
// tuple-at-a-time pushes — go downstream as one batch.
func (ji *joinInput) PushBatch(ts []data.Tuple) {
	j := ji.j
	if j.reuse {
		j.arena = joinArenas.Get().(*[]data.Value)
	}
	out := j.batch[:0]
	for _, t := range ts {
		out = j.apply(t, ji.side, out)
	}
	j.batch = dispatch(j.next, out)
	if a := j.arena; a != nil {
		clear(*a) // a pooled arena must not pin the values it held
		*a = (*a)[:0]
		joinArenas.Put(a)
		j.arena = nil
	}
}

// NewJoin builds a symmetric hash join. lCols/rCols name the equi-join
// keys (same length, possibly empty for a pure cross/residual join);
// residual is an optional extra predicate over the concatenated schema.
func NewJoin(next Operator, left, right *data.Schema, lCols, rCols []string, residual expr.Expr) (*Join, error) {
	if len(lCols) != len(rCols) {
		return nil, fmt.Errorf("stream: join key arity mismatch: %v vs %v", lCols, rCols)
	}
	out := left.Concat(right)
	j := &Join{
		next: next, in: [2]*data.Schema{left, right}, out: out,
		index: newKeyIndex(), reuse: keepsNothing(next),
	}
	// Key slices stay non-nil: HashOn(t, nil) means "all columns", but an
	// empty key list means a pure cross/residual join (one record).
	for side, cols := range [2][]string{lCols, rCols} {
		j.keys[side] = make([]int, 0, len(cols))
		for _, c := range cols {
			i, err := j.in[side].ColIndex(c)
			if err != nil {
				return nil, err
			}
			j.keys[side] = append(j.keys[side], i)
		}
	}
	if residual != nil {
		c, err := expr.Bind(residual, out)
		if err != nil {
			return nil, err
		}
		j.residual = c
	}
	if next.Schema().Arity() != out.Arity() {
		return nil, fmt.Errorf("stream: join output arity %d does not match downstream %s",
			out.Arity(), next.Schema())
	}
	j.ins = [2]joinInput{{j: j, side: 0}, {j: j, side: 1}}
	return j, nil
}

// Left returns the operator accepting the left input stream.
func (j *Join) Left() Operator { return &j.ins[0] }

// Right returns the operator accepting the right input stream.
func (j *Join) Right() Operator { return &j.ins[1] }

// OutSchema returns the concatenated output schema.
func (j *Join) OutSchema() *data.Schema { return j.out }

// apply updates t's side of the join and appends the rows t joins to on the
// other side to out.
func (j *Join) apply(t data.Tuple, side int, out []data.Tuple) []data.Tuple {
	r := j.update(t, side)
	if r == nil {
		return out
	}
	for _, m := range r.rows[1-side] {
		l, rt := t, m
		if side == 1 {
			l, rt = m, t
		}
		joined := l.ConcatInto(j.rowBuf(len(l.Vals)+len(rt.Vals)), rt)
		joined.Op = t.Op
		if joined.TS < t.TS {
			joined.TS = t.TS
		}
		if j.residual != nil && !j.residual.EvalBool(joined) {
			continue
		}
		out = append(out, joined)
	}
	return out
}

// update applies t to its side of its key's record: an insert appends it, a
// delete removes the first equal row, shifting the rest down, and a delete of
// a row the side does not hold changes nothing. It returns the record, or
// nil when no row of t's key is left on either side.
func (j *Join) update(t data.Tuple, side int) *joinRec {
	h := j.hasher.HashOn(t, j.keys[side]) & testHashMask
	j.index.reserve()
	i, id := j.index.find(h, func(id int32) bool { return j.sameKey(t, side, id) })
	if id < 0 {
		if t.Op == data.Delete {
			return nil
		}
		if k := len(j.free); k > 0 {
			id, j.free = j.free[k-1], j.free[:k-1]
		} else {
			id = int32(len(j.recs))
			j.recs = append(j.recs, joinRec{})
		}
		j.index.put(i, h, id)
	}
	r := &j.recs[id]
	rows := r.rows[side]
	if t.Op != data.Delete {
		r.rows[side] = append(rows, t)
		return r
	}
	for k := range rows {
		if rows[k].EqualVals(t) {
			copy(rows[k:], rows[k+1:])
			rows[len(rows)-1] = data.Tuple{} // drop the reference for GC
			r.rows[side] = rows[:len(rows)-1]
			if len(rows) == 1 && len(r.rows[1-side]) == 0 {
				j.index.del(i)
				j.free = append(j.free, id)
				return nil
			}
			break
		}
	}
	return r
}

// sameKey reports whether t's key, on its side, is record id's key: the key
// of the record's first row, left or right.
func (j *Join) sameKey(t data.Tuple, side int, id int32) bool {
	r := &j.recs[id]
	o := 0
	if len(r.rows[0]) == 0 {
		o = 1
	}
	return t.EqualOn(j.keys[side], r.rows[o][0], j.keys[o])
}

// rowBuf returns room for one joined row of n values: the next n values of
// the call's arena when there is one, nil (fresh Vals) otherwise.
func (j *Join) rowBuf(n int) []data.Value {
	if j.arena == nil {
		return nil
	}
	a := slices.Grow(*j.arena, n)
	*j.arena = a[:len(a)+n]
	return a[len(a) : len(a) : len(a)+n]
}
