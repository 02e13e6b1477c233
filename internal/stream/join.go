package stream

import (
	"fmt"
	"slices"
	"sync"

	"aspen/internal/data"
	"aspen/internal/expr"
)

// Join is a symmetric hash join over two delta streams. Each side maintains
// a hash table of its current contents (window state arrives as +/- deltas
// from upstream Window operators); an insertion probes the opposite table
// and emits joined insertions, a deletion emits joined retractions. The
// result is exactly the join of the two windows at every instant.
//
// Tables are keyed by 64-bit hashes of the canonical join-key encoding
// rather than materialized key strings, so the per-tuple path performs no
// heap allocation; buckets may mix distinct keys on hash collision, and
// every probe hit is verified with EqualOn before emitting.
type Join struct {
	next Operator

	left, right     *data.Schema
	out             *data.Schema
	lKey, rKey      []int // equi-join column indexes
	residual        *expr.Compiled
	lTable          map[uint64][]data.Tuple
	rTable          map[uint64][]data.Tuple
	hasher          data.Hasher
	leftIn, rightIn joinInput
	// batch collects the joined rows of one input call for one downstream
	// dispatch; cleared after it, so it pins no row between calls.
	batch []data.Tuple
	// reuse: next keeps nothing, so the joined rows of one input call are
	// written into arena, taken from joinArenas for the call and returned
	// after the dispatch; nil between calls.
	reuse bool
	arena *[]data.Value
}

// joinArenas recycles the value arenas joins write their rows into in front
// of a consumer that keeps nothing. A pool and not one arena per join: a
// tick's expiry batch can join thousands of rows, and an arena kept by its
// join would pin that high-water mark for good.
var joinArenas = sync.Pool{New: func() any { return new([]data.Value) }}

type joinInput struct {
	j    *Join
	left bool
}

// Schema implements Operator.
func (ji *joinInput) Schema() *data.Schema {
	if ji.left {
		return ji.j.left
	}
	return ji.j.right
}

// Push implements Operator.
func (ji *joinInput) Push(t data.Tuple) {
	batch := [1]data.Tuple{t}
	ji.PushBatch(batch[:])
}

// PushBatch implements BatchOperator: the tuples probe and update the tables
// in order, and the rows they join to — the same rows in the same order as
// tuple-at-a-time pushes — go downstream as one batch.
func (ji *joinInput) PushBatch(ts []data.Tuple) {
	j := ji.j
	if j.reuse {
		j.arena = joinArenas.Get().(*[]data.Value)
	}
	out := j.batch[:0]
	for _, t := range ts {
		out = j.apply(t, ji.left, out)
	}
	j.batch = out[:0]
	if len(out) > 0 {
		PushBatch(j.next, out)
		clear(out)
	}
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
		next: next, left: left, right: right, out: out,
		lTable: map[uint64][]data.Tuple{}, rTable: map[uint64][]data.Tuple{},
		reuse: keepsNothing(next),
	}
	// Key slices stay non-nil: HashOn(t, nil) means "all columns", but an
	// empty key list means a pure cross/residual join (single bucket).
	j.lKey = make([]int, 0, len(lCols))
	j.rKey = make([]int, 0, len(rCols))
	for _, c := range lCols {
		i, err := left.ColIndex(c)
		if err != nil {
			return nil, err
		}
		j.lKey = append(j.lKey, i)
	}
	for _, c := range rCols {
		i, err := right.ColIndex(c)
		if err != nil {
			return nil, err
		}
		j.rKey = append(j.rKey, i)
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
	j.leftIn = joinInput{j: j, left: true}
	j.rightIn = joinInput{j: j, left: false}
	return j, nil
}

// Left returns the operator accepting the left input stream.
func (j *Join) Left() Operator { return &j.leftIn }

// Right returns the operator accepting the right input stream.
func (j *Join) Right() Operator { return &j.rightIn }

// OutSchema returns the concatenated output schema.
func (j *Join) OutSchema() *data.Schema { return j.out }

// apply updates t's side of the join and appends the rows t joins to on the
// other side to out.
func (j *Join) apply(t data.Tuple, fromLeft bool, out []data.Tuple) []data.Tuple {
	var mine, other map[uint64][]data.Tuple
	var myKey, otherKey []int
	if fromLeft {
		mine, other, myKey, otherKey = j.lTable, j.rTable, j.lKey, j.rKey
	} else {
		mine, other, myKey, otherKey = j.rTable, j.lTable, j.rKey, j.lKey
	}
	key := j.hasher.HashOn(t, myKey) & testHashMask

	switch t.Op {
	case data.Insert:
		mine[key] = append(mine[key], t)
	case data.Delete:
		bucket := mine[key]
		for i, b := range bucket {
			if b.EqualVals(t) {
				copy(bucket[i:], bucket[i+1:])
				bucket[len(bucket)-1] = data.Tuple{} // drop the reference for GC
				if len(bucket) == 1 {
					delete(mine, key)
				} else {
					mine[key] = bucket[:len(bucket)-1]
				}
				break
			}
		}
	}

	for _, m := range other[key] {
		if !t.EqualOn(myKey, m, otherKey) {
			continue // hash collision, not a join partner
		}
		l, r := t, m
		if !fromLeft {
			l, r = m, t
		}
		joined := l.ConcatInto(j.rowBuf(len(l.Vals)+len(r.Vals)), r)
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

// SizeLeft and SizeRight report table populations for plan displays.
func (j *Join) SizeLeft() int { return tableSize(j.lTable) }

// SizeRight reports the right table population.
func (j *Join) SizeRight() int { return tableSize(j.rTable) }

func tableSize(m map[uint64][]data.Tuple) int {
	n := 0
	for _, b := range m {
		n += len(b)
	}
	return n
}
