package stream

import (
	"fmt"
	"slices"
	"sync"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// Join is a symmetric hash join over two delta streams (Wilschut & Apers).
// Window state arrives as +/- deltas from upstream Window operators; an
// insertion joins the other side's rows of its key and emits joined
// insertions, a deletion emits joined retractions. The result is exactly the
// join of the two windows at every instant.
//
// Both sides share one key-grouped table: a record per join key that either
// side holds rows of, a keyTable id whose payload is that key's left rows
// and right rows in arrival order. A tuple looks its key up at most once; it
// then updates its own side and joins every row of the other side without
// checking again. So keys never mix, the per-tuple path allocates nothing
// once the table has grown, and joined rows come out in arrival order
// within a key.
//
// A retraction finds the row it removes in one of two ways, and removes the
// same row either way: the first row of its key's record, on its side, that
// equals it.
//   - The oldest row. Each side keeps its rows' arrival order (arrivals). A
//     window retracts in arrival order, and its retraction shares the Vals
//     of the insertion the join stored, so when the side's oldest live row
//     shares the retraction's Vals, that row goes without a hash or a probe.
//     It is the row the probe would find: a row sharing the retraction's
//     Vals has its key, so the row's record is its record, and the oldest
//     row of a side is the first row of its record there.
//   - The probe. Any other retraction (an upstream retraction, a row
//     restored from a checkpoint, a value-equal copy) hashes its key, probes,
//     checks the key and removes the first equal row.
//
// A joined row holds every column of the two sides, or only the columns its
// consumer reads (NewJoinCols); the rows the sides hold are the same either
// way.
type Join struct {
	next Operator

	in   [2]*data.Schema // left, right
	out  *data.Schema
	keys [2][]int // equi-join column indexes: left, right
	// cols lists the columns a joined row takes from each side, in order;
	// all: every column of both.
	cols     [2][]int
	all      bool
	residual *expr.Compiled
	index    keyTable
	recs     []joinRec   // by id
	arrived  [2]arrivals // each side's arrival order
	cursor   []int32     // compact's scratch, an entry per record
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
	rows [2][]joinRow
}

// joinRow is a row one side holds. A stored row is always an insertion, so
// in the place of its Op it carries its seq, its place in the side's arrival
// order; it is as large as a data.Tuple.
type joinRow struct {
	vals []data.Value
	ts   vtime.Time
	seq  uint32
}

func (r joinRow) tuple() data.Tuple { return data.Tuple{Vals: r.vals, TS: r.ts} }

// arrivals is one side's arrival order: an entry per row the side took, in
// the order the rows came, naming the row's record and seq. An entry goes
// stale when its row leaves by the probe, and stays stale when its record is
// retired or reused. A record keeps its rows in arrival order too, so the
// first live entry names its record's first row: the front entry is live
// exactly when that row has its seq. The front pops stale entries as it
// meets them, and the queue compacts once it holds more stale entries than
// rows, so it stays O(rows) under any order of deletion. A seq that wraps
// around is harmless: a row leaves by the front only when it shares the
// retraction's Vals.
type arrivals struct {
	q    []arrival // the queue, at q[head:]
	head int
	seq  uint32 // the seq of the side's next row
	rows int    // rows the side holds
}

type arrival struct {
	rec int32
	seq uint32
}

// pop drops the front entry, and the dead prefix once it dominates.
func (a *arrivals) pop() {
	a.head++
	if a.head > 32 && a.head > len(a.q)/2 {
		a.q = a.q[:copy(a.q, a.q[a.head:])]
		a.head = 0
	}
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

// NewJoin builds a symmetric hash join writing every column of both sides.
// lCols/rCols name the equi-join keys (same length, possibly empty for a pure
// cross/residual join); residual is an optional extra predicate over the
// concatenated schema.
func NewJoin(next Operator, left, right *data.Schema, lCols, rCols []string, residual expr.Expr) (*Join, error) {
	return NewJoinCols(next, left, right, lCols, rCols, residual, nil)
}

// NewJoinCols builds a symmetric hash join whose rows hold only the columns
// keep lists: ascending positions in left.Concat(right), which is the
// join's output schema narrowed to them. A nil keep writes every column
// (NewJoin). The residual is bound to that output schema and evaluated on
// the written row, so keep must list the residual's columns.
func NewJoinCols(next Operator, left, right *data.Schema, lCols, rCols []string, residual expr.Expr, keep []int) (*Join, error) {
	if len(lCols) != len(rCols) {
		return nil, fmt.Errorf("stream: join key arity mismatch: %v vs %v", lCols, rCols)
	}
	out := left.Concat(right)
	j := &Join{
		next: next, in: [2]*data.Schema{left, right}, out: out, all: keep == nil,
		index: newKeyTable(len(lCols)), reuse: keepsNothing(next),
	}
	if keep != nil {
		for i, k := range keep {
			if k < 0 || k >= out.Arity() || i > 0 && k <= keep[i-1] {
				return nil, fmt.Errorf("stream: join columns %v are not ascending positions of %s", keep, out)
			}
		}
		nl := left.Arity()
		split, _ := slices.BinarySearch(keep, nl)
		j.cols[0] = slices.Clone(keep[:split])
		for _, k := range keep[split:] {
			j.cols[1] = append(j.cols[1], k-nl)
		}
		out = out.Project(keep)
		j.out = out
	}
	// Key slices stay non-nil: a lookup on nil means "all columns", but an
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
		l, rt := t, m.tuple()
		if side == 1 {
			l, rt = rt, t
		}
		joined := data.Tuple{Vals: j.write(l, rt), TS: max(l.TS, rt.TS), Op: t.Op}
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
	if t.Op == data.Delete {
		if id := j.front(t, side); id >= 0 {
			j.arrived[side].pop()
			return j.remove(side, id, 0)
		}
	}
	id, _ := j.index.lookup(t, j.keys[side], t.Op != data.Delete)
	if id < 0 {
		return nil
	}
	if int(id) == len(j.recs) {
		j.recs = append(j.recs, joinRec{})
	}
	r := &j.recs[id]
	rows := r.rows[side]
	if t.Op != data.Delete {
		a := &j.arrived[side]
		r.rows[side] = append(rows, joinRow{vals: t.Vals, ts: t.TS, seq: a.seq})
		a.q = append(a.q, arrival{rec: id, seq: a.seq})
		a.seq++
		a.rows++
		return r
	}
	for k := range rows {
		if rows[k].tuple().EqualVals(t) {
			return j.remove(side, id, k)
		}
	}
	return r
}

// remove deletes row k of record id's side. It retires the record when that
// empties it and returns nil then, the record otherwise.
func (j *Join) remove(side int, id int32, k int) *joinRec {
	r := &j.recs[id]
	rows := r.rows[side]
	copy(rows[k:], rows[k+1:])
	rows[len(rows)-1] = joinRow{} // drop the reference for GC
	r.rows[side] = rows[:len(rows)-1]
	a := &j.arrived[side]
	if a.rows--; len(a.q)-a.head > 2*a.rows {
		j.compact(side)
	}
	if len(rows) > 1 || len(r.rows[1-side]) > 0 {
		return r
	}
	j.index.retire(id)
	return nil
}

// front returns the record of side's oldest row when that row shares t's
// Vals, or -1, popping the stale entries ahead of the oldest row.
func (j *Join) front(t data.Tuple, side int) int32 {
	a := &j.arrived[side]
	for ; a.head < len(a.q); a.pop() {
		e := a.q[a.head]
		if rows := j.recs[e.rec].rows[side]; len(rows) > 0 && rows[0].seq == e.seq {
			if v := rows[0].vals; len(v) == len(t.Vals) && len(v) > 0 && &v[0] == &t.Vals[0] {
				return e.rec
			}
			return -1
		}
	}
	return -1
}

// compact drops side's stale entries and keeps the live ones in order.
// Entries and each record's rows are both in arrival order, so walking the
// queue, an entry is live exactly when it names the next row of its record
// not yet met.
func (j *Join) compact(side int) {
	a := &j.arrived[side]
	next := append(j.cursor[:0], make([]int32, len(j.recs))...)
	live := a.q[:0]
	for _, e := range a.q[a.head:] {
		if rows, k := j.recs[e.rec].rows[side], next[e.rec]; int(k) < len(rows) && rows[k].seq == e.seq {
			next[e.rec]++
			live = append(live, e)
		}
	}
	a.q, a.head, j.cursor = live, 0, next
}

// write returns the values of the row joining l and r: the kept columns of
// each, in order.
func (j *Join) write(l, r data.Tuple) []data.Value {
	if j.all {
		return append(append(j.rowBuf(len(l.Vals)+len(r.Vals)), l.Vals...), r.Vals...)
	}
	vals := j.rowBuf(len(j.cols[0]) + len(j.cols[1]))
	for _, i := range j.cols[0] {
		vals = append(vals, l.Vals[i])
	}
	for _, i := range j.cols[1] {
		vals = append(vals, r.Vals[i])
	}
	return vals
}

// rowBuf returns empty room for one joined row of n values: the next n
// values of the call's arena when there is one, fresh Vals otherwise.
func (j *Join) rowBuf(n int) []data.Value {
	if j.arena == nil {
		return make([]data.Value, 0, n)
	}
	a := slices.Grow(*j.arena, n)
	*j.arena = a[:len(a)+n]
	return a[len(a) : len(a) : len(a)+n]
}
