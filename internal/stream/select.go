package stream

import (
	"cmp"
	"maps"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"aspen/internal/data"
	"aspen/internal/expr"
)

// GroupedFilter is one selection node for many sibling predicates over the
// same stream — the grouped filter of continuous-query engines (NiagaraCQ,
// CACQ). Each member is a predicate and the operator its passing tuples go
// to; the node evaluates all members per tuple with one probe per column
// instead of once per member, and hands each member exactly what a Filter of
// its own would have forwarded, in the same order.
//
// A member whose predicate is a conjunction of column-versus-constant
// comparisons (expr.Atoms) is answered by the index. For every column some
// atom reads, the node keeps the distinct constants sorted by Value.Compare:
// n constants cut the column's values into 2n+1 regions — strictly between
// two neighbours, or equal to one — and each region stores the bitset of
// members whose atoms on the column all hold there (a member with no atom
// on the column is always set). A tuple costs one binary search per column
// and an AND of the bitsets. Any other predicate is evaluated whole, by its
// compiled truth form, inside the same node. The predicate's shape decides.
//
// Constants fall into the classes Compare can order — numbers, strings,
// booleans, times — and each class has its own sorted run; a value of a
// class with no constant on the column, or NULL, reads the column's "none"
// bitset (every atom on it is false there).
//
// Membership is copy-on-write, like Fanout's subscriber list: Add and
// Remove rebuild the index under a lock and publish it atomically, and a
// push dispatches through the index it loaded. The node is stateless:
// nothing it holds outlives a push but scratch.
type GroupedFilter struct {
	mu     sync.Mutex
	schema *data.Schema
	idx    atomic.Pointer[selIndex]

	acc []uint64       // PushBatch scratch: the passing members of one tuple
	out [][]data.Tuple // PushBatch scratch: each member's passing tuples
}

// NewGroupedFilter creates a grouped selection with no members over tuples
// of the schema.
func NewGroupedFilter(schema *data.Schema) *GroupedFilter {
	g := &GroupedFilter{schema: schema}
	g.idx.Store(buildSelIndex(nil))
	return g
}

// Schema implements Operator.
func (g *GroupedFilter) Schema() *data.Schema { return g.schema }

// Add makes next a member: from now on it receives the tuples pred passes.
// pred must be bound to the node's schema.
func (g *GroupedFilter) Add(next Operator, pred *expr.Compiled) {
	m := selMember{next: next, pred: pred}
	m.atoms, _ = expr.Atoms(pred.Source(), g.schema)
	g.mu.Lock()
	defer g.mu.Unlock()
	g.idx.Store(buildSelIndex(append(slices.Clone(g.idx.Load().members), m)))
}

// Remove drops the first membership of next, reporting whether it had one.
// An in-flight push keeps the index it loaded, so next may see one last
// delivery.
func (g *GroupedFilter) Remove(next Operator) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	cur := g.idx.Load().members
	i := slices.IndexFunc(cur, func(m selMember) bool { return m.next == next })
	if i < 0 {
		return false
	}
	g.idx.Store(buildSelIndex(slices.Delete(slices.Clone(cur), i, i+1)))
	return true
}

// Members reports the current number of members.
func (g *GroupedFilter) Members() int { return len(g.idx.Load().members) }

// Push implements Operator.
func (g *GroupedFilter) Push(t data.Tuple) { g.PushBatch([]data.Tuple{t}) }

// PushBatch implements Operator: every tuple is matched once, and
// each member with passing tuples then gets them as one batch, in member
// order.
func (g *GroupedFilter) PushBatch(ts []data.Tuple) {
	x := g.idx.Load()
	if len(g.out) < len(x.members) {
		g.out = append(g.out, make([][]data.Tuple, len(x.members)-len(g.out))...)
	}
	out := g.out
	for _, t := range ts {
		for w, word := range g.match(x, t) {
			for ; word != 0; word &= word - 1 {
				m := w<<6 | bits.TrailingZeros64(word)
				out[m] = append(out[m], t)
			}
		}
	}
	for m := range x.members {
		out[m] = dispatch(x.members[m].next, out[m])
	}
}

// match returns the bitset of members t passes, in the node's scratch.
func (g *GroupedFilter) match(x *selIndex, t data.Tuple) []uint64 {
	if cap(g.acc) < len(x.all) {
		g.acc = make([]uint64, len(x.all))
	}
	acc := g.acc[:len(x.all)]
	copy(acc, x.all)
	for i := range x.cols {
		c := &x.cols[i]
		for w, m := range c.lookup(t.Vals[c.col]) {
			acc[w] &= m
		}
	}
	for _, m := range x.resid {
		if !x.members[m].pred.EvalBool(t) {
			acc[m>>6] &^= 1 << (m & 63)
		}
	}
	return acc
}

// selMember is one member of a GroupedFilter. atoms is nil when the
// predicate is not a conjunction of atoms: the member is then evaluated
// whole.
type selMember struct {
	next  Operator
	pred  *expr.Compiled
	atoms []expr.Atom
}

// selIndex is one immutable membership of a GroupedFilter and its index.
type selIndex struct {
	members []selMember
	all     []uint64 // every member's bit
	cols    []selCol
	resid   []int // members evaluated whole, ascending
}

// selCol indexes one column: a sorted run of constants per value class.
type selCol struct {
	col  int
	runs []selRun
	none []uint64 // NULL, or a class with no constant here
}

// selRun is one class's distinct constants on a column, ascending, and the
// 2n+1 region bitsets: region 2i lies strictly between consts[i-1] and
// consts[i], region 2i+1 equals consts[i].
type selRun struct {
	class  int8
	consts []data.Value
	masks  []uint64 // region r at [r*words, (r+1)*words)
}

// valueClass names the classes of values Compare orders among themselves;
// -1 for NULL and unknown types, which compare with nothing.
func valueClass(t data.Type) int8 {
	switch t {
	case data.TInt, data.TFloat:
		return 0
	case data.TString:
		return 1
	case data.TBool:
		return 2
	case data.TTime:
		return 3
	}
	return -1
}

// lookup returns the bitset of the region v falls in.
func (c *selCol) lookup(v data.Value) []uint64 {
	k, words := valueClass(v.T), len(c.none)
	for i := range c.runs {
		r := &c.runs[i]
		if r.class != k {
			continue
		}
		lo, hi := 0, len(r.consts)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if cmp, _ := r.consts[mid].Compare(v); cmp < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		reg := 2 * lo
		if lo < len(r.consts) {
			if cmp, _ := r.consts[lo].Compare(v); cmp == 0 {
				reg++
			}
		}
		return r.masks[reg*words : (reg+1)*words]
	}
	return c.none
}

// buildSelIndex indexes a membership.
func buildSelIndex(members []selMember) *selIndex {
	words := (len(members) + 63) / 64
	x := &selIndex{members: members, all: make([]uint64, words)}
	onCol := map[int][]int{} // column → members with atoms on it
	for m, mem := range members {
		x.all[m>>6] |= 1 << (m & 63)
		if mem.atoms == nil {
			x.resid = append(x.resid, m)
			continue
		}
		for _, a := range mem.atoms {
			if ms := onCol[a.Col]; len(ms) == 0 || ms[len(ms)-1] != m {
				onCol[a.Col] = append(ms, m)
			}
		}
	}
	for _, col := range slices.Sorted(maps.Keys(onCol)) {
		x.cols = append(x.cols, buildSelCol(members, col, onCol[col], x.all))
	}
	return x
}

// buildSelCol indexes column col, which the atoms of members ms read.
func buildSelCol(members []selMember, col int, ms []int, all []uint64) selCol {
	words := len(all)
	c := selCol{col: col, none: slices.Clone(all)}
	byClass := map[int8][]data.Value{}
	for _, m := range ms {
		c.none[m>>6] &^= 1 << (m & 63)
		for _, a := range members[m].atoms {
			if k := valueClass(a.Const.T); a.Col == col && k >= 0 {
				byClass[k] = append(byClass[k], a.Const)
			}
		}
	}
	for _, k := range slices.Sorted(maps.Keys(byClass)) {
		consts := byClass[k]
		slices.SortFunc(consts, compareValues)
		consts = slices.CompactFunc(consts, func(a, b data.Value) bool { return compareValues(a, b) == 0 })
		r := selRun{class: k, consts: consts, masks: make([]uint64, (2*len(consts)+1)*words)}
		for reg := 0; reg <= 2*len(consts); reg++ {
			mask := r.masks[reg*words : (reg+1)*words]
			copy(mask, c.none)
			for _, m := range ms {
				if r.holdsAll(members[m].atoms, col, reg) {
					mask[m>>6] |= 1 << (m & 63)
				}
			}
		}
		c.runs = append(c.runs, r)
	}
	return c
}

// holdsAll reports whether every atom on col holds for a value in region
// reg of the run. An atom whose constant is of another class never does.
func (r *selRun) holdsAll(atoms []expr.Atom, col, reg int) bool {
	for _, a := range atoms {
		if a.Col != col {
			continue
		}
		if valueClass(a.Const.T) != r.class {
			return false
		}
		// A value in region reg against consts[j]: the region equals
		// consts[reg/2] when odd and lies just below it when even.
		j, _ := slices.BinarySearchFunc(r.consts, a.Const, compareValues)
		c := cmp.Compare(reg/2, j)
		if c == 0 && reg%2 == 0 {
			c = -1
		}
		if !a.Holds(c) {
			return false
		}
	}
	return true
}

// compareValues is Value.Compare for values of one class.
func compareValues(a, b data.Value) int {
	c, _ := a.Compare(b)
	return c
}
