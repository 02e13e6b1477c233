package stream

import (
	"fmt"
	"math"
	"slices"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// rowSet is the row multiset behind Materialize and Distinct, keyIndex's
// multiset user. Row i's values sit at vals[i*w:(i+1)*w] in one arena, beside
// a pointer-free record of its first-insert timestamp and multiplicity. A
// retired row's slot is cleared and reused by the next new row, so once the
// arena has grown, inserting copies into it and deleting allocates nothing.
//
// Each call names the columns of the tuple it is handed that make the row:
// on, or all of them when on is nil. A row is found through the index by
// indexHash(t, on) and verified with EqualOn(on, row, ident), and a new row
// copies t's values at on. Both agree with the row the values make, because
// Index(t, on) == Index(project(t, on), nil) and EqualOn compares what
// EqualVals does (data.TestIndexHashFollowsEqualOn): so a row added from a
// whole tuple and one added from its columns are the same row.
type rowSet struct {
	w     int
	vals  []data.Value
	recs  []rowRec
	free  []int32 // retired rows, reused before the arena grows
	index keyIndex
	ident []int // 0, 1, …, w-1: a row's columns, for EqualOn
}

type rowRec struct {
	ts    vtime.Time
	count int // 0 marks a retired row
}

func newRowSet(w int) rowSet {
	ident := make([]int, w)
	for i := range ident {
		ident[i] = i
	}
	return rowSet{w: w, index: newKeyIndex(), ident: ident}
}

func (s *rowSet) row(r int32) []data.Value {
	return s.vals[int(r)*s.w : (int(r)+1)*s.w : (int(r)+1)*s.w]
}

// find returns the slot and index of the row t's values at on make, or the
// empty slot ending its run and -1.
func (s *rowSet) find(t data.Tuple, on []int, h uint64) (int, int32) {
	return s.index.find(h, func(r int32) bool { return t.EqualOn(on, data.Tuple{Vals: s.row(r)}, s.ident) })
}

// len reports the live (distinct) rows.
func (s *rowSet) len() int { return s.index.n }

// add counts n more copies of the row t's values at on make and reports
// whether it was absent.
func (s *rowSet) add(t data.Tuple, on []int, n int) bool {
	if on == nil {
		on = s.ident
	}
	h := indexHash(t, on)
	s.index.reserve()
	i, r := s.find(t, on, h)
	if r >= 0 {
		s.recs[r].count += n
		return false
	}
	if k := len(s.free); k > 0 {
		r, s.free = s.free[k-1], s.free[:k-1]
	} else {
		r = int32(len(s.recs))
		s.vals = append(s.vals, make([]data.Value, s.w)...)
		s.recs = append(s.recs, rowRec{})
	}
	row := s.row(r)
	for k, j := range on {
		row[k] = t.Vals[j]
	}
	s.recs[r] = rowRec{ts: t.TS, count: n}
	s.index.put(i, h, r)
	return true
}

// remove takes one copy of the row t's values at on make away and reports
// whether it was the last; a row not present is ignored.
func (s *rowSet) remove(t data.Tuple, on []int) bool {
	if on == nil {
		on = s.ident
	}
	i, r := s.find(t, on, indexHash(t, on))
	if r < 0 {
		return false
	}
	if s.recs[r].count--; s.recs[r].count > 0 {
		return false
	}
	clear(s.row(r))
	s.recs[r] = rowRec{}
	s.free = append(s.free, r)
	s.index.del(i)
	return true
}

// clone returns a copy of the set that shares no memory with it.
func (s *rowSet) clone() rowSet {
	return rowSet{w: s.w, vals: slices.Clone(s.vals), recs: slices.Clone(s.recs),
		free: slices.Clone(s.free), index: keyIndex{slots: slices.Clone(s.index.slots), n: s.index.n}, ident: s.ident}
}

// state copies the live rows and their counts out for a checkpoint, the rows
// in one backing array.
func (s *rowSet) state() ([]data.Tuple, []int64) {
	vals := make([]data.Value, 0, s.len()*s.w)
	rows, counts := make([]data.Tuple, 0, s.len()), make([]int64, 0, s.len())
	for r, rec := range s.recs {
		if rec.count > 0 {
			vals = append(vals, s.row(int32(r))...)
			rows = append(rows, data.Tuple{Vals: vals[len(vals)-s.w : len(vals) : len(vals)], TS: rec.ts})
			counts = append(counts, int64(rec.count))
		}
	}
	return rows, counts
}

// restore replaces the set with a checkpoint's rows, merging duplicates. A
// row of the wrong arity, with a value of no known type, or with a count
// outside [1, MaxInt32] is an error and leaves the set as it was.
func (s *rowSet) restore(rows []data.Tuple, counts []int64) error {
	if len(rows) != len(counts) {
		return fmt.Errorf("%d tuples, %d counts", len(rows), len(counts))
	}
	fresh := newRowSet(s.w)
	for i, t := range rows {
		if c := counts[i]; c < 1 || c > math.MaxInt32 || len(t.Vals) != s.w || slices.ContainsFunc(t.Vals, unknownType) {
			return fmt.Errorf("row %v ×%d: want %d columns of known types and a count in [1, 2^31)", t, c, s.w)
		}
		fresh.add(t, nil, int(counts[i]))
	}
	*s = fresh
	return nil
}
