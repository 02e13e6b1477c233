package stream

import (
	"fmt"
	"math"
	"slices"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// rowSet is the row multiset behind Materialize and Distinct, keyTable's
// multiset user. A row is its key in the table's arena, and its payload is
// a pointer-free record of its first-insert timestamp and multiplicity. A
// retired row's id is reused by the next new row, so once the arena has
// grown, inserting copies into it and deleting allocates nothing.
//
// Each call names the columns of the tuple it is handed that make the row:
// on, or all of them when on is nil. A row added from a whole tuple and one
// added from its columns are the same row (see keyTable).
type rowSet struct {
	recs  []rowRec // by id
	index keyTable
	total int // copies of all rows: the sum of the live counts
}

type rowRec struct {
	ts    vtime.Time
	count int // 0 marks a retired row
}

func newRowSet(w int) rowSet { return rowSet{index: newKeyTable(w)} }

func (s *rowSet) row(r int32) []data.Value { return s.index.key(r) }

// len reports the live (distinct) rows.
func (s *rowSet) len() int { return s.index.len() }

// add counts n more copies of the row t's values at on make and reports
// whether it was absent.
func (s *rowSet) add(t data.Tuple, on []int, n int) bool {
	r, fresh := s.index.lookup(t, on, true)
	s.total += n
	if !fresh {
		s.recs[r].count += n
		return false
	}
	if int(r) == len(s.recs) {
		s.recs = append(s.recs, rowRec{})
	}
	s.recs[r] = rowRec{ts: t.TS, count: n}
	return true
}

// remove takes one copy of the row t's values at on make away and reports
// whether it was the last; a row not present is ignored.
func (s *rowSet) remove(t data.Tuple, on []int) bool {
	r, _ := s.index.lookup(t, on, false)
	if r < 0 {
		return false
	}
	s.total--
	if s.recs[r].count--; s.recs[r].count > 0 {
		return false
	}
	s.index.retire(r)
	return true
}

// clone returns a copy of the set that shares no memory with it.
func (s *rowSet) clone() rowSet {
	return rowSet{recs: slices.Clone(s.recs), index: s.index.clone(), total: s.total}
}

// state copies the live rows and their counts out for a checkpoint, the rows
// in one backing array.
func (s *rowSet) state() ([]data.Tuple, []int64) {
	w := len(s.index.ident)
	vals := make([]data.Value, 0, s.len()*w)
	rows, counts := make([]data.Tuple, 0, s.len()), make([]int64, 0, s.len())
	for r, rec := range s.recs {
		if rec.count > 0 {
			vals = append(vals, s.row(int32(r))...)
			rows = append(rows, data.Tuple{Vals: vals[len(vals)-w : len(vals) : len(vals)], TS: rec.ts})
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
	w := len(s.index.ident)
	fresh := newRowSet(w)
	for i, t := range rows {
		if c := counts[i]; c < 1 || c > math.MaxInt32 || len(t.Vals) != w || slices.ContainsFunc(t.Vals, unknownType) {
			return fmt.Errorf("row %v ×%d: want %d columns of known types and a count in [1, 2^31)", t, c, w)
		}
		fresh.add(t, nil, int(counts[i]))
	}
	*s = fresh
	return nil
}
