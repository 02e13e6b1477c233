package stream

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// rowSet is the row multiset behind Materialize and Distinct. Row i's values
// sit at vals[i*w:(i+1)*w] in one arena, beside a pointer-free record of its
// hash, first-insert timestamp and multiplicity. Rows are found through an
// open-addressed table of row indexes (linear probing, backward-shift
// deletion) keyed by the full data.Hasher hash and verified with EqualVals.
// A retired row's slot is cleared and reused by the next new row, so once the
// arena has grown, inserting copies into it and deleting allocates nothing.
type rowSet struct {
	w      int
	vals   []data.Value
	recs   []rowRec
	free   []int32 // retired rows, reused before the arena grows
	table  []int32 // row index + 1 per slot; 0 is an empty slot
	n      int     // live (distinct) rows
	hasher data.Hasher
}

type rowRec struct {
	hash  uint64
	ts    vtime.Time
	count int // 0 marks a retired row
}

func newRowSet(w int) rowSet { return rowSet{w: w, table: make([]int32, 8)} }

func (s *rowSet) row(r int32) []data.Value {
	return s.vals[int(r)*s.w : (int(r)+1)*s.w : (int(r)+1)*s.w]
}

func (s *rowSet) home(h uint64) int {
	return int((h * 0x9e3779b97f4a7c15) >> (64 - bits.TrailingZeros(uint(len(s.table)))))
}

// probe returns the slot holding t's row, or the empty slot ending its run.
func (s *rowSet) probe(t data.Tuple, h uint64) int {
	mask := len(s.table) - 1
	for i := s.home(h); ; i = (i + 1) & mask {
		r := s.table[i]
		if r == 0 || s.recs[r-1].hash == h && t.EqualVals(data.Tuple{Vals: s.row(r - 1)}) {
			return i
		}
	}
}

// add counts n more copies of t's row and reports whether it was absent.
func (s *rowSet) add(t data.Tuple, n int) bool {
	h := s.hasher.Hash(t) & testHashMask
	if 2*(s.n+1) > len(s.table) {
		s.grow()
	}
	i := s.probe(t, h)
	if r := s.table[i]; r != 0 {
		s.recs[r-1].count += n
		return false
	}
	var r int32
	if k := len(s.free); k > 0 {
		r, s.free = s.free[k-1], s.free[:k-1]
		copy(s.row(r), t.Vals)
	} else {
		r = int32(len(s.recs))
		s.vals = append(s.vals, t.Vals...)
		s.recs = append(s.recs, rowRec{})
	}
	s.recs[r] = rowRec{hash: h, ts: t.TS, count: n}
	s.table[i] = r + 1
	s.n++
	return true
}

// remove takes one copy of t's row away and reports whether it was the last;
// a row not present is ignored.
func (s *rowSet) remove(t data.Tuple) bool {
	i := s.probe(t, s.hasher.Hash(t)&testHashMask)
	r := s.table[i] - 1
	if r < 0 {
		return false
	}
	if s.recs[r].count--; s.recs[r].count > 0 {
		return false
	}
	clear(s.row(r))
	s.recs[r] = rowRec{}
	s.free = append(s.free, r)
	s.n--
	// Shift back every entry of the run whose probe path crosses the hole.
	mask := len(s.table) - 1
	for j := (i + 1) & mask; s.table[j] != 0; j = (j + 1) & mask {
		if (j-s.home(s.recs[s.table[j]-1].hash))&mask >= (j-i)&mask {
			s.table[i], i = s.table[j], j
		}
	}
	s.table[i] = 0
	return true
}

// grow doubles the table (at most half full) and re-slots the live rows.
func (s *rowSet) grow() {
	s.table = make([]int32, 2*len(s.table))
	mask := len(s.table) - 1
	for r, rec := range s.recs {
		if rec.count > 0 {
			i := s.home(rec.hash)
			for s.table[i] != 0 {
				i = (i + 1) & mask
			}
			s.table[i] = int32(r) + 1
		}
	}
}

// clone returns a copy of the set that shares no memory with it.
func (s *rowSet) clone() rowSet {
	return rowSet{w: s.w, vals: slices.Clone(s.vals), recs: slices.Clone(s.recs),
		free: slices.Clone(s.free), table: slices.Clone(s.table), n: s.n}
}

// state copies the live rows and their counts out for a checkpoint, the rows
// in one backing array.
func (s *rowSet) state() ([]data.Tuple, []int64) {
	vals := make([]data.Value, 0, s.n*s.w)
	rows, counts := make([]data.Tuple, 0, s.n), make([]int64, 0, s.n)
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
		unknown := func(v data.Value) bool { return v.T > data.TTime }
		if c := counts[i]; c < 1 || c > math.MaxInt32 || len(t.Vals) != s.w || slices.ContainsFunc(t.Vals, unknown) {
			return fmt.Errorf("row %v ×%d: want %d columns of known types and a count in [1, 2^31)", t, c, s.w)
		}
		fresh.add(t, int(counts[i]))
	}
	*s = fresh
	return nil
}
