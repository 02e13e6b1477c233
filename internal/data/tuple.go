package data

import (
	"slices"
	"strings"

	"aspen/internal/vtime"
)

// Op is the polarity of a tuple flowing through an engine: a normal insertion
// or a retraction produced by incremental view maintenance.
type Op uint8

// Tuple polarities.
const (
	Insert Op = iota
	Delete
)

// String names the polarity.
func (o Op) String() string {
	if o == Delete {
		return "-"
	}
	return "+"
}

// Tuple is one timestamped row. Vals is positional with respect to the
// owning operator's schema.
type Tuple struct {
	Vals []Value
	TS   vtime.Time
	Op   Op
}

// NewTuple builds an insert tuple at timestamp ts.
func NewTuple(ts vtime.Time, vals ...Value) Tuple {
	return Tuple{Vals: vals, TS: ts}
}

// Clone deep-copies the tuple (the Vals slice is copied).
func (t Tuple) Clone() Tuple {
	vals := make([]Value, len(t.Vals))
	copy(vals, t.Vals)
	return Tuple{Vals: vals, TS: t.TS, Op: t.Op}
}

// Negate returns the tuple with flipped polarity.
func (t Tuple) Negate() Tuple {
	if t.Op == Insert {
		t.Op = Delete
	} else {
		t.Op = Insert
	}
	return t
}

// ConcatInto returns the concatenation of t and o's values, keeping t's
// timestamp if later, else o's (join output carries the max event time).
// The values are written into dst's backing array when its capacity
// suffices, and into one fresh array otherwise (a nil dst always allocates).
// The result aliases dst, so a caller that reuses dst may hand the result
// only to a consumer that keeps nothing of it (stream.Operator's ownership
// rule); a consumer that retains it needs a fresh dst.
func (t Tuple) ConcatInto(dst []Value, o Tuple) Tuple {
	vals := append(slices.Grow(dst[:0], len(t.Vals)+len(o.Vals)), t.Vals...)
	vals = append(vals, o.Vals...)
	ts := t.TS
	if o.TS > ts {
		ts = o.TS
	}
	op := Insert
	if t.Op != o.Op {
		// delta join: (+a)(-b) or (-a)(+b) yields a retraction
		op = Delete
	} else if t.Op == Delete {
		// (-a)(-b) yields an insertion in delta algebra; for the engines here
		// both inputs are never simultaneously deltas of opposite polarity,
		// but the algebra is kept correct regardless.
		op = Insert
	}
	return Tuple{Vals: vals, TS: ts, Op: op}
}

// EqualVals reports positional SQL equality of values (ignores TS and Op).
// Two tuples sharing their Vals, as a window's retraction shares the
// insertion it retracts, are equal without a look at the values. A second
// reader trusts the same identity: a stream join removes its side's oldest
// row, without a hash or a probe, when a retraction shares that row's Vals.
func (t Tuple) EqualVals(o Tuple) bool {
	if len(t.Vals) != len(o.Vals) {
		return false
	}
	if len(t.Vals) == 0 || &t.Vals[0] == &o.Vals[0] {
		return true
	}
	for i := range t.Vals {
		a, b := t.Vals[i], o.Vals[i]
		if a.IsNull() && b.IsNull() {
			continue
		}
		if !a.Equal(b) {
			return false
		}
	}
	return true
}

// EqualOn reports SQL equality between t's values at idx and o's values at
// oIdx (same length), with NULLs comparing equal — exactly the equality the
// canonical key encoding captures. Hash-table users call it to verify
// candidates that share a 64-bit key hash, which mostly find the same key:
// two identical values of a known type are equal without a comparison.
func (t Tuple) EqualOn(idx []int, o Tuple, oIdx []int) bool {
	for i := range idx {
		a, b := t.Vals[idx[i]], o.Vals[oIdx[i]]
		if a == b && a.T <= TTime {
			continue
		}
		if a.IsNull() || b.IsNull() {
			if a.IsNull() != b.IsNull() {
				return false
			}
			continue
		}
		if !a.Equal(b) {
			return false
		}
	}
	return true
}

// Key returns a canonical encoding of all values, usable as a map key for
// set semantics and provenance identity. TS and Op are excluded. Rows that
// CompareRows ties have equal keys, and only they.
func (t Tuple) Key() string {
	return string(t.AppendKey(nil, nil))
}

// KeyOn returns the canonical encoding of the values at idx only.
func (t Tuple) KeyOn(idx []int) string {
	return string(t.AppendKey(nil, idx))
}

// AppendKey appends the canonical encoding of the values at idx (all values
// when idx is nil) to buf: each value's Value.AppendKey encoding and a '|'.
// The keys are for equality and hashing; their byte order is no order of
// the values.
func (t Tuple) AppendKey(buf []byte, idx []int) []byte {
	if idx == nil {
		for i := range t.Vals {
			buf = t.Vals[i].AppendKey(buf)
			buf = append(buf, '|')
		}
		return buf
	}
	for _, j := range idx {
		buf = t.Vals[j].AppendKey(buf)
		buf = append(buf, '|')
	}
	return buf
}

// String renders the tuple for diagnostics.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteString(t.Op.String())
	b.WriteByte('(')
	for i, v := range t.Vals {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteString(")@")
	b.WriteString(t.TS.String())
	return b.String()
}
