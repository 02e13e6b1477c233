package data

import (
	"cmp"
	"encoding/binary"
	"math"
)

// Class is a value's rank in the one total order on values, CompareValues:
// NULL first, then numbers, strings, booleans and times, and values of no
// known type last. Within a class, Value.Compare orders values.
type Class int8

// The classes, in order.
const (
	ClassNull Class = iota
	ClassNumber
	ClassString
	ClassBool
	ClassTime
	ClassOther
)

// Class returns the class of values of type t.
func (t Type) Class() Class {
	switch t {
	case TNull:
		return ClassNull
	case TInt, TFloat:
		return ClassNumber
	case TString:
		return ClassString
	case TBool:
		return ClassBool
	case TTime:
		return ClassTime
	}
	return ClassOther
}

// CompareValues orders two values totally: by class, then by Value.Compare.
// Two values tie exactly when their canonical keys (AppendKey) are equal: an
// INT and a FLOAT of one value, −0 and 0, any two NaNs, any two NULLs, any
// two values of no known type. ORDER BY, the tie-break of every snapshot and
// the grouped filter's index all order by it.
func CompareValues(a, b Value) int {
	if a.T != b.T {
		if ca, cb := a.T.Class(), b.T.Class(); ca != cb {
			return cmp.Compare(ca, cb)
		}
	}
	c, _ := a.Compare(b)
	return c
}

// CompareRows orders two rows value by value under CompareValues, a row that
// begins the other first. Rows tie exactly when their canonical keys
// (Tuple.Key) are equal.
func CompareRows(a, b []Value) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := CompareValues(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// nanKey is every NaN's order key: one above +Inf's.
const nanKey = 0xfff0_0000_0000_0001

// OrderKey maps v to an integer whose unsigned order is CompareValues's
// among values of v's class, reporting false for a value without one:
// strings, NULL, values of no known type and an INT beyond ±2^53, which
// float64 would round. A number keys through float64 (floatKey); a boolean
// or a time keys its payload with the sign bit flipped, which turns signed
// order into unsigned.
func OrderKey(v Value) (uint64, bool) {
	switch v.T {
	case TInt:
		if v.I < -1<<53 || v.I > 1<<53 {
			return 0, false
		}
		return floatKey(float64(v.I)), true
	case TFloat:
		return floatKey(v.F), true
	case TBool, TTime:
		return uint64(v.I) ^ 1<<63, true
	}
	return 0, false
}

// floatKey is the sortable-bits transform — every bit of a negative
// flipped, the sign bit of a positive set — with −0 keyed as 0 and every NaN
// as nanKey, as Compare orders them.
func floatKey(f float64) uint64 {
	switch {
	case f != f:
		return nanKey
	case f == 0:
		return 1 << 63
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// SortPrefix returns 8 bytes of a row that never contradict CompareRows:
// when SortPrefix(a) < SortPrefix(b), a orders before b (equal prefixes say
// nothing). It is the class of the row's first value in the top 3 bits over
// the top 61 bits of that value's order key — for a string its first 8
// bytes, zero-padded, and for an INT beyond ±2^53 the key of the nearest
// float, since rounding keeps order; 0 for an empty row.
func SortPrefix(row []Value) uint64 {
	if len(row) == 0 {
		return 0
	}
	v := row[0]
	key, ok := OrderKey(v)
	switch {
	case v.T == TString:
		var b [8]byte
		copy(b[:], v.S)
		key = binary.BigEndian.Uint64(b[:])
	case v.T == TInt && !ok:
		key = floatKey(float64(v.I))
	}
	return uint64(v.T.Class())<<61 | key>>3
}
