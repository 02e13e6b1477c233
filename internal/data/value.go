// Package data defines the relational data model shared by every ASPEN
// engine: typed values, schemas, and timestamped tuples.
//
// Tuples carry an insert/delete polarity so the same operator pipeline can
// process both base streams and the +/- deltas produced by incremental view
// maintenance (see internal/views).
package data

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"aspen/internal/vtime"
)

// Type enumerates the value types of the StreamSQL type system.
type Type uint8

// Value types.
const (
	TNull Type = iota
	TInt
	TFloat
	TString
	TBool
	TTime
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TNull:
		return "NULL"
	case TInt:
		return "INT"
	case TFloat:
		return "FLOAT"
	case TString:
		return "STRING"
	case TBool:
		return "BOOL"
	case TTime:
		return "TIME"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Numeric reports whether the type participates in arithmetic.
func (t Type) Numeric() bool { return t == TInt || t == TFloat }

// Value is a tagged union holding one StreamSQL value. The zero Value is
// NULL. Values are comparable with == only when both operands were produced
// by the same constructor (no numeric coercion); use Equal or Compare for
// SQL semantics.
type Value struct {
	T Type
	I int64 // TInt payload; TBool as 0/1; TTime as nanoseconds
	F float64
	S string
}

// Null is the SQL NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(i int64) Value { return Value{T: TInt, I: i} }

// Float returns a floating point value.
func Float(f float64) Value { return Value{T: TFloat, F: f} }

// String_ returns a string value. (Named with a trailing underscore because
// Value already has a String method.)
func String_(s string) Value { return Value{T: TString, S: s} }

// Str is shorthand for String_.
func Str(s string) Value { return String_(s) }

// Bool returns a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{T: TBool, I: 1}
	}
	return Value{T: TBool}
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.T == TNull }

// AsInt returns the value as int64, coercing floats by truncation.
func (v Value) AsInt() int64 {
	switch v.T {
	case TInt, TBool, TTime:
		return v.I
	case TFloat:
		return int64(v.F)
	}
	return 0
}

// AsFloat returns the value as float64, coercing integers.
func (v Value) AsFloat() float64 {
	switch v.T {
	case TInt, TBool, TTime:
		return float64(v.I)
	case TFloat:
		return v.F
	}
	return 0
}

// AsBool returns the truth value; NULL is false.
func (v Value) AsBool() bool {
	switch v.T {
	case TBool, TInt, TTime:
		return v.I != 0
	case TFloat:
		return v.F != 0
	case TString:
		return v.S != ""
	}
	return false
}

// AsString returns the string payload for TString and a formatted rendering
// otherwise.
func (v Value) AsString() string {
	if v.T == TString {
		return v.S
	}
	return v.String()
}

// String renders the value for display.
func (v Value) String() string {
	switch v.T {
	case TNull:
		return "NULL"
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TString:
		return v.S
	case TBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case TTime:
		return vtime.Time(v.I).String()
	}
	return "?"
}

// Equal reports SQL equality with numeric coercion. NULL equals nothing,
// including NULL (use IsNull to test for NULL).
func (v Value) Equal(o Value) bool {
	c, ok := v.Compare(o)
	return ok && c == 0
}

// Compare orders two values: -1, 0, +1. The second result is false when the
// values are incomparable (NULL involved, or mixed non-numeric types).
// Numbers compare by exact value — an INT and a FLOAT too, however large —
// so the numeric order is total and equality follows the canonical key.
func (v Value) Compare(o Value) (int, bool) {
	if v.T == TNull || o.T == TNull {
		return 0, false
	}
	if v.T.Numeric() && o.T.Numeric() {
		switch {
		case v.T == TInt && o.T == TInt:
			return cmpInt(v.I, o.I), true
		case v.T == TInt:
			return cmpIntFloat(v.I, o.F), true
		case o.T == TInt:
			return -cmpIntFloat(o.I, v.F), true
		}
		return cmpFloat(v.F, o.F), true
	}
	if v.T != o.T {
		return 0, false
	}
	switch v.T {
	case TString:
		return strings.Compare(v.S, o.S), true
	case TBool, TTime:
		return cmpInt(v.I, o.I), true
	}
	return 0, false
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpFloat orders two floats with -0 equal to 0, and NaN equal to NaN and
// above every number (as in PostgreSQL), so sorting stays a total order.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b || a != a && b == b:
		return 1
	case b != b && a == a:
		return -1
	}
	return 0
}

// cmpIntFloat orders an integer against a float by exact value. Converting i
// to float64 would round once |i| > 2^53 and make distinct integers equal to
// one float; instead f is split into its integer part, compared as an int64,
// and its fraction.
func cmpIntFloat(i int64, f float64) int {
	if -1<<53 <= i && i <= 1<<53 {
		return cmpFloat(float64(i), f) // i converts exactly
	}
	switch {
	case f != f || f >= 1<<63:
		return -1
	case f < -1<<63:
		return 1
	}
	t := math.Trunc(f)
	if c := cmpInt(i, int64(t)); c != 0 {
		return c
	}
	return cmpFloat(t, f)
}

// AppendKey appends a canonical, collision-free encoding of the value to buf,
// for use as a hash/group key. Numerically equal INT and FLOAT values encode
// identically so that grouping follows SQL equality.
func (v Value) AppendKey(buf []byte) []byte {
	switch v.T {
	case TNull:
		return append(buf, 'n')
	case TInt:
		// Encode integral values in a float-compatible way when exact.
		if f, ok := intKeyFloat(v.I); ok {
			buf = append(buf, 'f')
			return strconv.AppendFloat(buf, f, 'b', -1, 64)
		}
		buf = append(buf, 'i')
		return strconv.AppendInt(buf, v.I, 36)
	case TFloat:
		f := v.F
		if f == 0 {
			f = 0 // -0 keys as 0, as it hashes and compares
		}
		buf = append(buf, 'f')
		return strconv.AppendFloat(buf, f, 'b', -1, 64)
	case TString:
		buf = append(buf, 's')
		buf = strconv.AppendInt(buf, int64(len(v.S)), 10)
		buf = append(buf, ':')
		return append(buf, v.S...)
	case TBool:
		if v.I != 0 {
			return append(buf, 'T')
		}
		return append(buf, 'F')
	case TTime:
		buf = append(buf, 't')
		return strconv.AppendInt(buf, v.I, 36)
	}
	return append(buf, '?')
}

// Key returns the canonical key encoding as a string.
func (v Value) Key() string { return string(v.AppendKey(nil)) }

// intKeyFloat reports whether an INT keys as a FLOAT, being exact as one,
// and that float. (A float at 2^63 is out of int64 range, where conversion
// is platform-defined.)
func intKeyFloat(i int64) (float64, bool) {
	f := float64(i)
	return f, f < 1<<63 && int64(f) == i
}
