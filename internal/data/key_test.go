package data

import (
	"math"
	"testing"
)

// Canonical keys must be injection-proof: values containing the tuple
// delimiter or each other's prefixes must not alias across column
// boundaries.
func TestKeyDelimiterInjection(t *testing.T) {
	cases := [][2]Tuple{
		{NewTuple(0, Str("a|"), Str("b")), NewTuple(0, Str("a"), Str("|b"))},
		{NewTuple(0, Str("a"), Str("bc")), NewTuple(0, Str("ab"), Str("c"))},
		{NewTuple(0, Str(""), Str("x")), NewTuple(0, Str("x"), Str(""))},
		{NewTuple(0, Str("s12:"), Str("")), NewTuple(0, Str("s"), Str("12:"))},
		{NewTuple(0, Str("1")), NewTuple(0, Int(1))},
		{NewTuple(0, Str("true")), NewTuple(0, Bool(true))},
	}
	var h Hasher
	for _, c := range cases {
		a, b := c[0], c[1]
		if a.Key() == b.Key() {
			t.Errorf("keys alias: %v vs %v -> %q", a, b, a.Key())
		}
		if a.EqualVals(b) {
			t.Errorf("EqualVals claims %v == %v", a, b)
		}
		// Hash equality is allowed to collide in principle, but these
		// specific non-equal keys must not (they are the collision-safety
		// cases the encoding is designed for).
		if h.Index(a, nil) == h.Index(b, nil) || h.Route(a, nil) == h.Route(b, nil) {
			t.Errorf("hashes alias: %v vs %v", a, b)
		}
	}
}

// Numerically equal INT and FLOAT values must share one key and one hash,
// so grouping follows SQL equality across types.
func TestKeyIntFloatCrossType(t *testing.T) {
	var h Hasher
	pairs := [][2]Value{
		{Int(0), Float(0)},
		{Int(1), Float(1)},
		{Int(-7), Float(-7)},
		{Int(1 << 40), Float(1 << 40)},
	}
	for _, p := range pairs {
		a, b := NewTuple(0, p[0]), NewTuple(0, p[1])
		if a.Key() != b.Key() {
			t.Errorf("keys differ: %v vs %v", p[0], p[1])
		}
		if h.Index(a, nil) != h.Index(b, nil) {
			t.Errorf("hashes differ: %v vs %v", p[0], p[1])
		}
		if !a.EqualVals(b) {
			t.Errorf("EqualVals(%v, %v) = false", p[0], p[1])
		}
	}
	// Non-equal numerics must not alias.
	if h.Index(NewTuple(0, Int(1)), nil) == h.Index(NewTuple(0, Float(1.5)), nil) {
		t.Error("1 and 1.5 hash alike")
	}
}

// Hash equality must follow key equality under both hashes, on mixed
// multi-column tuples, including NULLs, bools, and times, for full keys and
// key subsets.
func TestHashOnFollowsKeyOn(t *testing.T) {
	var h Hasher
	tuples := []Tuple{
		NewTuple(1, Str("L1"), Int(3), Float(20.5), Bool(true)),
		NewTuple(2, Str("L1"), Int(3), Float(20.5), Bool(true)), // same key, other TS
		NewTuple(3, Str("L1"), Float(3), Float(20.5), Bool(true)),
		NewTuple(4, Str("L2"), Int(3), Null, Bool(false)),
		NewTuple(5, Null, Null, Null, Null),
		NewTuple(6, TimeVal(99), Int(0), Str(""), Bool(false)),
	}
	idxSets := [][]int{nil, {0}, {1, 2}, {0, 3}, {}}
	for _, idx := range idxSets {
		for i := range tuples {
			for j := range tuples {
				ki, kj := tuples[i].KeyOn(idx), tuples[j].KeyOn(idx)
				for _, hash := range []func(Tuple, []int) uint64{h.Index, h.Route} {
					hi, hj := hash(tuples[i], idx), hash(tuples[j], idx)
					if (ki == kj) != (hi == hj) {
						t.Errorf("idx %v: key eq %v but hash eq %v for %v vs %v",
							idx, ki == kj, hi == hj, tuples[i], tuples[j])
					}
				}
			}
		}
	}
}

func TestEqualOn(t *testing.T) {
	a := NewTuple(0, Str("L1"), Int(2), Float(2))
	b := NewTuple(9, Int(2), Str("L1"))
	if !a.EqualOn([]int{0, 1}, b, []int{1, 0}) {
		t.Error("cross-position equality failed")
	}
	if !a.EqualOn([]int{1}, a, []int{2}) {
		t.Error("int/float coercion failed in EqualOn")
	}
	if a.EqualOn([]int{0}, b, []int{0}) {
		t.Error("unequal values compared equal")
	}
	// NULLs compare equal under key semantics.
	n1, n2 := NewTuple(0, Null), NewTuple(0, Null)
	if !n1.EqualOn([]int{0}, n2, []int{0}) {
		t.Error("NULL != NULL under key semantics")
	}
	if n1.EqualOn([]int{0}, a, []int{0}) {
		t.Error("NULL == non-NULL")
	}
	// Empty index sets are trivially equal (cross joins, global groups).
	if !a.EqualOn(nil, b, nil) {
		t.Error("empty key not equal")
	}
	// Identical values skip the comparison; the answer must not change:
	// NULLs equal, NaN equals NaN, and a value of no known type equals
	// nothing, itself included.
	vals := append(hashLawValues(), Value{T: TTime + 1, I: 7})
	for _, x := range vals {
		for _, y := range vals {
			want := x.IsNull() && y.IsNull() || x.Equal(y)
			if got := NewTuple(0, x).EqualOn([]int{0}, NewTuple(0, y), []int{0}); got != want {
				t.Errorf("EqualOn(%v, %v) = %v, want %v", x, y, got, want)
			}
		}
	}
}

func TestHashSpecialFloats(t *testing.T) {
	var h Hasher
	// All NaNs share one canonical key ("NaN"), so they must share a hash.
	quiet := math.NaN()
	weird := math.Float64frombits(math.Float64bits(quiet) ^ 1)
	a, b := NewTuple(0, Float(quiet)), NewTuple(0, Float(weird))
	if a.Key() != b.Key() {
		t.Skip("platform NaN formatting differs")
	}
	if h.Index(a, nil) != h.Index(b, nil) {
		t.Error("NaN hashes differ")
	}
	if h.Index(NewTuple(0, Float(math.Inf(1))), nil) == h.Index(NewTuple(0, Float(math.Inf(-1))), nil) {
		t.Error("+Inf and -Inf hash alike")
	}
}

// Equality, the canonical key and the hash agree on the special floats, so a
// hash table verifying candidates with EqualVals holds exactly the rows a
// map keyed by Key() would: -0 is 0, and NaN equals NaN and nothing else
// (sorting above every number).
func TestSpecialFloatsEqualFollowsKey(t *testing.T) {
	var h Hasher
	negZero, nan, inf := Float(math.Copysign(0, -1)), Float(math.NaN()), Float(math.Inf(1))
	cases := []struct {
		a, b Value
		eq   bool
	}{
		{negZero, Float(0), true}, {negZero, Int(0), true}, {nan, nan, true},
		{nan, Float(1), false}, {nan, Int(0), false}, {inf, nan, false}, {negZero, nan, false},
	}
	for _, c := range cases {
		a, b := NewTuple(0, c.a), NewTuple(0, c.b)
		if a.EqualVals(b) != c.eq || (a.Key() == b.Key()) != c.eq || c.eq && h.Index(a, nil) != h.Index(b, nil) {
			t.Errorf("%v vs %v: equal %v, keys %q %q, want equal %v", c.a, c.b, a.EqualVals(b), a.Key(), b.Key(), c.eq)
		}
	}
	if c, ok := nan.Compare(inf); !ok || c != 1 {
		t.Errorf("NaN vs +Inf = %d, %v; want NaN above", c, ok)
	}
	if c, ok := Int(-5).Compare(nan); !ok || c != -1 {
		t.Errorf("-5 vs NaN = %d, %v; want NaN above", c, ok)
	}
}

func TestConcatInto(t *testing.T) {
	a := NewTuple(5, Str("x"), Int(1))
	buf := make([]Value, 0, 8)
	b := NewTuple(9, Float(2.5))
	cc := a.ConcatInto(buf, b)
	if len(cc.Vals) != 3 || cc.TS != 9 {
		t.Fatalf("ConcatInto mismatch: %v", cc)
	}
	if &cc.Vals[0] != &buf[:1][0] {
		t.Error("ConcatInto did not reuse the buffer")
	}
	if got := a.ConcatInto(nil, b); !got.EqualVals(cc) || got.TS != cc.TS || got.Op != cc.Op {
		t.Fatalf("ConcatInto into nil and into a buffer disagree: %v vs %v", got, cc)
	}
}
