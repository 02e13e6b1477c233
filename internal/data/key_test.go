package data

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"aspen/internal/vtime"
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

// Sorting by CompareKeys must give the order sorting by Key() strings
// gives — the order every snapshot and table in the repository was
// recorded in — without building a key.
func TestSortByKeyMatchesKeyStringSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := []Value{Null, Int(0), Int(1), Float(1), Float(-1.5), Int(1 << 40), Int(1<<62 + 1),
		Str(""), Str("a"), Str("a|"), Str("ab"), Bool(true), Bool(false), TimeVal(7)}
	for round := 0; round < 50; round++ {
		ts := make([]Tuple, rng.Intn(200))
		for i := range ts {
			ts[i] = NewTuple(vtime.Time(i), vals[rng.Intn(len(vals))], vals[rng.Intn(len(vals))])
		}
		want := make([]Tuple, len(ts))
		copy(want, ts)
		sort.Slice(want, func(i, j int) bool { return want[i].Key() < want[j].Key() })
		slices.SortFunc(ts, func(a, b Tuple) int { return CompareKeys(a.Vals, b.Vals) })
		for i := range want {
			// Equal keys are value-equal rows; TS tells which copy landed where.
			if ts[i].Key() != want[i].Key() || ts[i].TS != want[i].TS {
				t.Fatalf("round %d: position %d = %v, want %v", round, i, ts[i], want[i])
			}
		}
	}
}

// keyOrderValues are the values the key order is checked on: the hash-law
// values, a type with no name, NaNs of more payloads and of either sign,
// subnormals and the ends of the normal range, INTs on both sides of
// ±2^53, negative times, and strings holding '|' and bytes of 0x80 and up,
// of lengths on both sides of a decimal digit (9/10, 99/100), whose units
// end before, at and past 8 bytes, or share their first 8 bytes.
func keyOrderValues() []Value {
	vals := append(hashLawValues(), Value{T: TTime + 1, I: 7},
		Float(math.Float64frombits(0x7ff8000000000000)), Float(math.Float64frombits(0xfff8000000000000)),
		Float(math.Float64frombits(0x7ff0000000000002)),
		Float(math.Float64frombits(1)), Float(math.Float64frombits(12)), Float(math.Float64frombits(123)),
		Float(-math.Float64frombits(1)), Float(math.Float64frombits(1<<52-1)), Float(-math.Float64frombits(1<<52-1)),
		Float(0x1p-1022), Float(-0x1p-1022), Float(math.MaxFloat64), Float(-math.MaxFloat64),
		Float(0.1), Float(-0.1), Float(-1.5), Float(1e300), Float(-1e-300), Float(0x1p60), Float(1024),
		Int(1<<53-1), Int(-1<<53), Int(-1<<53-1), Int(3), Int(-3), Int(1<<62+1), Int(-1<<62-1),
		Int(math.MinInt64+1), Int(math.MaxInt64-1),
		TimeVal(-1), TimeVal(-36), TimeVal(35), TimeVal(36), TimeVal(math.MaxInt64),
		Str("|"), Str("a|b"), Str("\x80"), Str("\xff|"), Str("é"), Str("L10"), Str("L101"), Str("L1010"), Str("L1011"),
		Str("abcdefgh1"), Str("abcdefgh2"), Str("abcdefgh|"))
	for _, n := range []int{9, 10, 99, 100} {
		vals = append(vals, Str(strings.Repeat("z", n)), Str(strings.Repeat("\x90", n)))
	}
	return vals
}

// checkKeyOrder fails t when CompareKeys(a, b) differs in sign from
// bytes.Compare of the two rows' keys, when a row's KeyPrefix is not the
// first 8 bytes of its first value's unit, zero-padded, or when two
// prefixes that differ order unlike the keys.
func checkKeyOrder(t *testing.T, a, b []Value) {
	t.Helper()
	want := bytes.Compare(Tuple{Vals: a}.AppendKey(nil, nil), Tuple{Vals: b}.AppendKey(nil, nil))
	if got := CompareKeys(a, b); cmp.Compare(got, 0) != want {
		t.Errorf("CompareKeys(%v, %v) = %d, want the sign of their keys' order, %d", a, b, got, want)
	}
	pa, pb := KeyPrefix(a), KeyPrefix(b)
	for _, r := range []struct {
		vals []Value
		pre  uint64
	}{{a, pa}, {b, pb}} {
		var unit [8]byte
		if len(r.vals) > 0 {
			copy(unit[:], append(r.vals[0].AppendKey(nil), '|'))
		}
		if w := binary.BigEndian.Uint64(unit[:]); r.pre != w {
			t.Errorf("KeyPrefix(%v) = %#016x, want %#016x", r.vals, r.pre, w)
		}
	}
	if pa != pb && cmp.Compare(pa, pb) != want {
		t.Errorf("prefixes of %v and %v order %d, their keys %d", a, b, cmp.Compare(pa, pb), want)
	}
}

// CompareKeys and KeyPrefix answer as the keys they stand for, on every
// pair of palette values and on rows of up to three of them, of unequal
// arity and sharing leading values.
func TestKeyOrderPalette(t *testing.T) {
	vals := keyOrderValues()
	for _, a := range vals {
		for _, b := range vals {
			checkKeyOrder(t, []Value{a}, []Value{b})
		}
	}
	rng := rand.New(rand.NewSource(1))
	pick := func() Value { return vals[rng.Intn(len(vals))] }
	for i := 0; i < 20000; i++ {
		a := make([]Value, rng.Intn(4))
		for k := range a {
			a[k] = pick()
		}
		b := make([]Value, rng.Intn(4))
		for k := range b {
			if b[k] = pick(); k < len(a) && rng.Intn(3) > 0 {
				b[k] = a[k]
			}
		}
		checkKeyOrder(t, a, b)
	}
}

// FuzzKeyOrder decodes two rows of up to four values each; the input's
// first byte gives both arities and how many of the first row's leading
// values the second takes as twins (fuzzInput.twin). It checks CompareKeys
// and KeyPrefix against the keys (checkKeyOrder) for the two rows and for
// every pair of their values.
func FuzzKeyOrder(f *testing.F) {
	// NaN against a NaN twin, 2^53 as an INT against its twin, then a string
	// of 9 bytes holding '|' and 0x80 against a palette value.
	f.Add([]byte{3 + 5*3 + 25*2, 2, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0x20, 0,
		3, 9, 'a', 'b', '|', 0x80, 'c', 'd', 'e', 'f', 'g', 1, 1, 6, 40})
	// -0 against its +0 twin, and -1 as a TIME against MinInt64, in rows
	// of unequal arity.
	f.Add([]byte{2 + 5*3 + 25*1, 2, 0, 0, 0, 0, 0, 0, 0, 0x80, 5, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		1, 5, 0, 0, 0, 0, 0, 0, 0, 0x80, 6, 90})
	// Strings sharing their first 8 key bytes, and NULL against a BOOL.
	f.Add([]byte{2 + 5*2 + 25*1, 3, 9, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', '1', 0,
		2, 3, 9, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', '2', 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := keyOrderValues()
		in := fuzzInput(data)
		shape := in.next(1)[0]
		a := make([]Value, shape%5)
		for k := range a {
			a[k] = in.value(vals)
		}
		b := make([]Value, shape/5%5)
		for k := range b {
			if k < len(a) && k < int(shape/25%5) {
				b[k] = in.twin(a[k], vals)
			} else {
				b[k] = in.value(vals)
			}
		}
		checkKeyOrder(t, a, b)
		for _, x := range a {
			for _, y := range b {
				checkKeyOrder(t, []Value{x}, []Value{y})
			}
		}
	})
}
