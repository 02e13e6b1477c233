package data

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"aspen/internal/vtime"
)

// orderValues are the values the value order is checked on: the hash-law
// values, a type with no name, NaNs of more payloads and of either sign,
// subnormals and the ends of the normal range, INTs on both sides of ±2^53
// and at int64's ends, negative times, and strings holding '|' and bytes of
// 0x80 and up, that end before, at and past 8 bytes or share their first 8.
func orderValues() []Value {
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
		Str("|"), Str("a|b"), Str("\x80"), Str("\xff|"), Str("é"), Str("L10"), Str("L101"), Str("MR1"),
		Str("a\x00"), Str("abcdefgh"), Str("abcdefgh1"), Str("abcdefgh2"), Str("abcdefgh|"))
	for _, n := range []int{9, 10, 99, 100} {
		vals = append(vals, Str(strings.Repeat("z", n)), Str(strings.Repeat("\x90", n)))
	}
	return vals
}

// checkOrder fails t when CompareRows breaks the value order's contract on
// rows a and b: it is antisymmetric; it ties exactly when the rows'
// canonical keys are equal; and two prefixes that differ order as the rows
// do.
func checkOrder(t *testing.T, a, b []Value) {
	t.Helper()
	c := CompareRows(a, b)
	if r := CompareRows(b, a); cmp.Compare(c, 0) != -cmp.Compare(r, 0) {
		t.Errorf("CompareRows(%v, %v) = %d but CompareRows(%v, %v) = %d", a, b, c, b, a, r)
	}
	if eq := (Tuple{Vals: a}).Key() == (Tuple{Vals: b}).Key(); (c == 0) != eq {
		t.Errorf("CompareRows(%v, %v) = %d, but the keys are equal: %v", a, b, c, eq)
	}
	if pa, pb := SortPrefix(a), SortPrefix(b); pa != pb && cmp.Compare(pa, pb) != cmp.Compare(c, 0) {
		t.Errorf("prefixes of %v and %v order %d, the rows %d", a, b, cmp.Compare(pa, pb), c)
	}
}

// checkValueOrder checks two values as one-value rows (checkOrder), and
// that CompareValues orders values of two classes by class and values that
// Compare orders by Compare's sign.
func checkValueOrder(t *testing.T, x, y Value) {
	t.Helper()
	checkOrder(t, []Value{x}, []Value{y})
	c := CompareValues(x, y)
	if cx, cy := x.T.Class(), y.T.Class(); cx != cy && c != cmp.Compare(cx, cy) {
		t.Errorf("CompareValues(%v, %v) = %d, want the classes' order %d", x, y, c, cmp.Compare(cx, cy))
	}
	if want, ok := x.Compare(y); ok && c != want {
		t.Errorf("CompareValues(%v, %v) = %d, Compare %d", x, y, c, want)
	}
}

// checkTransitive fails t when CompareValues orders x ≤ y ≤ z but not x ≤ z,
// for some three of vals.
func checkTransitive(t *testing.T, vals []Value) {
	t.Helper()
	for _, x := range vals {
		for _, y := range vals {
			if CompareValues(x, y) > 0 {
				continue
			}
			for _, z := range vals {
				if CompareValues(y, z) <= 0 && CompareValues(x, z) > 0 {
					t.Fatalf("%v ≤ %v ≤ %v, but %v > %v", x, y, z, x, z)
				}
			}
		}
	}
}

// The classes rank in the order CompareValues promises: NULL, numbers,
// strings, booleans, times, then values of no known type.
func TestClassRank(t *testing.T) {
	types := []Type{TNull, TInt, TFloat, TString, TBool, TTime, TTime + 1}
	want := []Class{ClassNull, ClassNumber, ClassNumber, ClassString, ClassBool, ClassTime, ClassOther}
	for i, typ := range types {
		if typ.Class() != want[i] {
			t.Errorf("%v has class %d, want %d", typ, typ.Class(), want[i])
		}
	}
	if !slices.IsSorted(want) {
		t.Fatal("the classes are not ranked in their declared order")
	}
}

// The value order holds its contract on every pair and triple of palette
// values and on rows of up to three of them, of unequal arity and sharing
// leading values.
func TestKeyOrderPalette(t *testing.T) {
	vals := orderValues()
	for _, a := range vals {
		for _, b := range vals {
			checkValueOrder(t, a, b)
		}
	}
	checkTransitive(t, vals)
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
		checkOrder(t, a, b)
	}
}

// FuzzKeyOrder decodes two rows of up to four values each; the input's
// first byte gives both arities and how many of the first row's leading
// values the second takes as twins (fuzzInput.twin). It checks the value
// order's contract (checkOrder) on the two rows, on every pair of their
// values (checkValueOrder) and on every triple (checkTransitive).
func FuzzKeyOrder(f *testing.F) {
	// NaN against a NaN twin, 2^53 as an INT against its twin, then a string
	// of 9 bytes holding '|' and 0x80 against a palette value.
	f.Add([]byte{3 + 5*3 + 25*2, 2, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0x20, 0,
		3, 9, 'a', 'b', '|', 0x80, 'c', 'd', 'e', 'f', 'g', 1, 1, 6, 40})
	// -0 against its +0 twin, and -1 as a TIME against MinInt64, in rows
	// of unequal arity.
	f.Add([]byte{2 + 5*3 + 25*1, 2, 0, 0, 0, 0, 0, 0, 0, 0x80, 5, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		1, 5, 0, 0, 0, 0, 0, 0, 0, 0x80, 6, 90})
	// Strings sharing their first 8 bytes, and NULL against a BOOL.
	f.Add([]byte{2 + 5*2 + 25*1, 3, 9, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', '1', 0,
		2, 3, 9, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', '2', 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := orderValues()
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
		checkOrder(t, a, b)
		for _, x := range a {
			for _, y := range b {
				checkValueOrder(t, x, y)
			}
		}
		checkTransitive(t, append(slices.Clone(a), b...))
	})
}

// TestOrderKeyFollowsCompare: two values of one class that both have order
// keys order as CompareValues does, over every pair of palette values and
// seeded draws near ±2^53, ±0, the subnormals, ±Inf and int64's ends; and a
// value has no key exactly when it is NULL, a string, of no known type or
// an INT beyond ±2^53.
func TestOrderKeyFollowsCompare(t *testing.T) {
	vals := orderValues()
	rng := rand.New(rand.NewSource(1))
	floats := []float64{1 << 53, -(1 << 53), 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022, math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1)}
	for i := 0; i < 400; i++ {
		d := int64(rng.Intn(9) - 4)
		f := floats[rng.Intn(len(floats))]
		nan := math.Float64frombits(0x7ff0_0000_0000_0001 | rng.Uint64()&0x800f_ffff_ffff_ffff) // any sign and payload
		ints := []int64{1<<53 + d, -(1 << 53) + d, d, int64(rng.Uint64()), math.MaxInt64 - d*d, math.MinInt64 + d*d}
		vals = append(vals, Int(ints[rng.Intn(len(ints))]), Float(f), Float(nan),
			Float(math.Nextafter(f, float64(d))), Float(f+float64(d)),
			Float(math.SmallestNonzeroFloat64*float64(d)), Float(math.Float64frombits(rng.Uint64())),
			TimeVal(vtime.Time(ints[rng.Intn(len(ints))])), TimeVal(vtime.Time(d)))
	}
	for _, a := range vals {
		ka, okA := OrderKey(a)
		for _, b := range vals {
			kb, okB := OrderKey(b)
			if !okA || !okB || a.T.Class() != b.T.Class() {
				continue
			}
			if want := CompareValues(a, b); cmp.Compare(ka, kb) != want {
				t.Fatalf("OrderKey(%v) = %#x, OrderKey(%v) = %#x: key order %d, CompareValues %d",
					a, ka, b, kb, cmp.Compare(ka, kb), want)
			}
		}
	}
	for _, v := range vals {
		bigInt := v.T == TInt && (v.I > 1<<53 || v.I < -(1<<53))
		want := !bigInt && v.T != TNull && v.T != TString && v.T.Class() != ClassOther
		if _, ok := OrderKey(v); ok != want {
			t.Errorf("OrderKey(%v) has a key: %v, want %v", v, ok, want)
		}
	}
}
