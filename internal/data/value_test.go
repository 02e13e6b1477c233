package data

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"aspen/internal/vtime"
)

// TimeVal returns a time value.
func TimeVal(t vtime.Time) Value { return Value{T: TTime, I: int64(t)} }

func TestValueConstructorsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		typ  Type
		i    int64
		f    float64
		b    bool
		s    string
		repr string
	}{
		{Int(42), TInt, 42, 42, true, "42", "42"},
		{Int(0), TInt, 0, 0, false, "0", "0"},
		{Float(2.5), TFloat, 2, 2.5, true, "2.5", "2.5"},
		{Str("hi"), TString, 0, 0, true, "hi", "hi"},
		{Str(""), TString, 0, 0, false, "", ""},
		{Bool(true), TBool, 1, 1, true, "true", "true"},
		{Bool(false), TBool, 0, 0, false, "false", "false"},
		{Null, TNull, 0, 0, false, "NULL", "NULL"},
		{TimeVal(vtime.Second), TTime, int64(vtime.Second), float64(vtime.Second), true, "1s", "1s"},
		{Value{T: TTime + 1, I: 7}, TTime + 1, 0, 0, false, "?", "?"},
	}
	for _, c := range cases {
		if c.v.T != c.typ {
			t.Errorf("%v: type = %v, want %v", c.v, c.v.T, c.typ)
		}
		if got := c.v.AsInt(); got != c.i {
			t.Errorf("%v: AsInt = %d, want %d", c.v, got, c.i)
		}
		if got := c.v.AsFloat(); got != c.f {
			t.Errorf("%v: AsFloat = %g, want %g", c.v, got, c.f)
		}
		if got := c.v.AsBool(); got != c.b {
			t.Errorf("%v: AsBool = %t, want %t", c.v, got, c.b)
		}
		if got := c.v.AsString(); got != c.s {
			t.Errorf("%v: AsString = %q, want %q", c.v, got, c.s)
		}
		if got := c.v.String(); got != c.repr {
			t.Errorf("String = %q, want %q", got, c.repr)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		cmp  int
		ok   bool
	}{
		{Int(1), Int(2), -1, true},
		{Int(2), Int(2), 0, true},
		{Int(3), Int(2), 1, true},
		{Int(1), Float(1.5), -1, true},
		{Float(1.5), Int(1), 1, true},
		{Int(1), Float(1.0), 0, true},
		{Str("a"), Str("b"), -1, true},
		{Str("b"), Str("b"), 0, true},
		{Bool(false), Bool(true), -1, true},
		{TimeVal(1), TimeVal(2), -1, true},
		{Null, Int(1), 0, false},
		{Int(1), Null, 0, false},
		{Null, Null, 0, false},
		{Str("1"), Int(1), 0, false},
		{Bool(true), Int(1), 0, false},
	}
	for _, c := range cases {
		cmp, ok := c.a.Compare(c.b)
		if ok != c.ok || (ok && cmp != c.cmp) {
			t.Errorf("Compare(%v, %v) = %d,%t want %d,%t", c.a, c.b, cmp, ok, c.cmp, c.ok)
		}
	}
}

func TestValueEqualCoercion(t *testing.T) {
	if !Int(3).Equal(Float(3.0)) {
		t.Error("Int(3) should equal Float(3.0)")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Error("Int(3) should not equal Float(3.5)")
	}
	if Null.Equal(Null) {
		t.Error("NULL must not equal NULL")
	}
}

// Property: key encoding respects SQL equality — equal values have equal
// keys, and numerically equal int/float pairs share a key.
func TestValueKeyConsistentWithEqual(t *testing.T) {
	f := func(i int64, g float64, s string) bool {
		if math.IsNaN(g) {
			return true
		}
		vi, vf, vs := Int(i), Float(g), Str(s)
		if vi.Equal(vf) != (vi.Key() == vf.Key()) {
			return false
		}
		if vi.Key() == vs.Key() || vf.Key() == vs.Key() {
			return false
		}
		return vi.Key() == Int(i).Key() && vf.Key() == Float(g).Key() && vs.Key() == Str(s).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric and total on non-null same-type values.
func TestValueCompareAntisymmetric(t *testing.T) {
	gen := func(r *rand.Rand) Value {
		switch r.Intn(4) {
		case 0:
			return Int(r.Int63n(100) - 50)
		case 1:
			return Float(r.Float64()*100 - 50)
		case 2:
			return Str(string(rune('a' + r.Intn(26))))
		default:
			return Bool(r.Intn(2) == 0)
		}
	}
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		a, b := gen(r), gen(r)
		ab, ok1 := a.Compare(b)
		ba, ok2 := b.Compare(a)
		if ok1 != ok2 {
			t.Fatalf("comparability not symmetric: %v vs %v", a, b)
		}
		if ok1 && ab != -ba {
			t.Fatalf("Compare(%v,%v)=%d but Compare(%v,%v)=%d", a, b, ab, b, a, ba)
		}
	}
}

// TestValueCompareExactNumbers holds the numeric order to the laws a sorted
// index needs — antisymmetry, transitivity of both < and =, and equality
// agreeing with the canonical key and the hash — on integers past 2^53,
// where float64 stops being exact, and near the ends of int64, where an
// INT meets a FLOAT that no int64 can hold.
func TestValueCompareExactNumbers(t *testing.T) {
	const p53, p63 = 1 << 53, 1 << 63
	var vals []Value
	for _, i := range []int64{0, 1, -1, p53 - 1, p53, p53 + 1, p53 + 2, p53 + 3, -p53 - 1, -p53, -p53 + 1,
		math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 - 511, math.MaxInt64 - 512, math.MaxInt64 - 1024,
		math.MinInt64, math.MinInt64 + 1, math.MinInt64 + 1024} {
		vals = append(vals, Int(i))
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 0.5, -0.5, p53, p53 + 2, p53 - 0.5, -p53, -p53 - 2,
		p63, -p63, p63 - 1024, -p63 + 1024, math.Nextafter(p63, math.Inf(1)), math.Nextafter(-p63, math.Inf(-1)),
		math.Inf(1), math.Inf(-1), math.NaN()} {
		vals = append(vals, Float(f))
	}
	cmp := func(a, b Value) int {
		c, ok := a.Compare(b)
		if !ok {
			t.Fatalf("%v and %v are incomparable", a, b)
		}
		return c
	}
	var h Hasher
	for _, a := range vals {
		for _, b := range vals {
			ab := cmp(a, b)
			if ba := cmp(b, a); ab != -ba {
				t.Errorf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", a, b, ab, b, a, ba)
			}
			if eq, sameKey := ab == 0, a.Key() == b.Key(); eq != sameKey {
				t.Errorf("%v (%s) vs %v (%s): equal %t, same key %t", a, a.Key(), b, b.Key(), eq, sameKey)
			}
			if ab == 0 && h.Index(NewTuple(0, a), nil) != h.Index(NewTuple(0, b), nil) {
				t.Errorf("%v = %v but they hash apart", a, b)
			}
			for _, c := range vals {
				bc, ac := cmp(b, c), cmp(a, c)
				if ab <= 0 && bc <= 0 && ac > 0 || ab == 0 && bc == 0 && ac != 0 {
					t.Errorf("not transitive: %v vs %v = %d, %v vs %v = %d, %v vs %v = %d", a, b, ab, b, c, bc, a, c, ac)
				}
			}
		}
	}
	if c := cmp(Int(p53+1), Float(p53)); c != 1 {
		t.Errorf("Compare(2^53+1, 2^53.0) = %d, want 1", c)
	}
	if c := cmp(Int(math.MaxInt64), Float(p63)); c != -1 {
		t.Errorf("Compare(MaxInt64, 2^63.0) = %d, want -1", c)
	}
	if c := cmp(Int(math.MinInt64), Float(-p63)); c != 0 {
		t.Errorf("Compare(MinInt64, -2^63.0) = %d, want 0", c)
	}
}

func TestValueKeyDistinctStrings(t *testing.T) {
	// The length-prefixed string encoding must not collide across boundaries.
	a := Tuple{Vals: []Value{Str("ab"), Str("c")}}
	b := Tuple{Vals: []Value{Str("a"), Str("bc")}}
	if a.Key() == b.Key() {
		t.Fatal("tuple keys collide across string boundaries")
	}
}

func TestTypeString(t *testing.T) {
	want := map[Type]string{TNull: "NULL", TInt: "INT", TFloat: "FLOAT", TString: "STRING", TBool: "BOOL", TTime: "TIME"}
	for typ, s := range want {
		if typ.String() != s {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), s)
		}
	}
	if Type(99).String() == "" {
		t.Error("unknown type should still format")
	}
	if !TInt.Numeric() || !TFloat.Numeric() || TString.Numeric() {
		t.Error("Numeric misclassifies")
	}
}

var sinkKey string

func BenchmarkValueKey(b *testing.B) {
	v := Str("machine-state-stream-value")
	for i := 0; i < b.N; i++ {
		sinkKey = v.Key()
	}
}

func TestQuickValueRoundTripVia(t *testing.T) {
	// AsInt/AsFloat coercions agree for integral floats.
	f := func(i int32) bool {
		v := Float(float64(i))
		return v.AsInt() == int64(i) && Int(int64(i)).AsFloat() == float64(i)
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	_ = reflect.TypeOf(f)
}
