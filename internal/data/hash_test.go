package data

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"aspen/internal/vtime"
)

// Route's outputs are pinned: shard placement, per-shard state in saved
// snapshots and the fragment partition filters all depend on them, so a
// change to the routing hash is a format change and fails here first.
func TestRouteGolden(t *testing.T) {
	var h Hasher
	for _, c := range []struct {
		name string
		t    Tuple
		idx  []int
		want uint64
	}{
		{"null", NewTuple(0, Null), nil, 0xaf63e34c8601f871},
		{"int 0", NewTuple(0, Int(0)), nil, 0x2c7a83318eb8fff9},
		{"float -0", NewTuple(0, Float(math.Copysign(0, -1))), nil, 0x2c7a83318eb8fff9},
		{"int -7", NewTuple(0, Int(-7)), nil, 0x2c6c2b318eac2d15},
		{"int 2^53+1", NewTuple(0, Int(1<<53+1)), nil, 0x79c58a84d2be8ba5},
		{"int max", NewTuple(0, Int(math.MaxInt64)), nil, 0xcd850774fe99169c},
		{"int min", NewTuple(0, Int(math.MinInt64)), nil, 0x2dc000318fcce400},
		{"float 1.5", NewTuple(0, Float(1.5)), nil, 0x2da57c318fb6eefc},
		{"float NaN", NewTuple(0, Float(math.NaN())), nil, 0x1027ab28860b98ed},
		{"float +Inf", NewTuple(0, Float(math.Inf(1))), nil, 0x2d8abc318fa09404},
		{"str empty", NewTuple(0, Str("")), nil, 0x1d5ed92396394362},
		{"str L101", NewTuple(0, Str("L101")), nil, 0xf38d7f958d6b9bf2},
		{"str 9 bytes", NewTuple(0, Str("abcdefghi")), nil, 0x1d5d8ceab6b8cd66},
		{"bool true", NewTuple(0, Bool(true)), nil, 0xaf64094c86023903},
		{"bool false", NewTuple(0, Bool(false)), nil, 0xaf63fb4c86022139},
		{"time 99", NewTuple(0, TimeVal(99)), nil, 0xbeb3ba55ec4ddac0},
		{"room, desk", NewTuple(0, Str("L101"), Int(3)), nil, 0xc3bfaf700d6d3df4},
		{"ab, c", NewTuple(0, Str("ab"), Str("c")), nil, 0xb1b5b2a0c4c9bf76},
		{"a, bc", NewTuple(0, Str("a"), Str("bc")), nil, 0xbd842b6f4591dcfa},
		{"room, desk of a reading", NewTuple(0, Int(17), Str("L102"), Int(4), Float(21.5)), []int{1, 2}, 0xc544a24a330699eb},
		{"empty key", NewTuple(0, Int(1)), []int{}, 0xcbf29ce484222325},
	} {
		if got := h.Route(c.t, c.idx); got != c.want {
			t.Errorf("%s: Route(%v, %v) = %#016x, want %#016x", c.name, c.t, c.idx, got, c.want)
		}
	}
}

// hashLawValues are the values the hash laws are checked on: numbers at
// the edges of exact conversion (2^53+1 is an INT; as a FLOAT it rounds to
// 2^53), signed zeros, infinities and NaNs of
// several payloads, strings on both sides of the 8-byte word boundary, and
// NULL, bools and times.
func hashLawValues() []Value {
	p53, p63 := float64(1<<53), float64(1<<63)
	vals := []Value{Null, Bool(true), Bool(false), TimeVal(0), TimeVal(99), TimeVal(math.MinInt64),
		Int(0), Int(1), Int(-1), Int(1 << 53), Int(1<<53 + 1), Int(math.MinInt64), Int(math.MaxInt64),
		Float(0), Float(math.Copysign(0, -1)), Float(1), Float(-1), Float(p53), Float(p53 + 1), Float(p53 + 2), Float(-p63), Float(p63),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(1.5),
		Float(math.NaN()), Float(math.Float64frombits(0x7ff0000000000001)),
		Float(math.Float64frombits(0xfff8000000000001)), Float(math.Float64frombits(0x7fffffffffffffff)),
		Str("a"), Str("ab"), Str("c"), Str("bc")}
	for _, n := range []int{0, 7, 8, 9, 16, 17} {
		vals = append(vals, Str(strings.Repeat("x", n)), Str(strings.Repeat("x", max(n-1, 0))+"y"))
	}
	return vals
}

// checkHashLaw fails t when a and b are equal on idx (all columns when idx
// is nil) and a hash tells them apart.
func checkHashLaw(t *testing.T, a, b Tuple, idx []int) {
	t.Helper()
	on := idx
	if on == nil {
		on = make([]int, len(a.Vals))
		for i := range on {
			on[i] = i
		}
	}
	if !a.EqualOn(on, b, on) {
		return
	}
	var h Hasher
	if h.Index(a, idx) != h.Index(b, idx) {
		t.Errorf("idx %v: %v and %v are equal but their index hashes differ", idx, a, b)
	}
	if h.Route(a, idx) != h.Route(b, idx) {
		t.Errorf("idx %v: %v and %v are equal but their routing hashes differ", idx, a, b)
	}
}

// Where EqualOn calls two keys equal, both hashes must be equal, for all
// columns and for subsets; a tuple's values at any column list hash and
// compare as the row they make (checkProjectLaw); and the keys the
// canonical encoding separates on purpose stay apart under the index hash.
func TestIndexHashFollowsEqualOn(t *testing.T) {
	vals := hashLawValues()
	for _, a := range vals {
		for _, b := range vals {
			checkHashLaw(t, NewTuple(0, a), NewTuple(0, b), nil)
		}
	}
	rng := rand.New(rand.NewSource(1))
	pick := func() Value { return vals[rng.Intn(len(vals))] }
	for i := 0; i < 20000; i++ {
		a := NewTuple(0, pick(), pick(), pick())
		b := NewTuple(0, a.Vals[0], pick(), a.Vals[2])
		if rng.Intn(2) == 0 {
			b.Vals[0] = pick()
		}
		for _, idx := range [][]int{nil, {0}, {0, 2}, {2, 0}, {}} {
			checkHashLaw(t, a, b, idx)
		}
	}
	// The values a store keeps of its query's input hash and compare as the
	// row they make, for any column list: repeated, reordered, empty.
	for i := 0; i < 20000; i++ {
		a := NewTuple(0, pick(), pick(), pick())
		for _, idx := range [][]int{{0}, {2, 0}, {1, 1}, {0, 2, 1, 0}, {2, 1, 0}, {}} {
			checkProjectLaw(t, a, idx, project(NewTuple(0, pick(), pick(), pick()), idx))
			row := project(a, idx)
			if len(idx) > 0 && rng.Intn(2) == 0 {
				row.Vals[rng.Intn(len(idx))] = pick()
			}
			checkProjectLaw(t, a, idx, row)
		}
	}
	var h Hasher
	for _, c := range [][2]Tuple{
		{NewTuple(0, Str("ab"), Str("c")), NewTuple(0, Str("a"), Str("bc"))},
		{NewTuple(0, Str("abcdefgh"), Str("")), NewTuple(0, Str(""), Str("abcdefgh"))},
		{NewTuple(0, Str("abcdefg")), NewTuple(0, Str("abcdefg\x00"))},
		{NewTuple(0, Int(1<<53+1)), NewTuple(0, Float(1<<53))},
		{NewTuple(0, Int(math.MaxInt64)), NewTuple(0, Float(1<<63))},
		{NewTuple(0, Null), NewTuple(0, Bool(false))},
		{NewTuple(0, TimeVal(0)), NewTuple(0, Int(0))},
	} {
		if h.Index(c[0], nil) == h.Index(c[1], nil) {
			t.Errorf("%v and %v share an index hash", c[0], c[1])
		}
	}
	// Every step is a bijection of the state, so two walks of one length
	// that differ in one word never collide: each byte of a string must
	// reach its word.
	for n := 1; n <= 17; n++ {
		base := strings.Repeat("a", n)
		for p := 0; p < n; p++ {
			other := base[:p] + "b" + base[p+1:]
			if h.Index(NewTuple(0, Str(base)), nil) == h.Index(NewTuple(0, Str(other)), nil) {
				t.Errorf("%q and %q share an index hash", base, other)
			}
		}
	}
}

// project returns t's values at idx as a tuple of their own.
func project(t Tuple, idx []int) Tuple {
	vals := make([]Value, len(idx))
	for k, j := range idx {
		vals[k] = t.Vals[j]
	}
	return Tuple{Vals: vals, TS: t.TS, Op: t.Op}
}

// checkProjectLaw fails t when a's values at idx hash or compare unlike the
// row they make. A result store that keeps its query's columns files a
// tuple under Index(t, idx) and verifies it with EqualOn(idx, row,
// identity), while a restored row was filed under Index(row, nil): the two
// must find each other. So Index(a, idx) must equal Index(project(a, idx),
// nil), and EqualOn(idx, row, identity) must answer as
// EqualVals(project(a, idx), row).
func checkProjectLaw(t *testing.T, a Tuple, idx []int, row Tuple) {
	t.Helper()
	p := project(a, idx)
	var h Hasher
	if h.Index(a, idx) != h.Index(p, nil) {
		t.Errorf("idx %v of %v: index hash differs from that of the row %v", idx, a, p)
	}
	ident := make([]int, len(idx))
	for i := range ident {
		ident[i] = i
	}
	if on, vals := a.EqualOn(idx, row, ident), p.EqualVals(row); on != vals {
		t.Errorf("idx %v of %v against %v: EqualOn says %t, EqualVals of the row %v says %t", idx, a, row, on, p, vals)
	}
}

// FuzzIndexHash decodes two tuples from the input, the second built from
// the first by steps that keep a value equal (an exact int as a float, a
// NaN of another payload, -0 for 0) or replace it, and checks the hash law
// for all columns and for the subset the input's first byte selects, and
// the projection law (checkProjectLaw) for that subset and for it reversed
// with a column repeated.
func FuzzIndexHash(f *testing.F) {
	f.Add([]byte{0x05, 1, 1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0x80, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0x03, 3, 9, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 0, 6, 30, 1})
	f.Add([]byte{0xff, 2, 0x01, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 7, 0xfe, 1, 6, 12, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := hashLawValues()
		in := fuzzInput(data)
		subset := in.next(1)[0]
		var a, b Tuple
		for i := 0; i < 4 && len(in) > 0; i++ {
			v := in.value(vals)
			a.Vals = append(a.Vals, v)
			b.Vals = append(b.Vals, in.twin(v, vals))
		}
		idx := []int{}
		for i := range a.Vals {
			if subset>>i&1 != 0 {
				idx = append(idx, i)
			}
		}
		checkHashLaw(t, a, b, nil)
		checkHashLaw(t, a, b, idx)
		// The same subset reversed with its first column repeated, as a
		// projection may list columns: b's values there are a row a's may
		// or may not make.
		on := slices.Clone(idx)
		slices.Reverse(on)
		if len(idx) > 0 {
			on = append(on, idx[0])
		}
		checkProjectLaw(t, a, idx, project(b, idx))
		checkProjectLaw(t, a, on, project(b, on))
	})
}

// fuzzInput decodes values from a fuzzer's bytes; once they run out, every
// read is zeros.
type fuzzInput []byte

func (in *fuzzInput) next(n int) []byte {
	b := make([]byte, n)
	*in = (*in)[copy(b, *in):]
	return b
}

// value decodes one value: a kind byte, then its bits, its length and
// bytes, or an index into vals.
func (in *fuzzInput) value(vals []Value) Value {
	k := in.next(1)[0]
	switch k % 7 {
	case 0:
		return Null
	case 1:
		return Int(int64(binary.LittleEndian.Uint64(in.next(8))))
	case 2:
		return Float(math.Float64frombits(binary.LittleEndian.Uint64(in.next(8))))
	case 3:
		return Str(string(in.next(int(in.next(1)[0] % 24))))
	case 4:
		return Bool(k&8 != 0)
	case 5:
		return TimeVal(vtime.Time(binary.LittleEndian.Uint64(in.next(8))))
	}
	return vals[int(in.next(1)[0])%len(vals)]
}

// twin decodes a value to stand beside v: v itself, a value equal to it by
// another route (an exact int as a float, a NaN of another payload, -0 for
// 0), or one decoded afresh.
func (in *fuzzInput) twin(v Value, vals []Value) Value {
	switch in.next(1)[0] % 4 {
	case 0:
		return v
	case 1:
		switch {
		case v.T == TInt && float64(v.I) < 1<<63 && int64(float64(v.I)) == v.I:
			return Float(float64(v.I))
		case v.T == TFloat && v.F != v.F:
			return Float(math.Float64frombits(math.Float64bits(v.F) ^ 1<<63 | 1))
		case v.T == TFloat && v.F == 0:
			return Float(math.Copysign(0, -math.Copysign(1, v.F)))
		case v.T == TFloat && v.F >= -(1<<63) && v.F < 1<<63 && float64(int64(v.F)) == v.F:
			return Int(int64(v.F))
		}
		return v
	case 2:
		return in.value(vals)
	}
	return vals[int(in.next(1)[0])%len(vals)]
}

// BenchmarkHash times both hashes on the benchmark's join key, (room, desk)
// of a reading.
func BenchmarkHash(b *testing.B) {
	reading := NewTuple(0, Int(17), Str("L102"), Int(4), Float(21.5))
	key := []int{1, 2}
	var h Hasher
	b.Run("index", func(b *testing.B) {
		for b.Loop() {
			h.Index(reading, key)
		}
	})
	b.Run("route", func(b *testing.B) {
		for b.Loop() {
			h.Route(reading, key)
		}
	})
}
