package gobcheck

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

type leaf struct {
	A int
	S string
}

type node struct {
	Op   string
	L, R any
}

func init() {
	Register(leaf{})
	Register(node{})
}

type sample struct {
	M   map[int][]byte
	E   map[string]struct{}
	N   any
	Nil any
	T   time.Time
	Arr [3]int8
	C   complex128
	F   []leaf
	P   *leaf
	B   bool
	U   uint
	Fl  float64
}

// lessSample lacks sample's maps and its tree, so gob skips them.
type lessSample struct {
	F  []leaf
	Fl float64
}

func encode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tree nests interfaces in interfaces, so gob sends the inner concrete
// types' definitions inline, inside the outer value.
func tree() any {
	return node{Op: "and", L: node{Op: "<", L: leaf{A: 1, S: "x"}, R: leaf{A: 2}}, R: node{Op: "not", L: leaf{S: "y"}}}
}

func split() []struct{ X any } {
	s := make([]struct{ X any }, 300)
	for i := range s {
		s[i].X = leaf{A: i}
	}
	return s
}

func full() sample {
	return sample{
		M: map[int][]byte{1: []byte("one"), -7: nil}, E: map[string]struct{}{"a": {}, "b": {}},
		N: tree(), T: time.Unix(1_700_000_000, 5).UTC(), Arr: [3]int8{1, -2, 3}, C: complex(1.5, -2),
		F: []leaf{{A: 3}, {S: "z"}}, P: &leaf{A: 9}, B: true, U: 1 << 40, Fl: -0.25,
	}
}

// What gob's encoder writes passes and decodes as gob alone decodes it.
func TestDecodeAcceptsWhatGobWrites(t *testing.T) {
	for _, c := range []struct {
		name string
		v    any
		into func() any
	}{
		{"struct", full(), func() any { return new(sample) }},
		{"slice of structs", []sample{full(), {}, full()}, func() any { return new([]sample) }},
		{"map", map[string]int{"a": 1, "b": 2}, func() any { return new(map[string]int) }},
		{"int", 42, func() any { return new(int) }},
		{"string", "gob", func() any { return new(string) }},
		{"interface tree", &struct{ X any }{tree()}, func() any { return new(struct{ X any }) }},
		// The first element's interface sends leaf's definition as a message
		// of its own, so the slice's 300 elements run on past the message
		// its count is in.
		{"slice split by a type definition", split(), func() any { return new([]struct{ X any }) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := encode(t, c.v)
			got, want := c.into(), c.into()
			if err := Decode(b, got); err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if err := gob.NewDecoder(bytes.NewReader(b)).Decode(want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Decode gave %+v, gob %+v", got, want)
			}
		})
	}
}

// Fields the Go type lacks — maps, an interface — are walked as gob skips
// them, and the stream still passes.
func TestDecodeSkipsFieldsGobSkips(t *testing.T) {
	s := full()
	s.N = leaf{A: 4} // gob can skip an interface only when its value brings no inline type definitions
	var got lessSample
	if err := Decode(encode(t, s), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.F, s.F) || got.Fl != s.Fl {
		t.Fatalf("decoded %+v", got)
	}
}

// Every truncation of a valid stream returns an error or a value, and
// never panics.
func TestTruncationsFail(t *testing.T) {
	b := encode(t, full())
	for n := range len(b) {
		var s sample
		if Decode(b[:n], &s) == nil {
			t.Fatalf("a %d-byte truncation of %d decodes", n, len(b))
		}
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileMap is the encoding of a one-entry map whose entry count is
// rewritten to 2^20, its key shortened to keep the message's length: gob
// alone sizes a map for a million entries before it finds the second
// missing.
func hostileMap(t testing.TB) []byte {
	b := encode(t, struct{ M map[string]int }{map[string]int{"abcdefgh": 1}})
	entry := []byte("\x01\x08abcdefgh")
	i := bytes.Index(b, entry)
	if i < 0 || bytes.Index(b[i+1:], entry) >= 0 {
		t.Fatalf("entry not found once in % x", b)
	}
	return append(append(b[:i:i], "\xfd\x10\x00\x00\x05abcde"...), b[i+len(entry):]...)
}

func TestDecodeRejectsMapCountPastInput(t *testing.T) {
	b := hostileMap(t)
	var err error
	n := allocated(func() {
		var v struct{ M map[string]int }
		err = Decode(b, &v)
	})
	if err == nil || !strings.Contains(err.Error(), "map of 1048576 elements") {
		t.Fatalf("Decode: %v", err)
	}
	if n > 64<<10 {
		t.Fatalf("rejecting a %d-byte stream allocated %d bytes", len(b), n)
	}
}

type chain struct {
	Next *chain
	V    int
}

func deep(n int) *chain {
	var c *chain
	for i := range n {
		c = &chain{Next: c, V: i}
	}
	return c
}

// Values may nest to maxDepth and no further.
func TestDecodeBoundsDepth(t *testing.T) {
	var ok chain
	if err := Decode(encode(t, deep(maxDepth)), &ok); err != nil {
		t.Fatalf("%d levels: %v", maxDepth, err)
	}
	var over chain
	if err := Decode(encode(t, deep(maxDepth+2)), &over); err == nil || !strings.Contains(err.Error(), "nest deeper") {
		t.Fatalf("%d levels: %v", maxDepth+2, err)
	}
}

// An interface value of a type nothing registered fails, as gob fails.
func TestDecodeRejectsUnregisteredInterface(t *testing.T) {
	type other struct{ A int }
	gob.Register(other{})
	var v struct{ X any }
	if err := Decode(encode(t, &struct{ X any }{other{1}}), &v); err == nil || !strings.Contains(err.Error(), "unregistered") {
		t.Fatalf("Decode: %v", err)
	}
}

// wide is a struct of 64 slice fields: 1 536 bytes in memory, and one byte
// on the wire when they are all empty.
var wide = func() reflect.Type {
	fields := make([]reflect.StructField, 64)
	for i := range fields {
		fields[i] = reflect.StructField{Name: fmt.Sprintf("F%d", i), Type: reflect.TypeFor[[]int]()}
	}
	return reflect.StructOf(fields)
}()

// A slice of empty wide structs costs a byte an element on the wire and
// 1 536 bytes in memory: ten pass, a thousand pass the budget.
func TestDecodeBoundsAllocation(t *testing.T) {
	for _, c := range []struct {
		n  int
		ok bool
	}{{10, true}, {1000, false}} {
		b := encode(t, reflect.MakeSlice(reflect.SliceOf(wide), c.n, c.n).Interface())
		err := Decode(b, reflect.New(reflect.SliceOf(wide)).Interface())
		if (err == nil) != c.ok || err != nil && !strings.Contains(err.Error(), "per input byte") {
			t.Fatalf("%d elements in %d bytes: %v", c.n, len(b), err)
		}
	}
}
