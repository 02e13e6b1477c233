// Package gobcheck decodes gob streams that arrive from outside the process
// — snapshot files, replica specs and checkpoints sent over a shard link —
// with what the decode may cost tied to the size of the input.
//
// encoding/gob does not bound what it allocates by the bytes it reads. It
// sizes a new map by the entry count written in front of it, before it
// reads a single entry, so a few hostile bytes can claim 2^40 entries and
// have the runtime allocate them. It sizes a slice by its count too (up to
// 10 MB at a time), so a recursive type such as a plan tree whose every
// level claims as many children as there are bytes left allocates the
// square of the input. Nor does it bound how deeply values nest.
//
// Decode first walks the stream the way gob's decoder reads it into the
// destination's type — messages, type definitions, struct fields, fields
// the type lacks (which gob skips), interfaces with their inline type
// definitions — without allocating per value. It adds up what gob would
// allocate for the slices, maps, strings, pointers and interface values it
// meets, and rejects the stream when that passes allocPerByte bytes per
// input byte (plus allocBase), when a map, slice or array claims more
// elements than bytes are left in the stream, or when values nest deeper
// than maxDepth. Only then does gob decode it.
package gobcheck

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
)

// Decode checks b against v's type and, when it passes, gob-decodes its
// first value into v. Interface values must be of types registered with
// Register.
func Decode(b []byte, v any) error {
	if err := check(b, reflect.TypeOf(v)); err != nil {
		return err
	}
	return gob.NewDecoder(bytes.NewReader(b)).Decode(v)
}

// maxDepth is how deeply values may nest, counting each struct, slice,
// array, map and interface level. gob itself stops skipping unknown values
// at 10 000 levels.
const maxDepth = 10_000

// A decode may allocate allocBase bytes plus allocPerByte bytes per input
// byte. A 40-byte value that gob sends as one byte (a zero struct), in a
// slice that grows by doubling, costs 80 bytes per input byte.
const (
	allocBase    = 1 << 20
	allocPerByte = 256
)

// check reports whether the first value of the gob stream b can be decoded
// into a value of type rt without an allocation or a recursion the input's
// size does not pay for. It does not check that the stream's types match
// rt's: gob's decoder does that, before it reads the values it compiled
// for.
func check(b []byte, rt reflect.Type) (err error) {
	w := &walker{stream: b, types: map[int64]*wireType{}, budget: allocBase + allocPerByte*uint64(len(b))}
	defer func() {
		if r := recover(); r != nil {
			bad, ok := r.(badStream)
			if !ok {
				panic(r)
			}
			err = bad.error
		}
	}()
	w.value(w.typeSequence(false), true, 0, rt)
	return nil
}

// badStream carries a check failure out of the walk.
type badStream struct{ error }

func fail(format string, args ...any) {
	panic(badStream{fmt.Errorf("gobcheck: "+format, args...)})
}

// Type ids gob predefines; user types are numbered from firstUserID.
const (
	tBool, tInt, tUint, tFloat, tBytes, tString, tComplex, tInterface = 1, 2, 3, 4, 5, 6, 7, 8
	firstUserID                                                       = 64
)

// kind is what a wire type definition declares.
type kind uint8

const (
	kArray kind = iota + 1
	kSlice
	kStruct
	kMap
	kOpaque // GobEncoder, BinaryMarshaler or TextMarshaler: length-prefixed bytes
)

// wireType is the part of a type definition the walk needs.
type wireType struct {
	kind      kind
	elem, key int64    // array, slice and map element; map key
	len       int64    // array length
	fields    []int64  // struct field type ids, by field number
	names     []string // struct field names, by field number
	// goFields caches fieldTypes per Go struct type.
	goFields map[reflect.Type][]reflect.Type
}

// fieldTypes returns, by field number, the Go type each field of t decodes
// into in the struct type rt — gob matches fields by name — and nil for a
// field rt lacks, which gob skips.
func (t *wireType) fieldTypes(rt reflect.Type) []reflect.Type {
	if rt == nil || rt.Kind() != reflect.Struct {
		return nil
	}
	if ft, ok := t.goFields[rt]; ok {
		return ft
	}
	ft := make([]reflect.Type, len(t.names))
	for i, name := range t.names {
		if sf, ok := rt.FieldByName(name); ok && sf.IsExported() {
			ft[i] = sf.Type
		}
	}
	if t.goFields == nil {
		t.goFields = map[reflect.Type][]reflect.Type{}
	}
	t.goFields[rt] = ft
	return ft
}

// walker reads the stream as gob's Decoder does: buf is the unread rest of
// the current message, stream the messages after it. An interface's value
// may continue in the next message, so every read goes through buf.
type walker struct {
	stream []byte
	buf    []byte
	types  map[int64]*wireType
	budget uint64 // bytes the decode may still allocate
}

// alloc charges n elements of size bytes each against the budget.
func (w *walker) alloc(n uint64, size uintptr) {
	if size > 0 && n > w.budget/uint64(size) {
		fail("decoding would allocate more than %d bytes per input byte", allocPerByte)
	}
	w.budget -= n * uint64(size)
}

// message makes the next message current.
func (w *walker) message() {
	if len(w.stream) == 0 {
		fail("stream ends before its value")
	}
	n, rest := readUint(w.stream)
	if n > uint64(len(rest)) {
		fail("message of %d bytes, %d left", n, len(rest))
	}
	w.buf, w.stream = rest[:n], rest[n:]
}

// readUint reads one of gob's unsigned integers from the front of b.
func readUint(b []byte) (uint64, []byte) {
	if len(b) == 0 {
		fail("unexpected end of message")
	}
	if b[0] <= 0x7f {
		return uint64(b[0]), b[1:]
	}
	n := -int(int8(b[0]))
	if n > 8 || len(b) < 1+n {
		fail("bad unsigned integer")
	}
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, b[1+n:]
}

func (w *walker) uint() uint64 {
	x, rest := readUint(w.buf)
	w.buf = rest
	return x
}

func (w *walker) int() int64 {
	x := w.uint()
	if x&1 != 0 {
		return ^int64(x >> 1)
	}
	return int64(x >> 1)
}

// str reads a length-prefixed byte string.
func (w *walker) str() []byte {
	n := w.uint()
	if n > uint64(len(w.buf)) {
		fail("%d-byte string, %d bytes left", n, len(w.buf))
	}
	s := w.buf[:n]
	w.buf = w.buf[n:]
	return s
}

// skip drops a length-prefixed byte string.
func (w *walker) skip() { w.str() }

// count reads an element count and rejects one the rest of the stream
// cannot hold: every element takes at least one byte. The elements may run
// on into later messages, when a first interface value of a type splits
// the value around the type's definition.
func (w *walker) count(what string) uint64 {
	n := w.uint()
	if left := uint64(len(w.buf) + len(w.stream)); n > left {
		fail("%s of %d elements, %d bytes left", what, n, left)
	}
	return n
}

// typeSequence reads type definitions up to the next value's type id, as
// gob's Decoder.decodeTypeSequence does.
func (w *walker) typeSequence(inInterface bool) int64 {
	for {
		if len(w.buf) == 0 {
			w.message()
		}
		id := w.int()
		if id >= 0 {
			return id
		}
		w.define(-id)
		if len(w.buf) > 0 {
			if !inInterface {
				fail("extra data after a type definition")
			}
			w.uint()
		}
	}
}

// fields walks a struct's field deltas, handing each field number to f;
// the struct ends at a zero delta or at the end of the message.
func (w *walker) fields(n int, f func(field int)) {
	field := -1
	for len(w.buf) > 0 {
		d := w.uint()
		if d == 0 {
			return
		}
		if d > uint64(n-1-field) {
			fail("field delta %d past field %d of %d", d, field, n)
		}
		field += int(d)
		f(field)
	}
}

// define reads the definition of type id: a wireType value, whose fields
// are ArrayT, SliceT, StructT, MapT and three kinds of marshaler.
func (w *walker) define(id int64) {
	if id < firstUserID || w.types[id] != nil {
		fail("type %d defined twice or out of range", id)
	}
	t := &wireType{}
	w.fields(7, func(f int) {
		if t.kind != 0 {
			fail("type %d defined as two kinds", id)
		}
		switch f {
		case 0:
			t.kind = kArray
			w.fields(3, func(g int) {
				switch g {
				case 0:
					w.common()
				case 1:
					t.elem = w.int()
				case 2:
					t.len = w.int()
				}
			})
		case 1:
			t.kind = kSlice
			w.fields(2, func(g int) {
				if g == 0 {
					w.common()
				} else {
					t.elem = w.int()
				}
			})
		case 2:
			t.kind = kStruct
			w.fields(2, func(g int) {
				if g == 0 {
					w.common()
					return
				}
				n := w.count("field list")
				for range n {
					var fid int64
					var name string
					w.fields(2, func(h int) {
						if h == 0 {
							name = string(w.str())
						} else {
							fid = w.int()
						}
					})
					t.fields = append(t.fields, fid)
					t.names = append(t.names, name)
				}
			})
		case 3:
			t.kind = kMap
			w.fields(3, func(g int) {
				switch g {
				case 0:
					w.common()
				case 1:
					t.key = w.int()
				case 2:
					t.elem = w.int()
				}
			})
		default:
			t.kind = kOpaque
			w.fields(1, func(int) { w.common() })
		}
	})
	if t.kind == 0 {
		fail("type %d defined as nothing", id)
	}
	w.types[id] = t
}

// common skips a CommonType: a name and an id.
func (w *walker) common() {
	w.fields(2, func(g int) {
		if g == 0 {
			w.skip()
		} else {
			w.int()
		}
	})
}

// value walks one value of type id into a Go value of type rt, as gob
// decodes it. A nil rt is a value gob skips — a struct field the Go type
// lacks, and everything inside it — and gob skips an interface value by
// its byte count, not by its contents. A top-level value (the stream's, or
// an interface's concrete value) that is not a struct is sent as a
// singleton: a zero field delta, then the value.
func (w *walker) value(id int64, top bool, depth int, rt reflect.Type) {
	if depth > maxDepth {
		fail("values nest deeper than %d", maxDepth)
	}
	for rt != nil && rt.Kind() == reflect.Pointer {
		rt = rt.Elem()
		w.alloc(1, rt.Size())
	}
	t := w.types[id]
	if t == nil && (id < tBool || id > tInterface) {
		fail("value of undefined type %d", id)
	}
	if top && (t == nil || t.kind != kStruct) && w.uint() != 0 {
		fail("singleton with a nonzero field delta")
	}
	switch id {
	case tBool, tInt, tUint, tFloat:
		w.uint()
		return
	case tComplex:
		w.uint()
		w.uint()
		return
	case tBytes, tString:
		w.alloc(uint64(len(w.str())), 1)
		return
	case tInterface:
		w.iface(depth, rt)
		return
	}
	switch t.kind {
	case kStruct:
		ft := t.fieldTypes(rt)
		w.fields(len(t.fields), func(f int) {
			var et reflect.Type
			if ft != nil {
				et = ft[f]
			}
			w.value(t.fields[f], false, depth+1, et)
		})
	case kArray, kSlice:
		n := w.count("slice")
		if t.kind == kArray && int64(n) != t.len {
			fail("array of %d elements, its type has %d", n, t.len)
		}
		var et reflect.Type
		if rt != nil && (rt.Kind() == reflect.Array || rt.Kind() == reflect.Slice) {
			et = rt.Elem()
		}
		if rt != nil && rt.Kind() == reflect.Slice {
			w.alloc(2*n, et.Size()) // a slice that grows doubles
		}
		for range n {
			if len(w.buf) == 0 {
				fail("slice runs past its message")
			}
			w.value(t.elem, false, depth+1, et)
		}
	case kMap:
		n := w.count("map")
		var kt, et reflect.Type
		if rt != nil && rt.Kind() == reflect.Map {
			kt, et = rt.Key(), rt.Elem()
			w.alloc(2*n, kt.Size()+et.Size()+1)
		}
		for range n {
			w.value(t.key, false, depth+1, kt)
			w.value(t.elem, false, depth+1, et)
		}
	case kOpaque:
		w.skip()
	}
}

// iface walks an interface value: the concrete type's name (empty for
// nil), any type definitions it brings, its type id, a byte count, and the
// concrete value. gob decodes the concrete value into the type registered
// under the name, and skips an interface it does not decode by the byte
// count, so the walk does the same.
func (w *walker) iface(depth int, rt reflect.Type) {
	name := w.str()
	if len(name) == 0 {
		return
	}
	if len(name) > 1024 {
		fail("interface type name of %d bytes", len(name))
	}
	id := w.typeSequence(true)
	if rt == nil || rt.Kind() != reflect.Interface {
		w.skip()
		return
	}
	ct, ok := registered.Load(string(name))
	if !ok {
		fail("interface value of unregistered type %q", name)
	}
	w.uint()
	w.alloc(1, ct.(reflect.Type).Size())
	w.value(id, true, depth+1, ct.(reflect.Type))
}

// registered maps the names gob sends for interface values to their types.
var registered sync.Map

// Register registers value's type with gob (gob.Register) and records the
// name gob sends it under, so a walk can follow an interface value into
// its concrete type.
func Register(value any) {
	gob.Register(value)
	rt := reflect.TypeOf(value)
	name := rt.String() // gob's name for an unnamed type, pointers included
	if rt.Name() != "" && rt.PkgPath() != "" {
		name = rt.PkgPath() + "." + rt.Name()
	}
	registered.Store(name, rt)
}
