package stream

import "math/bits"

// keyIndex is the one hash index behind the package's keyed operator state:
// the row multisets of Materialize and Distinct (rowSet), a Join's key
// records and an aggregate's groups (groupTable). It maps 64-bit hashes to
// record ids in an open-addressed table of (tag, id) slots: Fibonacci home
// slots, linear probing, at most half full, deletion by backward shift.
//
// The index knows nothing of the records. The caller hashes (masking with
// testHashMask), keeps the records in a slice of its own and verifies each
// candidate id with its own equality; find is the one probe loop. Because
// every slot holds its tag, from which its home follows, growing and
// shifting never read a record.
type keyIndex struct {
	slots []keySlot
	n     int // occupied slots
}

// keySlot is 8 bytes. With the full 64-bit hash it would be 16, and a
// result store's index four times the []int32 it replaced: the query-churn
// benchmark's live heap (256 standing queries) grew 9 %.
type keySlot struct {
	tag uint32 // tagOf the record's hash
	id  int32  // record id + 1; 0 marks an empty slot
}

// tagOf is the top 32 bits of h times the Fibonacci multiplier; the top bits
// of the tag are the home slot. Two hashes with one tag are both verified by
// the caller's equality, like two equal hashes.
func tagOf(h uint64) uint32 { return uint32((h * 0x9e3779b97f4a7c15) >> 32) }

func newKeyIndex() keyIndex { return keyIndex{slots: make([]keySlot, 8)} }

func (x *keyIndex) home(tag uint32) int {
	return int(tag >> (32 - bits.TrailingZeros(uint(len(x.slots)))))
}

// find walks h's probe run and returns the slot of the first record with
// h's tag that eq accepts, with its id, or the empty slot ending the run and
// -1. A put into that slot is valid until the next put, del or reserve.
func (x *keyIndex) find(h uint64, eq func(id int32) bool) (int, int32) {
	return x.findTag(tagOf(h), eq)
}

func (x *keyIndex) findTag(tag uint32, eq func(id int32) bool) (int, int32) {
	mask := len(x.slots) - 1
	for i := x.home(tag); ; i = (i + 1) & mask {
		s := x.slots[i]
		if s.id == 0 {
			return i, -1
		}
		if s.tag == tag && eq(s.id-1) {
			return i, s.id - 1
		}
	}
}

// slotOf returns the slot holding record id under hash h, which must be there.
func (x *keyIndex) slotOf(h uint64, id int32) int {
	i, _ := x.find(h, func(c int32) bool { return c == id })
	return i
}

// reserve makes room for one more put: called before the find whose empty
// slot may be filled, it keeps the table at most half full.
func (x *keyIndex) reserve() {
	if 2*(x.n+1) <= len(x.slots) {
		return
	}
	old := x.slots
	x.slots = make([]keySlot, 2*len(old))
	for _, s := range old {
		if s.id != 0 {
			i, _ := x.findTag(s.tag, noRecord)
			x.slots[i] = s
		}
	}
}

// noRecord accepts no candidate, so find returns the empty slot ending a run.
func noRecord(int32) bool { return false }

// put fills the empty slot i, returned by a find since the last reserve.
func (x *keyIndex) put(i int, h uint64, id int32) {
	x.slots[i] = keySlot{tag: tagOf(h), id: id + 1}
	x.n++
}

// del empties slot i and shifts back every entry of the run whose probe path
// crosses the hole.
func (x *keyIndex) del(i int) {
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j].id != 0; j = (j + 1) & mask {
		if (j-x.home(x.slots[j].tag))&mask >= (j-i)&mask {
			x.slots[i], i = x.slots[j], j
		}
	}
	x.slots[i] = keySlot{}
	x.n--
}
