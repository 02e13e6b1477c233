package stream

import (
	"math/bits"
	"slices"

	"aspen/internal/data"
)

// keyTable is the package's one keyed-record table: the row multisets of
// Materialize and Distinct (rowSet), a Join's key records and an
// aggregate's groups (groupTable) are its ids, and each operator keeps only
// its payloads, in a slice indexed by id. The table owns the rest:
//
//   - Ids. lookup hands a new key the last retired id before the next new
//     one, and reports it fresh; the operator's retire reset a retired id's
//     payload, and a new id is the length of the operator's payload slice.
//     The table marks no id live or free: a retired id's payload says so
//     (no count, no rows), and checkpoints skip it by that, so a live id
//     costs the table only its key cells and its slot.
//   - Keys. Id's key values sit at keys[id*w:(id+1)*w], written when the id
//     is handed out and cleared when it retires, so a free id pins no
//     string. A rowSet's row is its key.
//   - The index: (tag, id) slots, open addressing with Fibonacci home
//     slots, linear probing, at most half full, deletion by backward shift.
//     A key is filed under indexHash of the tuple's values at the columns
//     a lookup names, and a candidate is verified with EqualOn against the
//     arena, in the table's own memory. Every slot holds its tag, from which
//     its home follows, so growing and shifting never read a key.
//   - The memo: the id the last lookup resolved, −1 for none. recall checks
//     a tuple against it before anything is hashed; only groupTable calls
//     it, because a group's tuples tend to arrive back to back. Retiring
//     the id and a restore forget it.
//
// No id stores its hash. retire deletes at the slot the last lookup found
// when that slot still holds the id, and otherwise rehashes the key from
// the arena, which files where the tuple did: Index(t, on) == Index(key,
// nil), data.TestIndexHashFollowsEqualOn's projection law.
type keyTable struct {
	ident []int // 0, 1, …, w-1: a key's columns in the arena, w its width
	slots []keySlot
	keys  []data.Value // the key arena, w values per id; a free id's are zero
	free  []int32      // retired ids, the last retired on top
	ids   int32        // ids handed out, live or free
	n     int32        // live ids, one slot each
	last  int32        // the memo: the id the last lookup resolved; -1: none
	found int32        // the slot of the last lookup's id or empty slot
}

// keySlot is 8 bytes. With the full 64-bit hash it would be 16, and a
// result store's index four times the []int32 it replaced: the query-churn
// benchmark's live heap (256 standing queries) grew 9 %.
type keySlot struct {
	tag uint32 // tagOf the key's hash
	id  int32  // id + 1; 0 marks an empty slot
}

// tagOf is the top 32 bits of h times the Fibonacci multiplier; the top bits
// of the tag are the home slot. Two hashes with one tag are both verified
// against the arena, like two equal hashes.
func tagOf(h uint64) uint32 { return uint32((h * 0x9e3779b97f4a7c15) >> 32) }

// indexHash is the hash every key is filed under: the index hash of t's
// values at idx (all of them when idx is nil), narrowed by testHashMask. A
// test that picks keys by where they land calls it too.
func indexHash(t data.Tuple, idx []int) uint64 { return data.Hasher{}.Index(t, idx) & testHashMask }

// newKeyTable returns an empty table of keys w values wide.
func newKeyTable(w int) keyTable {
	ident := make([]int, w)
	for i := range ident {
		ident[i] = i
	}
	return keyTable{ident: ident, slots: make([]keySlot, 8), last: -1}
}

// len reports the live ids.
func (x *keyTable) len() int { return int(x.n) }

// key returns id's key values in the arena.
func (x *keyTable) key(id int32) []data.Value {
	w := len(x.ident)
	return x.keys[int(id)*w : (int(id)+1)*w : (int(id)+1)*w]
}

// lookup returns the id of the key t's values at on make (all of t's values
// when on is nil), creating it when create is set, or -1. It reports whether
// the id is new, and makes it the memo.
func (x *keyTable) lookup(t data.Tuple, on []int, create bool) (id int32, fresh bool) {
	if on == nil {
		on = x.ident
	}
	tag := tagOf(indexHash(t, on))
	if create {
		x.reserve()
	}
	i, id := x.find(tag, func(id int32) bool { return t.EqualOn(on, data.Tuple{Vals: x.key(id)}, x.ident) })
	if id < 0 && create {
		id, fresh = x.alloc(), true
		key := x.key(id)
		for k, c := range on {
			key[k] = t.Vals[c]
		}
		x.put(i, tag, id)
	}
	x.found = int32(i)
	x.last = id
	return id, fresh
}

// recall returns the memo when t's values at on make its key, or -1.
func (x *keyTable) recall(t data.Tuple, on []int) int32 {
	if id := x.last; id >= 0 && (data.Tuple{Vals: x.key(id)}).EqualOn(x.ident, t, on) {
		return id
	}
	return -1
}

// alloc hands out the last retired id, or the next one with its arena
// cells.
func (x *keyTable) alloc() int32 {
	if k := len(x.free) - 1; k >= 0 {
		id := x.free[k]
		x.free = x.free[:k]
		return id
	}
	x.keys = append(x.keys, make([]data.Value, len(x.ident))...)
	x.ids++
	return x.ids - 1
}

// retire drops a live id from the index and the memo, clears its key and
// frees it for the next new key.
func (x *keyTable) retire(id int32) {
	i := int(x.found)
	if x.slots[i].id != id+1 {
		i, _ = x.find(tagOf(indexHash(data.Tuple{Vals: x.key(id)}, nil)), func(c int32) bool { return c == id })
	}
	x.del(i)
	clear(x.key(id))
	x.free = append(x.free, id)
	if x.last == id {
		x.forget()
	}
}

// forget clears the memo: retire calls it for the id it frees, and a
// restore once it has looked up every key, so the table names no id it has
// not verified against a tuple in hand.
func (x *keyTable) forget() { x.last = -1 }

// clone returns a copy of the table that shares no mutable memory with it.
func (x *keyTable) clone() keyTable {
	c := *x
	c.slots, c.keys, c.free = slices.Clone(x.slots), slices.Clone(x.keys), slices.Clone(x.free)
	return c
}

func (x *keyTable) home(tag uint32) int {
	return int(tag >> (32 - bits.TrailingZeros(uint(len(x.slots)))))
}

// find walks tag's probe run and returns the slot of the first id with the
// tag that eq accepts, with the id, or the empty slot ending the run and
// -1. A put into that slot is valid until the next put, del or reserve.
func (x *keyTable) find(tag uint32, eq func(id int32) bool) (int, int32) {
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

// reserve makes room for one more put: called before the find whose empty
// slot may be filled, it keeps the table at most half full.
func (x *keyTable) reserve() {
	if 2*int(x.n+1) <= len(x.slots) {
		return
	}
	old := x.slots
	x.slots = make([]keySlot, 2*len(old))
	for _, s := range old {
		if s.id != 0 {
			i, _ := x.find(s.tag, noRecord)
			x.slots[i] = s
		}
	}
}

// noRecord accepts no candidate, so find returns the empty slot ending a run.
func noRecord(int32) bool { return false }

// put fills the empty slot i, returned by a find since the last reserve.
func (x *keyTable) put(i int, tag uint32, id int32) {
	x.slots[i] = keySlot{tag: tag, id: id + 1}
	x.n++
}

// del empties slot i and shifts back every entry of the run whose probe path
// crosses the hole.
func (x *keyTable) del(i int) {
	mask := len(x.slots) - 1
	for j := (i + 1) & mask; x.slots[j].id != 0; j = (j + 1) & mask {
		if (j-x.home(x.slots[j].tag))&mask >= (j-i)&mask {
			x.slots[i], i = x.slots[j], j
		}
	}
	x.slots[i] = keySlot{}
	x.n--
}
