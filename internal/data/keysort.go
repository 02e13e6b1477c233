package data

import (
	"bytes"
	"slices"
)

// KeyArena holds the canonical keys (Tuple.Key) of a sequence of tuples back
// to back in one buffer, so that ordering by key — the deterministic order
// of every snapshot — builds each key once and compares byte ranges, instead
// of formatting two key strings per comparison. A key is addressed by the
// index Add returned for it. The byte order of two ranges is the string
// order of the two Key() values.
type KeyArena struct {
	buf  []byte
	ends []int // ends[i] is where key i stops; it starts where key i-1 stops
}

// NewKeyArena returns an arena with room for n keys of keyBytes in total;
// both are capacity hints only.
func NewKeyArena(n, keyBytes int) *KeyArena {
	return &KeyArena{buf: make([]byte, 0, keyBytes), ends: make([]int, 0, n)}
}

// Add appends t's canonical key and returns its index.
func (a *KeyArena) Add(t Tuple) int {
	a.buf = t.AppendKey(a.buf, nil)
	a.ends = append(a.ends, len(a.buf))
	return len(a.ends) - 1
}

// Bytes reports the total size of the keys added so far.
func (a *KeyArena) Bytes() int { return len(a.buf) }

func (a *KeyArena) key(i int) []byte {
	start := 0
	if i > 0 {
		start = a.ends[i-1]
	}
	return a.buf[start:a.ends[i]]
}

// Compare orders keys i and j: negative, zero or positive as
// Key(i) < Key(j), ==, >.
func (a *KeyArena) Compare(i, j int) int { return bytes.Compare(a.key(i), a.key(j)) }

// SortByKey sorts ts by canonical key, the order
// sort.Slice(ts, ts[i].Key() < ts[j].Key()) gives.
func SortByKey(ts []Tuple) {
	type keyed struct {
		t Tuple
		k int
	}
	keys := NewKeyArena(len(ts), 0)
	ks := make([]keyed, len(ts))
	for i, t := range ts {
		ks[i] = keyed{t, keys.Add(t)}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return keys.Compare(a.k, b.k) })
	for i := range ks {
		ts[i] = ks[i].t
	}
}
