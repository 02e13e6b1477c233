package data

import (
	"math"
	"math/bits"
)

// Hasher hashes tuple keys without materializing key strings. Both of its
// hashes fold one canonical walk of the values (fold.value), which mirrors
// Value.AppendKey branch for branch: an int hashes as float bits when it is
// exactly representable, every NaN is one key, -0 folds onto +0, strings
// are length-prefixed and every value carries its type tag. So two keys
// that EqualOn calls equal hash equal under either hash; distinct keys may
// collide, so hash-table users keep collision buckets and verify candidates
// with EqualVals / EqualOn. Steady-state hashing allocates nothing.
//
// The two hashes serve two contracts, and each is named for its own:
//   - Index is the hash of the in-process indexes: a join's key records, an
//     aggregate's groups, a result store's rows, a recursive view's facts
//     and edges. Nothing outside the process sees it, so it may change
//     whenever a faster fold is found. It folds a word at a time.
//   - Route places a key on a shard: the Sharder, and the sensor fragment
//     partition filters that must pick the shard the Sharder would. Per-shard
//     state in saved snapshots was placed by it, and workers and the
//     coordinator must agree on it, so it stays FNV-1a, one byte at a time,
//     until a snapshot records which hash placed its state and restores by
//     re-partitioning.
type Hasher struct{}

// Index returns the index hash of the values at idx (all values when idx is
// nil; TS and Op are excluded). Tuples with equal KeyOn(idx) hash
// identically. It folds the canonical walk one 64-bit word at a time — each
// tag, word, length and 8 string bytes — with one multiply per word, then
// folds the high half, where the products mix best, onto the low.
func (Hasher) Index(t Tuple, idx []int) uint64 {
	h := indexFold.key(t, idx)
	return h ^ h>>32
}

// Route returns the routing hash of the values at idx (all values when idx
// is nil): FNV-1a over the canonical walk, one byte at a time. Its outputs
// are pinned by a golden table; only shard placement may call it.
func (Hasher) Route(t Tuple, idx []int) uint64 { return routeFold.key(t, idx) }

// fold names the hash a canonical walk feeds. Its steps branch on it; the
// branch always goes one way within a hash, so it predicts perfectly.
type fold bool

const (
	indexFold fold = false
	routeFold fold = true
)

// key folds the values at idx (all values when idx is nil) from f's start.
// A value goes by pointer: copying its 40 bytes through the stack for each
// call cost more than the index fold itself.
func (f fold) key(t Tuple, idx []int) uint64 {
	h := indexSeed
	if f == routeFold {
		h = fnvOffset64
	}
	if idx == nil {
		for i := range t.Vals {
			h = f.value(h, &t.Vals[i])
		}
		return h
	}
	for _, j := range idx {
		h = f.value(h, &t.Vals[j])
	}
	return h
}

// value is the canonical walk of one value, folded into h: its tag, then
// its word, or its length and bytes, or nothing.
func (f fold) value(h uint64, v *Value) uint64 {
	var tag byte
	var w uint64
	switch v.T {
	case TNull:
		return f.tag(h, 'n')
	case TInt:
		tag, w = 'i', uint64(v.I)
		if x, ok := intKeyFloat(v.I); ok {
			tag, w = 'f', math.Float64bits(x)
		}
	case TFloat:
		x := v.F
		if x != x {
			// All NaNs share one canonical encoding, like AppendKey's "NaN".
			x = math.NaN()
		}
		if i := int64(x); float64(i) == x {
			// Mirror TInt's exact-integer branch (and fold -0 onto +0,
			// since int64(-0.0) == 0 round-trips exactly).
			x = float64(i)
		}
		tag, w = 'f', math.Float64bits(x)
	case TString:
		h = f.word(f.tag(h, 's'), uint64(len(v.S)))
		s := v.S
		if f == routeFold {
			for i := 0; i < len(s); i++ {
				h ^= uint64(s[i])
				h *= fnvPrime64
			}
			return h
		}
		// 8 bytes a word, little-endian; then the 1 to 7 left, as two
		// overlapping 4-byte halves or as the first, middle and last byte.
		// The length already folded makes every such word unambiguous.
		for ; len(s) >= 8; s = s[8:] {
			h = indexStep(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
				uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
		}
		if n := len(s); n >= 4 {
			h = indexStep(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
				(uint64(s[n-4])|uint64(s[n-3])<<8|uint64(s[n-2])<<16|uint64(s[n-1])<<24)<<32)
		} else if n > 0 {
			h = indexStep(h, uint64(s[0])|uint64(s[n/2])<<8|uint64(s[n-1])<<16)
		}
		return h
	case TBool:
		if v.I != 0 {
			return f.tag(h, 'T')
		}
		return f.tag(h, 'F')
	case TTime:
		tag, w = 't', uint64(v.I)
	default:
		return f.tag(h, '?')
	}
	return f.word(f.tag(h, tag), w)
}

// tag folds a value's type tag: one FNV-1a byte, or one index step.
func (f fold) tag(h uint64, b byte) uint64 {
	if f == routeFold {
		h ^= uint64(b)
		return h * fnvPrime64
	}
	return indexStep(h, uint64(b))
}

// word folds a 64-bit word: eight FNV-1a bytes, or one index step.
func (f fold) word(h, w uint64) uint64 {
	if f == routeFold {
		for i := 0; i < 8; i++ {
			h ^= w & 0xff
			h *= fnvPrime64
			w >>= 8
		}
		return h
	}
	return indexStep(h, w)
}

// indexSeed and indexMul: an arbitrary start, and an odd multiplier (the
// 64-bit golden ratio).
const (
	indexSeed uint64 = 0x243f6a8885a308d3
	indexMul  uint64 = 0x9e3779b97f4a7c15
)

// indexStep folds one word into the index state. For a fixed word it is a
// bijection of the state — a rotation, an xor and a multiply by an odd
// constant — so no word can erase what the state already holds. The
// rotation brings the well-mixed high bits of the last product down to
// where the next multiply spreads them.
func indexStep(h, w uint64) uint64 { return (bits.RotateLeft64(h, 26) ^ w) * indexMul }

// FNV-1a constants.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)
