package data

import "math"

// FNV-1a constants.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Hasher computes 64-bit hashes of tuple keys without materializing key
// strings: values are folded into an FNV-1a state through a binary
// canonical encoding that mirrors Value.AppendKey branch for branch (ints
// hash as float bits when exactly representable, strings are
// length-prefixed, every value carries its type tag), so two tuples hash
// identically exactly when their canonical keys are equal. Steady-state
// hashing performs no heap allocation. Distinct keys may collide, so
// hash-table users must keep collision buckets and verify candidates with
// EqualVals / EqualOn.
type Hasher struct{}

// Hash returns the hash of the tuple's full canonical key (all values; TS
// and Op excluded). Tuples with equal Key() hash identically.
func (h *Hasher) Hash(t Tuple) uint64 { return h.HashOn(t, nil) }

// HashOn returns the hash of the canonical key of the values at idx (all
// values when idx is nil). Tuples with equal KeyOn(idx) hash identically.
func (h *Hasher) HashOn(t Tuple, idx []int) uint64 {
	hv := fnvOffset64
	if idx == nil {
		for i := range t.Vals {
			hv = hashValue(hv, t.Vals[i])
		}
		return hv
	}
	for _, j := range idx {
		hv = hashValue(hv, t.Vals[j])
	}
	return hv
}

func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

func fnvWord(h uint64, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime64
		w >>= 8
	}
	return h
}

// hashValue folds one value into the FNV state, following the same
// numeric-coercion branches as Value.AppendKey so that grouping by hash
// agrees with grouping by canonical key.
func hashValue(h uint64, v Value) uint64 {
	switch v.T {
	case TNull:
		return fnvByte(h, 'n')
	case TInt:
		if f := float64(v.I); f < 1<<63 && int64(f) == v.I {
			return fnvWord(fnvByte(h, 'f'), math.Float64bits(f))
		}
		return fnvWord(fnvByte(h, 'i'), uint64(v.I))
	case TFloat:
		f := v.F
		if f != f {
			// All NaNs share one canonical encoding, like AppendKey's "NaN".
			f = math.NaN()
		}
		if i := int64(f); float64(i) == f {
			// Mirror TInt's exact-integer branch (and fold -0 onto +0,
			// since int64(-0.0) == 0 round-trips exactly).
			return fnvWord(fnvByte(h, 'f'), math.Float64bits(float64(i)))
		}
		return fnvWord(fnvByte(h, 'f'), math.Float64bits(f))
	case TString:
		h = fnvWord(fnvByte(h, 's'), uint64(len(v.S)))
		for i := 0; i < len(v.S); i++ {
			h ^= uint64(v.S[i])
			h *= fnvPrime64
		}
		return h
	case TBool:
		if v.I != 0 {
			return fnvByte(h, 'T')
		}
		return fnvByte(h, 'F')
	case TTime:
		return fnvWord(fnvByte(h, 't'), uint64(v.I))
	}
	return fnvByte(h, '?')
}
