package data

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"strings"
)

// CompareKeys orders two rows by their canonical keys without building
// them: its sign is that of bytes.Compare over the two rows' AppendKey
// encodings, every value's unit (its encoding and its '|') in turn. Each
// unit is a prefix-free code, so the keys differ where the first pair of
// unequal units does, and a row whose units all begin the other's sorts
// first. Every snapshot and table in the repository is in this order.
func CompareKeys(a, b []Value) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := compareKey(&a[i], &b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// KeyPrefix returns the first 8 bytes of the unit of vals[0] (its AppendKey
// encoding and its '|'), big-endian and zero-padded; 0 for no values. Two
// rows whose prefixes differ order as the prefixes do under CompareKeys: no
// unit begins another, so the first byte where two prefixes differ lies
// inside both units.
func KeyPrefix(vals []Value) uint64 {
	var b [8]byte
	switch {
	case len(vals) == 0:
		return 0
	case vals[0].T == TString:
		s := vals[0].S
		d := decDigits(uint64(len(s)))
		b[0] = 's'
		for l, k := uint64(len(s)), d; k > 0; l, k = l/10, k-1 {
			if k < len(b) {
				b[k] = byte('0' + l%10)
			}
		}
		n := 1 + d
		if n < len(b) {
			b[n] = ':'
		}
		n++
		n += copy(b[min(n, len(b)):], s)
		if n < len(b) {
			b[n] = '|'
		}
	default:
		var buf [40]byte
		copy(b[:], append(vals[0].AppendKey(buf[:0]), '|'))
	}
	return binary.BigEndian.Uint64(b[:])
}

// keyTag is the first byte of a value's unit.
func keyTag(v *Value) byte {
	switch v.T {
	case TNull:
		return 'n'
	case TInt:
		if _, ok := intKeyFloat(v.I); ok {
			return 'f'
		}
		return 'i'
	case TFloat:
		return 'f'
	case TString:
		return 's'
	case TBool:
		if v.I != 0 {
			return 'T'
		}
		return 'F'
	case TTime:
		return 't'
	}
	return '?'
}

// compareKey orders two values' units byte for byte, from their types and
// bits: the tag first, then what follows it.
func compareKey(a, b *Value) int {
	ta, tb := keyTag(a), keyTag(b)
	if ta != tb {
		return cmp.Compare(ta, tb)
	}
	switch ta {
	case 's':
		// The length's decimal digits, ':', then the bytes.
		if la, lb := uint64(len(a.S)), uint64(len(b.S)); la != lb {
			return decOrder(la, lb)
		}
		return strings.Compare(a.S, b.S)
	case 'f':
		return compareFloatKey(keyFloat(a), keyFloat(b))
	case 'i', 't':
		return compareInt36(a.I, b.I)
	}
	return 0 // n, T, F and ? are one byte each
}

// keyFloat is the float a 'f' unit formats: an exact INT converted, -0 as 0.
func keyFloat(v *Value) float64 {
	if v.T == TInt {
		return float64(v.I)
	}
	if v.F == 0 {
		return 0
	}
	return v.F
}

// compareFloatKey orders two floats' 'b' formats (strconv.AppendFloat(…,
// 'b', -1, 64)): "+Inf", then negatives ("-" then "Inf" or digits), then
// finite non-negatives, then "NaN" for every NaN. A finite value is its
// mantissa's decimal digits, 'p', the exponent's sign ('+' below '-') and
// its decimal digits.
func compareFloatKey(x, y float64) int {
	if rx, ry := floatRank(x), floatRank(y); rx != ry || rx == 0 || rx == 3 {
		return cmp.Compare(rx, ry)
	}
	mx, ex, infx := floatParts(x)
	my, ey, infy := floatParts(y)
	switch {
	case infx || infy:
		// "-Inf": 'I' sorts above every digit.
		return cmpBool(infx, infy)
	case mx != my:
		return decOrder(mx, my)
	case (ex < 0) != (ey < 0):
		return cmpBool(ex < 0, ey < 0)
	}
	return decOrder(absInt(ex), absInt(ey))
}

// floatRank ranks the first byte of a float's 'b' format: '+' of +Inf, '-'
// of a negative, a digit, 'N' of NaN.
func floatRank(x float64) int {
	switch {
	case x != x:
		return 3
	case math.IsInf(x, 1):
		return 0
	case math.Signbit(x):
		return 1
	}
	return 2
}

// floatParts splits a finite float into the mantissa and exponent its 'b'
// format prints, as strconv does; inf reports -Inf.
func floatParts(x float64) (mant uint64, exp int64, inf bool) {
	u := math.Float64bits(x)
	e := int64(u>>52) & 0x7ff
	mant = u & (1<<52 - 1)
	switch e {
	case 0x7ff:
		return 0, 0, true
	case 0:
		e = 1 // subnormal
	default:
		mant |= 1 << 52
	}
	return mant, e - 1023 - 52, false
}

// compareInt36 orders two integers' base-36 AppendInt formats: '-' sorts
// below every digit, then the magnitudes' digits.
func compareInt36(x, y int64) int {
	if (x < 0) != (y < 0) {
		return cmpBool(x >= 0, y >= 0)
	}
	return b36Order(absInt(x), absInt(y))
}

// decOrder and b36Order order the decimal and the base-36 digit strings of
// x and y.
func decOrder(x, y uint64) int { return digitOrder(x, y, decDigits(x), decDigits(y), pow10) }
func b36Order(x, y uint64) int { return digitOrder(x, y, b36Digits(x), b36Digits(y), pow36) }

// digitOrder orders two digit strings, of nx and ny digits in the base
// whose powers pow holds, as bytes followed by a terminator that sorts above
// every digit: strings of one length order as their numbers, and a shorter
// string orders as its number against the longer one's leading digits,
// above them when they are equal, where its terminator meets a digit.
func digitOrder(x, y uint64, nx, ny int, pow []uint64) int {
	switch {
	case nx == ny:
		return cmp.Compare(x, y)
	case nx < ny:
		if x < y/pow[ny-nx] {
			return -1
		}
		return 1
	}
	if x/pow[nx-ny] > y {
		return 1
	}
	return -1
}

// decDigits counts the decimal digits of x: log10 estimated from its bit
// length (1233/4096 ≈ log10 2), then corrected by one compare. x|1 has x's
// digits, and 0 has one.
func decDigits(x uint64) int {
	x |= 1
	t := bits.Len64(x) * 1233 >> 12
	if x < pow10[t] {
		return t
	}
	return t + 1
}

// b36Digits counts the base-36 digits of x.
func b36Digits(x uint64) int {
	n := 1
	for n < len(pow36) && x >= pow36[n] {
		n++
	}
	return n
}

// pow10[k] is 10^k and pow36[k] is 36^k, up to the largest below 2^64.
var pow10, pow36 = powers(10, 20), powers(36, 13)

func powers(base uint64, n int) []uint64 {
	p := make([]uint64, n)
	p[0] = 1
	for k := 1; k < n; k++ {
		p[k] = p[k-1] * base
	}
	return p
}

func absInt(x int64) uint64 {
	if x < 0 {
		return -uint64(x)
	}
	return uint64(x)
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case a:
		return 1
	}
	return -1
}
