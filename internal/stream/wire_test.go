package stream

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// valueEq compares wire-decoded values bit-exactly: floats by their IEEE
// pattern (NaN round-trips), everything else by the tagged payload.
func valueEq(a, b data.Value) bool {
	if a.T != b.T {
		return false
	}
	switch a.T {
	case data.TFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case data.TString:
		return a.S == b.S
	default:
		return a.I == b.I
	}
}

func tuplesEq(a, b []data.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].TS != b[i].TS || a[i].Op != b[i].Op || len(a[i].Vals) != len(b[i].Vals) {
			return false
		}
		for j := range a[i].Vals {
			if !valueEq(a[i].Vals[j], b[i].Vals[j]) {
				return false
			}
		}
	}
	return true
}

// decodeBody runs one batch decode over body with a fresh decoder.
func decodeBody(t *testing.T, body []byte) ([]data.Tuple, error) {
	t.Helper()
	var dec batchDecoder
	br := byteReader{b: body}
	ts, err := dec.decode(&br)
	if err == nil && br.off != len(body) {
		t.Fatalf("decode left %d trailing bytes", len(body)-br.off)
	}
	return ts, err
}

func roundTrip(t *testing.T, ts []data.Tuple) {
	t.Helper()
	body := appendBatch(nil, ts)
	got, err := decodeBody(t, body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !tuplesEq(ts, got) {
		t.Fatalf("round trip mismatch:\n in  %v\n out %v", ts, got)
	}
}

// TestWireRoundTripAllTypes: one column per value type, NULLs sprinkled
// per column, both polarities, negative timestamps.
func TestWireRoundTripAllTypes(t *testing.T) {
	mk := func(i int) data.Tuple {
		tu := data.Tuple{
			TS: vtime.Time(int64(i-2) * 1_000_000),
			Op: data.Op(i % 2),
			Vals: []data.Value{
				data.Int(int64(i) - 3),
				data.Float(float64(i) * 1.5),
				data.Str(strings.Repeat("x", i)),
				data.Bool(i%3 == 0),
				{T: data.TTime, I: int64(i) * 7},
				data.Null,
			},
		}
		if i%2 == 0 {
			tu.Vals[i%5] = data.Null // punch NULLs through every column
		}
		return tu
	}
	var ts []data.Tuple
	for i := 0; i < 17; i++ {
		ts = append(ts, mk(i))
	}
	roundTrip(t, ts)
}

// TestWireRoundTripEdges: single tuples, empty strings, zero-column rows,
// all-null columns, extreme numerics.
func TestWireRoundTripEdges(t *testing.T) {
	for _, ts := range [][]data.Tuple{
		{{TS: 0, Vals: nil}},
		{{TS: -1, Op: data.Delete, Vals: []data.Value{}}},
		{{TS: math.MaxInt64, Vals: []data.Value{data.Int(math.MinInt64)}}},
		{{TS: 1, Vals: []data.Value{data.Float(math.NaN())}},
			{TS: 2, Vals: []data.Value{data.Float(math.Inf(-1))}}},
		{{TS: 1, Vals: []data.Value{data.Str("")}}, {TS: 2, Vals: []data.Value{data.Str("héllo, wörld")}}},
		{{TS: 1, Vals: []data.Value{data.Null, data.Null}}, {TS: 2, Vals: []data.Value{data.Null, data.Null}}},
		{{TS: 1, Op: data.Delete, Vals: []data.Value{data.Bool(true)}},
			{TS: 1, Op: data.Delete, Vals: []data.Value{data.Bool(false)}}},
	} {
		roundTrip(t, ts)
	}
}

// TestWireRoundTripEmptyBatch: a zero-row body decodes to an empty batch.
func TestWireRoundTripEmptyBatch(t *testing.T) {
	got, err := decodeBody(t, appendUvarint(nil, 0))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: got %v, %v", got, err)
	}
}

// TestWireRoundTripMixedColumn: a column whose rows disagree on type
// takes the tagged fallback and still round-trips.
func TestWireRoundTripMixedColumn(t *testing.T) {
	roundTrip(t, []data.Tuple{
		{TS: 1, Vals: []data.Value{data.Int(1), data.Str("a")}},
		{TS: 2, Vals: []data.Value{data.Float(2.5), data.Str("b")}},
		{TS: 3, Vals: []data.Value{data.Null, data.Bool(true)}},
	})
}

// TestWireRoundTripRagged: rows of differing arity take the row-oriented
// fallback mode.
func TestWireRoundTripRagged(t *testing.T) {
	ts := []data.Tuple{
		{TS: 1, Vals: []data.Value{data.Int(1)}},
		{TS: 2, Op: data.Delete, Vals: []data.Value{data.Int(2), data.Str("two")}},
		{TS: 3, Vals: nil},
	}
	body := appendBatch(nil, ts)
	if body[len(appendUvarint(nil, uint64(len(ts))))] != batchModeRows {
		t.Fatal("ragged batch must use row mode")
	}
	roundTrip(t, ts)
}

// TestWireRoundTripLarge: a frame-filling batch (every type, heavy
// strings) survives — the "max-size batch" case.
func TestWireRoundTripLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts := make([]data.Tuple, 8192)
	for i := range ts {
		ts[i] = data.Tuple{TS: vtime.Time(rng.Int63()), Op: data.Op(rng.Intn(2)), Vals: randVals(rng, 6)}
	}
	roundTrip(t, ts)
}

// randVals draws n values across every type, biased toward NULLs and
// strings of assorted lengths.
func randVals(rng *rand.Rand, n int) []data.Value {
	vals := make([]data.Value, n)
	for j := range vals {
		switch rng.Intn(7) {
		case 0:
			vals[j] = data.Null
		case 1:
			vals[j] = data.Int(rng.Int63() - rng.Int63())
		case 2:
			vals[j] = data.Float(rng.NormFloat64())
		case 3:
			vals[j] = data.Str(strings.Repeat("s", rng.Intn(64)))
		case 4:
			vals[j] = data.Bool(rng.Intn(2) == 0)
		case 5:
			vals[j] = data.Value{T: data.TTime, I: rng.Int63()}
		case 6:
			vals[j] = data.Str("") // empty string vs NULL must stay distinct
		}
	}
	return vals
}

// TestWireRoundTripProperty: randomized batches across shapes — the
// property form of the round-trip law enc(dec(x)) == x.
func TestWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		n := 1 + rng.Intn(100)
		ncols := rng.Intn(8)
		ts := make([]data.Tuple, n)
		for i := range ts {
			ts[i] = data.Tuple{TS: vtime.Time(rng.Int63() - rng.Int63()), Op: data.Op(rng.Intn(2)), Vals: randVals(rng, ncols)}
		}
		roundTrip(t, ts)
	}
}

// TestWireDecodeGarbage: corrupted and truncated batch bodies must error
// (or decode to something self-consistent), never panic or over-allocate.
func TestWireDecodeGarbage(t *testing.T) {
	valid := appendBatch(nil, []data.Tuple{
		{TS: 1, Vals: []data.Value{data.Int(1), data.Str("abc"), data.Null}},
		{TS: 2, Op: data.Delete, Vals: []data.Value{data.Int(2), data.Str("defg"), data.Float(1.5)}},
	})
	var dec batchDecoder
	// Every truncation of a valid body.
	for cut := 0; cut < len(valid); cut++ {
		br := byteReader{b: valid[:cut]}
		dec.decode(&br)
	}
	// Every single-byte corruption.
	for i := range valid {
		for _, delta := range []byte{1, 0x7F, 0xFF} {
			mut := append([]byte(nil), valid...)
			mut[i] += delta
			br := byteReader{b: mut}
			dec.decode(&br)
		}
	}
	// Headers claiming absurd sizes must reject before allocating.
	for _, b := range [][]byte{
		appendUvarint(nil, 1<<40), // rows beyond the body
		append(appendUvarint(nil, 2), batchModeColumnar, 0xFF, 0xFF, 4), // huge ncols
	} {
		br := byteReader{b: b}
		if _, err := dec.decode(&br); err == nil {
			t.Fatalf("absurd header %v must not decode", b)
		}
	}
}

// FuzzWireBatch: arbitrary bytes must never panic the decoder, and
// whatever does decode must satisfy the round-trip law when re-encoded.
func FuzzWireBatch(f *testing.F) {
	f.Add(appendUvarint(nil, 0))
	f.Add(appendBatch(nil, []data.Tuple{{TS: 5, Vals: []data.Value{data.Int(9), data.Float(2.5)}}}))
	f.Add(appendBatch(nil, []data.Tuple{
		{TS: 1, Op: data.Delete, Vals: []data.Value{data.Str("a"), data.Null, data.Bool(true)}},
		{TS: 2, Vals: []data.Value{data.Str("bb"), data.Int(3), data.Bool(false)}},
	}))
	f.Add(appendBatch(nil, []data.Tuple{{TS: 3, Vals: []data.Value{data.Int(1)}}, {TS: 4, Vals: nil}}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		var dec batchDecoder
		br := byteReader{b: b}
		ts, err := dec.decode(&br)
		if err != nil {
			return
		}
		if len(ts) == 0 {
			return
		}
		// Copy out of the decoder scratch, re-encode, re-decode: the result
		// must match the first decode exactly.
		first := make([]data.Tuple, len(ts))
		copy(first, ts)
		body := appendBatch(nil, first)
		var dec2 batchDecoder
		br2 := byteReader{b: body}
		again, err := dec2.decode(&br2)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !tuplesEq(first, again) {
			t.Fatalf("round-trip law broken:\n in  %v\n out %v", first, again)
		}
	})
}

// TestDecoderInternsStrings: a short string that recurs across frames — a
// room name in every reading — decodes to one shared copy and costs no
// allocation once seen; a long string is a copy of its own each time; and a
// column of ever-new values keeps the intern table within maxInterned.
func TestDecoderInternsStrings(t *testing.T) {
	rooms := make([]data.Tuple, 256)
	for i := range rooms {
		rooms[i] = data.NewTuple(vtime.Time(i), data.Str(fmt.Sprintf("R%03d", i%8)), data.Str(strings.Repeat("x", maxInternLen+1)))
	}
	body := appendBatch(nil, rooms)
	var dec batchDecoder
	decode := func() []data.Tuple {
		br := byteReader{b: body}
		ts, err := dec.decode(&br)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	first := unsafe.StringData(decode()[0].Vals[0].S)
	ts := decode()
	if !tuplesEq(rooms, ts) {
		t.Fatal("round trip mismatch")
	}
	if unsafe.StringData(ts[0].Vals[0].S) != first || unsafe.StringData(ts[8].Vals[0].S) != first {
		t.Error("a recurring short string decoded to a new copy")
	}
	if unsafe.StringData(ts[0].Vals[1].S) == unsafe.StringData(ts[1].Vals[1].S) {
		t.Error("two long strings share one copy")
	}
	// The values arena, and one copy per long string.
	if n := testing.AllocsPerRun(20, func() { decode() }); n != 1+256 {
		t.Errorf("decoding a frame of recurring rooms allocates %v times, want %d", n, 1+256)
	}
	for i := range rooms {
		rooms[i].Vals = rooms[i].Vals[:1]
	}
	for k := range 5 {
		for i := range rooms {
			rooms[i].Vals[0] = data.Str(fmt.Sprintf("s%d-%d", k, i))
		}
		body = appendBatch(nil, rooms)
		if ts := decode(); !tuplesEq(rooms, ts) {
			t.Fatal("round trip mismatch")
		}
		if len(dec.interned) > maxInterned {
			t.Fatalf("the intern table holds %d strings, bound %d", len(dec.interned), maxInterned)
		}
	}
}

// numericBatch builds the join+aggregate pipeline's numeric batch (int key,
// float value; see joinagg_test.go) the exchange ships per shard per epoch.
func numericBatch(n int) []data.Tuple {
	ts := make([]data.Tuple, n)
	for i := range ts {
		ts[i] = data.Tuple{TS: vtime.Time(i), Vals: []data.Value{data.Int(int64(i % 50)), data.Float(float64(i))}}
	}
	return ts
}

// BenchmarkWireEncode measures the columnar encode of a 64-row numeric
// batch into a reused buffer — the steady-state coordinator send path
// (expected: 0 allocs/op).
func BenchmarkWireEncode(b *testing.B) {
	run := func(b *testing.B, ts []data.Tuple) {
		buf := appendBatch(nil, ts)
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = appendBatch(buf[:0], ts)
		}
	}
	b.Run("numeric64", func(b *testing.B) { run(b, numericBatch(64)) })
	b.Run("strings64", func(b *testing.B) {
		ts := numericBatch(64)
		for i := range ts {
			ts[i].Vals = append(ts[i].Vals, data.Str("sensor-payload"))
		}
		run(b, ts)
	})
}

// BenchmarkWireDecode measures the columnar decode of the same batch —
// the steady-state worker receive path. The per-frame values arena is
// the one expected allocation (decoded tuples outlive the frame); the
// tuple scratch is reused.
func BenchmarkWireDecode(b *testing.B) {
	run := func(b *testing.B, ts []data.Tuple) {
		body := appendBatch(nil, ts)
		var dec batchDecoder
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			br := byteReader{b: body}
			if _, err := dec.decode(&br); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("numeric64", func(b *testing.B) { run(b, numericBatch(64)) })
	b.Run("strings64", func(b *testing.B) {
		ts := numericBatch(64)
		for i := range ts {
			ts[i].Vals = append(ts[i].Vals, data.Str("sensor-payload"))
		}
		run(b, ts)
	})
}
