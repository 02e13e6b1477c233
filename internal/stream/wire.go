package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"unsafe"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// vtimeFrom rebuilds a timestamp from its wire representation.
func vtimeFrom(u uint64) vtime.Time { return vtime.Time(int64(u)) }

// The binary wire layer. Every frame on an exchange connection is
//
//	[u32 LE length][u8 kind][body]
//
// where length counts the kind byte plus the body. Bodies of hot-path
// frames (data, result, tick, ack, flush, close, checkpoint, ckptState)
// are hand-rolled so the steady-state data path encodes and decodes with
// zero allocations; only the deploy frame still carries a gob payload
// (replica specs are cold-path and deeply structured). Frame kinds keep
// their PR-4 numbering, so the protocol stays compatible at the
// frame-kind level even though the body encoding changed.
//
// Every body begins with a uvarint stream id: shard deployments
// multiplexed over one physical connection each own an id (mux.go).
//
// Batches travel columnar: the timestamp vector, the delete-polarity
// bitmap, and then each column as a contiguous typed vector with a null
// bitmap — int64/time as fixed 8-byte little-endian, float64 as its IEEE
// bit pattern, bool as one byte, string as uvarint length + bytes. A
// column whose non-null values disagree on type (legal but rare: Vals is
// positional against a schema, yet nothing enforces it on the wire)
// falls back to a per-value tagged encoding, and a ragged batch (rows of
// differing arity) falls back to a row-oriented mode. The fallbacks
// trade speed for generality; the fast path is what the exchange emits.

// frameKind discriminates wire frames. The numbering is stable across
// protocol revisions — a data frame is kind 0 today as it was under the
// original gob framing — so peers agree at the frame-kind level even as
// body encodings evolve.
type frameKind uint8

const (
	// frameData delivers a tuple batch to a named replica head.
	frameData frameKind = iota
	// frameTick propagates a clock instant: the receiver advances its
	// time-driven state (windows) to Now.
	frameTick
	// frameFlush is an acked barrier: the receiver processes everything
	// before it, then answers frameAck with the same Seq — behind any
	// result frames its processing produced, so the sender's ack doubles
	// as a result-drain barrier.
	frameFlush
	// frameClose is an acked teardown barrier for the shard deployments on
	// this connection.
	frameClose
	// frameDeploy carries Seq in its header, after the stream id, like every
	// request, then the shard and the length-prefixed opaque replica spec
	// and state to restore (appendDeployBody); acked with Seq (Err set on a
	// failed deploy).
	frameDeploy
	// frameAck answers deploy/undeploy/flush/close requests (matching Seq)
	// and, with Seq == 0, releases in-flight credits for processed data and
	// tick frames.
	frameAck
	// frameResult returns a batch of replica output tuples from a shard
	// worker to its coordinator.
	frameResult
	// frameCheckpoint asks a shard worker to snapshot the operator state of
	// every replica on the connection; answered by frameCkptState with the
	// same Seq. Its position in the FIFO input stream defines the
	// checkpoint's consistency point.
	frameCheckpoint
	// frameCkptState answers frameCheckpoint with the encoded per-shard
	// operator states (appendShardStates). It arrives behind every
	// result the pre-checkpoint input produced, so the coordinator can
	// truncate its replay and undo logs exactly at the decode.
	frameCkptState
	// frameUndeploy is an acked barrier that tears down one shard's replica
	// on the stream while the stream (and its other shards) keeps serving —
	// a rescale moved that shard to another home. frameClose remains the
	// whole-stream teardown.
	frameUndeploy
)

// wireMaxFrame bounds one frame's kind+body. Large enough for any batch
// the exchange emits (batches are epoch-sized), small enough that a
// garbage length prefix from a non-protocol peer fails fast instead of
// waiting on a gigabyte that never comes.
const wireMaxFrame = 1 << 26

// wireFlushBytes is the write-combining threshold: each end buffers the
// frames it encodes per connection and writes them once this much is
// pending, or earlier at a tick, barrier or credit wait. The exchange ships
// a worker-hosted shard's batch when it holds ShardBatchCap tuples (several
// KiB on the wire), which it writes at once, or at the tick, so an epoch is
// a few large data frames, not one per push. The threshold therefore
// matters most on the worker: it sets how soon the result frames of the
// calls a worker has run reach the coordinator while more frames wait. Of
// 4, 8, 16 and 32 KiB, 16 read best on the remote pipeline benchmark
// (PERF.md has the sweep).
const wireFlushBytes = 16 << 10

// Batch body layout discriminators.
const (
	batchModeColumnar = 0 // arity-uniform batch, columnar vectors
	batchModeRows     = 1 // ragged batch, row-oriented fallback
)

// colMixed tags a column whose non-null values span several types; it is
// deliberately outside the data.Type range.
const colMixed = 0xFF

// Decode-side resource bounds. A hostile or corrupt batch header must not
// make the decoder allocate out of proportion to the bytes received: an
// all-null column costs one byte on the wire but a full arena column in
// memory, so row and cell counts are capped beyond what any real epoch
// batch approaches.
const (
	maxBatchCols  = 1 << 12
	maxBatchCells = 1 << 22
)

// wireWriter accumulates encoded frames in one reusable buffer and
// writes them to the connection in a single syscall per flush. Not
// goroutine-safe; callers serialize through the owning connection's
// write lock.
type wireWriter struct {
	conn net.Conn
	buf  []byte
}

// begin opens a frame of the given kind and returns the patch mark for
// end. Between begin and end the caller appends the body to w.buf.
func (w *wireWriter) begin(kind frameKind) int {
	w.buf = append(w.buf, 0, 0, 0, 0, byte(kind))
	return len(w.buf) - 5
}

// end patches the length prefix of the frame opened at mark.
func (w *wireWriter) end(mark int) {
	binary.LittleEndian.PutUint32(w.buf[mark:], uint32(len(w.buf)-mark-4))
}

// buffered reports bytes encoded but not yet written to the connection.
func (w *wireWriter) buffered() int { return len(w.buf) }

// flush writes everything buffered in one syscall.
func (w *wireWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.conn.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// appendUvarint appends v as a varint.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// appendU64 appends v little-endian.
func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// appendWireString appends a length-prefixed string.
func appendWireString[T string | []byte](b []byte, s T) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendValuePayload appends one value's payload for its type tag (no
// tag byte; the column header or the per-value tag carries it).
func appendValuePayload(b []byte, v data.Value) []byte {
	switch v.T {
	case data.TInt, data.TTime:
		return appendU64(b, uint64(v.I))
	case data.TFloat:
		return appendU64(b, uint64(float64bits(v.F)))
	case data.TBool:
		if v.I != 0 {
			return append(b, 1)
		}
		return append(b, 0)
	case data.TString:
		return appendWireString(b, v.S)
	}
	return b // TNull: no payload
}

func float64bits(f float64) uint64 { return *(*uint64)(unsafe.Pointer(&f)) }

func float64from(u uint64) float64 { return *(*float64)(unsafe.Pointer(&u)) }

// appendBatch appends the batch body (without the frame header or the
// stream id prefix). len(ts) > 0.
func appendBatch(b []byte, ts []data.Tuple) []byte {
	n := len(ts)
	b = appendUvarint(b, uint64(n))
	ncols := len(ts[0].Vals)
	for _, t := range ts[1:] {
		if len(t.Vals) != ncols {
			return appendBatchRows(b, ts)
		}
	}
	b = append(b, batchModeColumnar)
	b = appendUvarint(b, uint64(ncols))
	for _, t := range ts {
		b = appendU64(b, uint64(t.TS))
	}
	b = appendBitmap(b, ts, func(t data.Tuple) bool { return t.Op == data.Delete })
	for col := 0; col < ncols; col++ {
		b = appendColumn(b, ts, col)
	}
	return b
}

// appendBitmap appends an LSB-first bitmap with one bit per tuple.
func appendBitmap(b []byte, ts []data.Tuple, bit func(data.Tuple) bool) []byte {
	var acc byte
	for i, t := range ts {
		if bit(t) {
			acc |= 1 << (uint(i) & 7)
		}
		if i&7 == 7 {
			b = append(b, acc)
			acc = 0
		}
	}
	if len(ts)&7 != 0 {
		b = append(b, acc)
	}
	return b
}

// appendColumn appends one column: a type tag, then (for a uniform
// column) a null bitmap and the non-null payloads contiguously, or (for
// a mixed column) a per-value tagged encoding.
func appendColumn(b []byte, ts []data.Tuple, col int) []byte {
	tag := data.TNull
	for _, t := range ts {
		vt := t.Vals[col].T
		if vt == data.TNull {
			continue
		}
		if tag == data.TNull {
			tag = vt
		} else if tag != vt {
			b = append(b, colMixed)
			for _, t := range ts {
				v := t.Vals[col]
				b = append(b, byte(v.T))
				b = appendValuePayload(b, v)
			}
			return b
		}
	}
	b = append(b, byte(tag))
	if tag == data.TNull {
		return b // all-null column: the tag alone encodes it
	}
	b = appendBitmap(b, ts, func(t data.Tuple) bool { return t.Vals[col].T == data.TNull })
	for _, t := range ts {
		if v := t.Vals[col]; v.T != data.TNull {
			b = appendValuePayload(b, v)
		}
	}
	return b
}

// appendBatchRows is the ragged-arity fallback: each row is encoded as
// timestamp, polarity, arity, then tagged values. The mode byte replaces
// the columnar one; the caller already wrote the row count.
func appendBatchRows(b []byte, ts []data.Tuple) []byte {
	b = append(b, batchModeRows)
	for _, t := range ts {
		b = appendU64(b, uint64(t.TS))
		b = append(b, byte(t.Op))
		b = appendUvarint(b, uint64(len(t.Vals)))
		for _, v := range t.Vals {
			b = append(b, byte(v.T))
			b = appendValuePayload(b, v)
		}
	}
	return b
}

// wireReader decodes frames off a connection, reusing one payload buffer
// and one length header across frames (a header local to next would escape
// through io.ReadFull once per frame).
type wireReader struct {
	r   *bufio.Reader
	hdr [4]byte
	buf []byte
}

func newWireReader(conn io.Reader) *wireReader {
	return &wireReader{r: bufio.NewReaderSize(conn, 64<<10)}
}

// buffered reports bytes already received but not yet decoded — zero
// means the peer has nothing further in flight that we know of, which
// the worker uses to coalesce credit acks (remote.go).
func (r *wireReader) buffered() int { return r.r.Buffered() }

// next reads one frame. The returned body aliases the reader's scratch
// buffer and is valid until the next call.
func (r *wireReader) next() (frameKind, []byte, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(r.hdr[:])
	if n < 1 || n > wireMaxFrame {
		return 0, nil, fmt.Errorf("stream: wire frame length %d out of range", n)
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return 0, nil, err
	}
	return frameKind(r.buf[0]), r.buf[1:], nil
}

// byteReader walks a frame body with bounds checking: any overrun sets
// fail and subsequent reads return zero values, so decoders check once
// at the end instead of threading errors through every field.
type byteReader struct {
	b    []byte
	off  int
	fail bool
}

func (r *byteReader) u8() byte {
	if r.off >= len(r.b) {
		r.fail = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *byteReader) u64() uint64 {
	if r.off+8 > len(r.b) {
		r.fail = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *byteReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail = true
		return 0
	}
	r.off += n
	return v
}

func (r *byteReader) bytes(n int) []byte {
	if n < 0 || n > len(r.b)-r.off { // not r.off+n: a hostile n overflows it
		r.fail = true
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

// wireString decodes a length-prefixed string with a copy (for the rare
// paths where no arena is prepared).
func (r *byteReader) wireString() string {
	n := int(r.uvarint())
	return string(r.bytes(n))
}

// batchDecoder turns batch bodies back into tuples. The tuple slice is
// scratch — reused across calls, so consumers must not retain it (the
// established batch convention: operators retain tuples, never the
// batch slice). The Vals of the decoded tuples live in one fresh arena
// per call, because windows retain pushed tuples indefinitely; at
// epoch-sized batches it amortizes below one allocation per operation.
//
// A decoded string shares no memory with its frame (see str), so a row an
// operator keeps — a window's, a join key's, a group's, a Materialize
// row — pins only its own values, never the rest of the frame it came in.
type batchDecoder struct {
	tuples []data.Tuple
	// interned maps the short strings decoded so far to one copy each.
	interned map[string]string
}

// String interning bounds: a string longer than maxInternLen is copied on
// its own, and the table starts over once it holds maxInterned strings, so
// a column of ever-new values costs a copy each and a bounded table.
const (
	maxInternLen = 32
	maxInterned  = 1024
)

// str returns b as a string of its own. A short string the decoder has
// seen before — a room, a desk, a sensor name, which recur in every frame —
// comes from the intern table and costs no allocation; any other string is
// one copy. Either way the result aliases neither the frame nor another
// row's string.
func (d *batchDecoder) str(b []byte) string {
	if len(b) > maxInternLen {
		return string(b)
	}
	if s, ok := d.interned[string(b)]; ok {
		return s
	}
	if d.interned == nil || len(d.interned) >= maxInterned {
		d.interned = make(map[string]string, 64)
	}
	s := string(b)
	d.interned[s] = s
	return s
}

// release clears the tuple scratch of the last decoded batch once its
// consumer has returned, so that the scratch pins neither that frame's
// values arena nor its string arenas until the next frame overwrites it.
func (d *batchDecoder) release() { clear(d.tuples) }

// decodeInto is decode into buf's backing array, grown when too short,
// which the caller keeps: a worker hands each decoded data batch to a
// replica's executor, while the next frame is decoded beside it.
func (d *batchDecoder) decodeInto(r *byteReader, buf []data.Tuple) ([]data.Tuple, error) {
	scratch := d.tuples
	d.tuples = buf[:0]
	ts, err := d.decode(r)
	d.tuples = scratch
	return ts, err
}

// errBadBatch reports a structurally invalid batch body.
var errBadBatch = fmt.Errorf("stream: malformed wire batch")

// decode parses one batch body. The returned slice is valid until release
// or the next call.
func (d *batchDecoder) decode(r *byteReader) ([]data.Tuple, error) {
	n := int(r.uvarint())
	// Every row costs at least one body byte in either mode, so a row
	// count past the remaining bytes is garbage — reject before sizing
	// any scratch by it.
	if r.fail || n < 0 || n > len(r.b)-r.off {
		return nil, errBadBatch
	}
	if n == 0 {
		return d.tuples[:0], nil
	}
	mode := r.u8()
	if cap(d.tuples) < n {
		d.tuples = make([]data.Tuple, n)
	}
	d.tuples = d.tuples[:n]
	ts := d.tuples
	switch mode {
	case batchModeColumnar:
		if err := d.decodeColumnar(r, ts); err != nil {
			return nil, err
		}
	case batchModeRows:
		if err := d.decodeRows(r, ts); err != nil {
			return nil, err
		}
	default:
		return nil, errBadBatch
	}
	if r.fail {
		return nil, errBadBatch
	}
	return ts, nil
}

func (d *batchDecoder) decodeColumnar(r *byteReader, ts []data.Tuple) error {
	n := len(ts)
	ncols := int(r.uvarint())
	if r.fail || ncols < 0 || ncols > maxBatchCols || n*ncols > maxBatchCells {
		return errBadBatch
	}
	// One flat values arena for the whole batch: decoded tuples are
	// retained by operators (windows), so the arena cannot be recycled,
	// but one allocation per frame beats one per tuple by the batch size.
	var arena []data.Value
	if ncols > 0 {
		arena = make([]data.Value, n*ncols)
	}
	for i := range ts {
		ts[i].TS = vtimeFrom(r.u64())
		if ncols > 0 {
			ts[i].Vals = arena[i*ncols : (i+1)*ncols : (i+1)*ncols]
		} else {
			ts[i].Vals = nil
		}
	}
	ops := r.bytes((n + 7) / 8)
	for i := range ts {
		if ops != nil && ops[i>>3]&(1<<(uint(i)&7)) != 0 {
			ts[i].Op = data.Delete
		} else {
			ts[i].Op = data.Insert
		}
	}
	for col := 0; col < ncols; col++ {
		if err := d.decodeColumn(r, ts, col); err != nil {
			return err
		}
	}
	return nil
}

func (d *batchDecoder) decodeColumn(r *byteReader, ts []data.Tuple, col int) error {
	tag := r.u8()
	if r.fail {
		return errBadBatch
	}
	if tag == colMixed {
		for i := range ts {
			v, ok := decodeTaggedValue(r)
			if !ok {
				return errBadBatch
			}
			ts[i].Vals[col] = v
		}
		return nil
	}
	vt := data.Type(tag)
	if vt == data.TNull {
		return nil // all-null column: Vals arena is already zero (NULL)
	}
	if vt > data.TTime {
		return errBadBatch
	}
	nulls := r.bytes((len(ts) + 7) / 8)
	if r.fail {
		return errBadBatch
	}
	isNull := func(i int) bool { return nulls[i>>3]&(1<<(uint(i)&7)) != 0 }
	if vt == data.TString {
		for i := range ts {
			if isNull(i) {
				continue
			}
			b := r.bytes(int(r.uvarint()))
			if r.fail {
				return errBadBatch
			}
			ts[i].Vals[col] = data.Value{T: data.TString, S: d.str(b)}
		}
		return nil
	}
	for i := range ts {
		if isNull(i) {
			continue
		}
		switch vt {
		case data.TInt, data.TTime:
			ts[i].Vals[col] = data.Value{T: vt, I: int64(r.u64())}
		case data.TFloat:
			ts[i].Vals[col] = data.Value{T: data.TFloat, F: float64from(r.u64())}
		case data.TBool:
			ts[i].Vals[col] = data.Value{T: data.TBool, I: int64(r.u8() & 1)}
		}
	}
	if r.fail {
		return errBadBatch
	}
	return nil
}

// decodeRows is the ragged-arity fallback decoder. Allocation per row is
// acceptable here: the exchange never produces ragged batches.
func (d *batchDecoder) decodeRows(r *byteReader, ts []data.Tuple) error {
	for i := range ts {
		ts[i].TS = vtimeFrom(r.u64())
		op := r.u8()
		if op > byte(data.Delete) {
			return errBadBatch
		}
		ts[i].Op = data.Op(op)
		nv := int(r.uvarint())
		if r.fail || nv < 0 || nv > len(r.b)-r.off {
			return errBadBatch
		}
		vals := make([]data.Value, nv)
		for j := range vals {
			v, ok := decodeTaggedValue(r)
			if !ok {
				return errBadBatch
			}
			vals[j] = v
		}
		ts[i].Vals = vals
	}
	return nil
}

// decodeTaggedValue reads one [tag][payload] value.
func decodeTaggedValue(r *byteReader) (data.Value, bool) {
	switch vt := data.Type(r.u8()); vt {
	case data.TNull:
		return data.Value{}, !r.fail
	case data.TInt, data.TTime:
		return data.Value{T: vt, I: int64(r.u64())}, !r.fail
	case data.TFloat:
		return data.Value{T: data.TFloat, F: float64from(r.u64())}, !r.fail
	case data.TBool:
		return data.Value{T: data.TBool, I: int64(r.u8() & 1)}, !r.fail
	case data.TString:
		return data.Value{T: data.TString, S: r.wireString()}, !r.fail
	}
	return data.Value{}, false
}
