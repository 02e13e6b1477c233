package stream

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// sendSink forwards every tuple straight back through the worker's
// ResultSender — the minimal replica pipeline for protocol tests.
type sendSink struct {
	schema *data.Schema
	send   ResultSender
}

func (s *sendSink) Schema() *data.Schema { return s.schema }

func (s *sendSink) Push(t data.Tuple) { s.PushBatch([]data.Tuple{t}) }

func (s *sendSink) PushBatch(ts []data.Tuple) { _ = s.send(ts) }

// echoDeploy builds a windowed echo replica: tuples flow through a 2m time
// window back to the coordinator, so expiry deletions exercise the tick
// path. A spec of "fail" rejects the deploy; a checkpoint restores into
// the window.
func echoDeploy(spec []byte, shard int, state []byte, send ResultSender) (map[string]Operator, []Advancer, []Checkpointer, error) {
	if string(spec) == "fail" {
		return nil, nil, nil, errors.New("replica spec rejected")
	}
	win := NewTimeWindow(&sendSink{schema: tempSchema(), send: send}, 2*time.Minute, 0)
	if err := RestoreCheckpoint([]Checkpointer{win}, state); err != nil {
		return nil, nil, nil, err
	}
	return map[string]Operator{"s0": win}, []Advancer{win}, []Checkpointer{win}, nil
}

func startEchoWorker(t *testing.T) *ShardWorker {
	t.Helper()
	w, err := NewShardWorker("127.0.0.1:0", echoDeploy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// TestShardConnRoundtrip drives the full frame protocol against a worker:
// deploy, batch data, flush barrier (results drained on return), tick
// expiry, close barrier.
func TestShardConnRoundtrip(t *testing.T) {
	w := startEchoWorker(t)
	col := NewCollector(tempSchema())
	c, err := dialShard(w.Addr(), col, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Addr() != w.Addr() {
		t.Fatalf("conn addr %s, want %s", c.Addr(), w.Addr())
	}
	if err := c.Deploy(nil, 0, nil); err != nil {
		t.Fatal(err)
	}

	batch := []data.Tuple{temp(1, "L1", 20), temp(2, "L2", 21)}
	if err := c.sendFrame(0, "s0", batch, false, 0, false); err != nil {
		t.Fatal(err)
	}
	// Flush is a result-drain barrier: no waitFor needed.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if col.Len() != 2 {
		t.Fatalf("after flush: %d results, want 2", col.Len())
	}
	// A batch of one.
	if err := c.sendFrame(0, "s0", []data.Tuple{temp(3, "L3", 22)}, false, 0, false); err != nil {
		t.Fatal(err)
	}
	// Batches to an unknown head drop silently.
	if err := c.sendFrame(0, "nowhere", batch, false, 0, false); err != nil {
		t.Fatal(err)
	}
	// Advancing past the window retracts all three live tuples.
	if err := c.Tick(vtime.Time(10 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	got := col.Snapshot()
	if len(got) != 6 {
		t.Fatalf("after expiry: %d results, want 6 (3 inserts + 3 deletes)", len(got))
	}
	dels := 0
	for _, tu := range got {
		if tu.Op == data.Delete {
			dels++
		}
	}
	if dels != 3 {
		t.Fatalf("expiry deletes = %d, want 3", dels)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
}

// TestShardConnDeployError: a worker-side compile failure travels back as
// the Deploy error.
func TestShardConnDeployError(t *testing.T) {
	w := startEchoWorker(t)
	c, err := dialShard(w.Addr(), NewCollector(tempSchema()), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Deploy([]byte("fail"), 0, nil); err == nil {
		t.Fatal("rejected spec must fail the deploy barrier")
	}
	// The connection survives a failed deploy.
	if err := c.Deploy(nil, 0, nil); err != nil {
		t.Fatalf("deploy after failed deploy: %v", err)
	}
}

// TestShardSetMixedLocalRemote runs one ShardSet with shard 0 in-process
// and shard 1 behind a worker: every routed tuple must reach the shared
// funnel exactly once, ticks must expire both replicas' windows, and
// Close must tear both down.
func TestShardSetMixedLocalRemote(t *testing.T) {
	w := startEchoWorker(t)
	mat := NewMaterialize(tempSchema())
	merge := NewMerge(mat)

	set := NewShardSet(2)
	if set.Shards() != 2 {
		t.Fatalf("Shards = %d, want 2", set.Shards())
	}
	sh, err := NewSharder(set, "s0", tempSchema(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if sh.Schema().Arity() != 2 {
		t.Fatal("sharder schema")
	}
	// The local replica is the worker's echo pipeline, built by the same
	// DeployFunc.
	loc := []string{"", w.Addr()}
	if err := set.Deploy(ShardConfig{Sink: merge, LocalDeploy: echoDeploy}, loc, nil); err != nil {
		t.Fatal(err)
	}
	if got := set.Placement(); fmt.Sprint(got) != fmt.Sprint(loc) {
		t.Fatalf("placement = %v, want %v", got, loc)
	}
	if _, err := NewSharder(set, "late", tempSchema(), nil); err == nil {
		t.Fatal("a Sharder built after Deploy has no heads and must be rejected")
	}
	if err := set.Deploy(ShardConfig{Sink: merge, LocalDeploy: echoDeploy}, loc, nil); err == nil {
		t.Fatal("a second Deploy must be rejected")
	}

	const n = 50
	batch := make([]data.Tuple, 0, n)
	for i := 0; i < n; i++ {
		batch = append(batch, temp(int64(i+1), fmt.Sprintf("L%d", i%7), float64(i)))
	}
	sh.PushBatch(batch)
	set.Flush()
	if mat.Len() != n {
		t.Fatalf("merged rows = %d, want %d", mat.Len(), n)
	}
	// Ticks fan to the local queue and the worker connection alike.
	set.Advance(vtime.Time(time.Hour))
	set.Flush()
	if mat.Len() != 0 {
		t.Fatalf("after expiry: %d live rows, want 0", mat.Len())
	}

	set.Close()
	set.Close() // idempotent with a remote shard
	// Drop-after-close: routing into a closed set must not panic or block,
	// for local and remote shards alike.
	sh.PushBatch([]data.Tuple{temp(1, "L1", 1), temp(2, "L2", 2)})
	set.Advance(vtime.Time(2 * time.Hour))
	set.Flush()
	if mat.Len() != 0 {
		t.Fatalf("closed set still updated the sink: %d rows", mat.Len())
	}
}

// TestShardSetDeployFailureTearsDown: a Deploy that fails part-way — shard
// 0 placed in-process, shard 1's worker rejecting the spec, or a replica
// missing an exchange's entry point — leaves nothing running: the set is
// closed, its worker stream released, and the error names the shard.
func TestShardSetDeployFailureTearsDown(t *testing.T) {
	w := startEchoWorker(t)
	before := WorkerConnCount()
	for name, tc := range map[string]struct {
		cfg ShardConfig
		loc []string
	}{
		"worker rejects the spec": {ShardConfig{Spec: []byte("fail"), LocalDeploy: func([]byte, int, []byte, ResultSender) (map[string]Operator, []Advancer, []Checkpointer, error) {
			return map[string]Operator{"s0": NewCollector(tempSchema())}, nil, nil, nil
		}}, []string{"", w.Addr()}},
		"replica lacks the entry point": {ShardConfig{LocalDeploy: func([]byte, int, []byte, ResultSender) (map[string]Operator, []Advancer, []Checkpointer, error) {
			return map[string]Operator{"other": NewCollector(tempSchema())}, nil, nil, nil
		}}, []string{w.Addr(), ""}},
		"no in-process builder":       {ShardConfig{}, []string{w.Addr(), ""}},
		"placement of the wrong size": {ShardConfig{LocalDeploy: echoDeploy}, []string{""}},
	} {
		t.Run(name, func(t *testing.T) {
			set := NewShardSet(2)
			sh, err := NewSharder(set, "s0", tempSchema(), nil)
			if err != nil {
				t.Fatal(err)
			}
			tc.cfg.Sink = NewCollector(tempSchema())
			if err := set.Deploy(tc.cfg, tc.loc, nil); err == nil {
				t.Fatal("Deploy must fail")
			}
			if got := WorkerConnCount(); got != before {
				t.Fatalf("failed Deploy left %d pooled worker connections, want %d", got, before)
			}
			// The set never served: traffic, ticks, barriers and Close must
			// neither panic on an unplaced shard's nil head nor block.
			sh.Push(temp(1, "L1", 1))
			set.Advance(vtime.Time(time.Hour))
			set.Flush()
			set.Close()
		})
	}
}

// TestShardConnDeploySilentPeerTimesOut: a peer that accepts the
// connection but never acks shard frames — any mistyped address reaching
// some other service — fails the deploy within the ack timeout and marks
// the link broken, instead of hanging the compile forever.
func TestShardConnDeploySilentPeerTimesOut(t *testing.T) {
	old := remoteStallTimeout
	remoteStallTimeout = 100 * time.Millisecond
	t.Cleanup(func() { remoteStallTimeout = old })

	// A bare listener that reads whatever arrives and never answers.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = io.Copy(io.Discard, conn)
	}()

	c, err := dialShard(l.Addr().String(), NewCollector(tempSchema()), 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Deploy(nil, 0, nil) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("deploy against a silent peer must fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deploy against a silent peer hung")
	}
	if c.Err() == nil {
		t.Fatal("timed-out deploy must mark the link broken")
	}
}

// TestShardConnStalledWorker: a worker that deploys fine but then stops
// acking (SIGSTOPped process, blackholed-but-ACKed link) exhausts the
// credit window; the sender must fail the link after the stall timeout
// instead of wedging forever (it may be the engine tick loop under the
// shard set's lock), and later barriers must fail fast.
func TestShardConnStalledWorker(t *testing.T) {
	old := remoteStallTimeout
	remoteStallTimeout = 100 * time.Millisecond
	t.Cleanup(func() { remoteStallTimeout = old })

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := newWireReader(conn)
		wr := &wireWriter{conn: conn}
		for {
			kind, body, err := r.next()
			if err != nil {
				return
			}
			br := &byteReader{b: body}
			id := br.uvarint()
			if kind == frameDeploy {
				seq := br.uvarint()
				if _, _, _, ok := readDeployBody(br); !ok {
					return
				}
				appendAckFrame(wr, id, seq, 0, "")
				if wr.flush() != nil {
					return
				}
			}
			// Data frames are read but never acked: the worker "stalls".
		}
	}()

	c, err := dialShard(l.Addr().String(), NewCollector(tempSchema()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// More batches than the credit window: the sender must hit the
		// stall timeout, not block forever.
		for i := 0; i < remoteInflight+2; i++ {
			if c.sendFrame(0, "s0", []data.Tuple{temp(int64(i+1), "L1", 1)}, false, 0, false) != nil {
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sender wedged on a stalled worker")
	}
	if c.Err() == nil {
		t.Fatal("stalled worker must mark the link broken")
	}
	if err := c.Flush(); err == nil {
		t.Fatal("flush after a stall must fail")
	}
	// Post-failure sends drop immediately — even with leftover credits —
	// instead of touching the dead socket.
	start := time.Now()
	if err := c.sendFrame(0, "s0", []data.Tuple{temp(99, "L9", 9)}, false, 0, false); err == nil {
		t.Fatal("send on a broken link must error")
	}
	if time.Since(start) > remoteStallTimeout {
		t.Fatal("send on a broken link blocked instead of dropping")
	}
}

// TestShardSetAllRemoteTwoWorkers runs both shards of a set on two
// distinct workers: batch routing by the exchange's wire keys, the
// multi-connection tick fan-out, and the concurrent barrier/close paths.
func TestShardSetAllRemoteTwoWorkers(t *testing.T) {
	mat := NewMaterialize(tempSchema())
	merge := NewMerge(mat)
	set := NewShardSet(2)
	sh, err := NewSharder(set, "s0", tempSchema(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	loc := []string{startEchoWorker(t).Addr(), startEchoWorker(t).Addr()}
	if err := set.Deploy(ShardConfig{Sink: merge}, loc, nil); err != nil {
		t.Fatal(err)
	}

	const n = 40
	batch := make([]data.Tuple, 0, n)
	for i := 0; i < n; i++ {
		batch = append(batch, temp(int64(i+1), fmt.Sprintf("L%d", i%5), float64(i)))
	}
	sh.PushBatch(batch)
	set.Flush()
	if mat.Len() != n {
		t.Fatalf("merged rows = %d, want %d", mat.Len(), n)
	}
	set.Advance(vtime.Time(time.Hour)) // multi-conn tick fan-out
	set.Flush()
	if mat.Len() != 0 {
		t.Fatalf("after expiry: %d live rows, want 0", mat.Len())
	}
	set.Close()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestShardWorkerDisconnectMidEpoch: the worker dies while batches are in
// flight. The link error is sticky, later sends drop instead of blocking,
// flush barriers fail fast instead of hanging, and the ShardSet spanning
// the dead link still routes, ticks, flushes and closes.
func TestShardWorkerDisconnectMidEpoch(t *testing.T) {
	w := startEchoWorker(t)
	mat := NewMaterialize(tempSchema())
	set := NewShardSet(1)
	sh, err := NewSharder(set, "s0", tempSchema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Deploy(ShardConfig{Sink: NewMerge(mat)}, []string{w.Addr()}, nil); err != nil {
		t.Fatal(err)
	}
	c := set.homes[0].(*ShardConn)
	if err := c.sendFrame(0, "s0", []data.Tuple{temp(1, "L1", 20)}, false, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	w.Close() // mid-epoch: the coordinator still has batches to send

	// The reader notices the dead peer; sends and barriers then fail fast
	// (the first few sends may still land in the kernel buffer).
	waitFor(t, func() bool {
		c.sendFrame(0, "s0", []data.Tuple{temp(2, "L2", 21)}, false, 0, false)
		return c.Err() != nil
	})
	done := make(chan error, 1)
	go func() { done <- c.Flush() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("flush over a dead link must fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("flush over a dead link hung")
	}

	// Without Failover the set is fail-stop: it drops the shard's traffic,
	// barriers vacuously and closes cleanly.
	sh.Push(temp(3, "L3", 22))
	set.Advance(vtime.Time(time.Hour))
	set.Flush()
	set.Close()
}

// TestShardConnTruncatedBarrierAck: the worker answers a flush with a
// truncated/garbage ack and drops the link; the barrier must surface the
// decode error, not hang.
func TestShardConnTruncatedBarrierAck(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := newWireReader(conn)
		for {
			kind, _, err := r.next()
			if err != nil {
				return
			}
			if kind == frameFlush {
				// A plausible length prefix, then EOF: the ack truncates.
				conn.Write([]byte{0x40, 0x01, 0x00, 0x00})
				return
			}
		}
	}()

	c, err := dialShard(l.Addr().String(), NewCollector(tempSchema()), 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Flush() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("truncated barrier ack must fail the flush")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("truncated barrier ack hung the flush")
	}
	if c.Err() == nil {
		t.Fatal("truncated ack must mark the link broken")
	}
}

// TestShardConnReconnectRefused: dialing a worker that is gone — both a
// never-listening port and a closed worker's stale address — is refused
// with an error rather than a hang, and the error names the address.
func TestShardConnReconnectRefused(t *testing.T) {
	if _, err := dialShard("127.0.0.1:1", NewCollector(tempSchema()), 0); err == nil {
		t.Fatal("dial to a closed port must fail")
	}
	w := startEchoWorker(t)
	addr := w.Addr()
	w.Close()
	if _, err := dialShard(addr, NewCollector(tempSchema()), 0); err == nil {
		t.Fatal("reconnect to a closed worker must be refused")
	}
}

// requirePeerDropped connects a raw peer to addr, writes payload (then
// half-closes, when eof, so the decoder sees EOF mid-frame) and requires the
// server to close that connection: a read observes EOF/reset rather than
// hanging.
func requirePeerDropped(t *testing.T, addr string, payload []byte, eof bool) {
	t.Helper()
	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write(payload); err != nil {
		t.Fatal(err)
	}
	if eof {
		bad.(*net.TCPConn).CloseWrite()
	}
	bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf [1]byte
	if _, err := bad.Read(buf[:]); err == nil {
		t.Fatal("worker kept the malformed connection open")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("worker neither served nor closed the malformed connection")
	}
}

// echoLink deploys an echo replica over a healthy coordinator link; serves
// pushes one tuple through it and requires the result back.
func echoLink(t *testing.T, w *ShardWorker) (serves func()) {
	t.Helper()
	col := NewCollector(tempSchema())
	good, err := dialShard(w.Addr(), col, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { good.Close() })
	if err := good.Deploy(nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	return func() {
		t.Helper()
		before := col.Len()
		if err := good.sendFrame(0, "s0", []data.Tuple{temp(1, "L1", 20)}, false, 0, false); err != nil {
			t.Fatal(err)
		}
		if err := good.Flush(); err != nil {
			t.Fatal(err)
		}
		if col.Len() != before+1 {
			t.Fatal("healthy link lost its replica after a malformed peer")
		}
	}
}

// TestShardWorkerSurvivesMalformedFrame: a complete frame of an unknown
// kind — a non-protocol peer — kills only that connection; a healthy
// coordinator link on the same worker keeps its replicas served.
func TestShardWorkerSurvivesMalformedFrame(t *testing.T) {
	w := startEchoWorker(t)
	serves := echoLink(t, w)
	requirePeerDropped(t, w.Addr(), []byte{0x01, 0x00, 0x00, 0x00, 0xEE}, false)
	serves()
}

// TestServerSurvivesMalformedFrame injects bytes the frame reader itself
// rejects where the worker's connection server expects a frame: only the
// offending connection must die (the server closes it), while frames keep
// flowing on other connections.
func TestServerSurvivesMalformedFrame(t *testing.T) {
	w := startEchoWorker(t)
	serves := echoLink(t, w)
	serves()
	for name, garbage := range map[string][]byte{
		// A complete length prefix far past the frame-size bound: the
		// decoder fails without waiting for more bytes.
		"garbage": {0xFF, 0xFF, 0xFF, 0xFF},
		// A truncated frame: a plausible length prefix, then EOF.
		"truncated": {0x40, 0x01},
	} {
		t.Run(name, func(t *testing.T) {
			requirePeerDropped(t, w.Addr(), garbage, name == "truncated")
			serves()
		})
	}
}

// shardFrames encodes a sequence of frames as they travel on a link.
func shardFrames(frames ...func(w *wireWriter)) []byte {
	var w wireWriter
	for _, f := range frames {
		f(&w)
	}
	return w.buf
}

// requestFrame encodes one request frame: stream id, sequence number, body.
func requestFrame(kind frameKind, id, seq uint64, body []byte) func(*wireWriter) {
	return func(w *wireWriter) {
		m := w.begin(kind)
		w.buf = appendUvarint(w.buf, id)
		w.buf = appendUvarint(w.buf, seq)
		w.buf = append(w.buf, body...)
		w.end(m)
	}
}

// FuzzShardFrames feeds hostile frames to both ends of a shard link: the
// bytes as a connection to a worker's serveConn (over net.Pipe, with the
// echo replica builder), and as frames read off a worker link into a
// coordinator stream's handleFrame (result, ack and checkpoint-state
// frames; a malformed one ends the run, as it fails the link). Neither side
// may panic, nor allocate past the codec's bounds: per frame, a read buffer
// of wireMaxFrame and a decoded batch of maxBatchCells values.
func FuzzShardFrames(f *testing.F) {
	batch := appendBatch(nil, []data.Tuple{temp(1, "L1", 20), temp(2, "L2", 21)})
	f.Add(shardFrames(
		requestFrame(frameDeploy, 1, 1, appendDeployBody(nil, 1, nil, nil)),
		func(w *wireWriter) {
			m := w.begin(frameData)
			w.buf = appendUvarint(w.buf, 1)
			w.buf = appendHeadKey(w.buf, 1, "s0")
			w.buf = append(w.buf, batch...)
			w.end(m)
			m = w.begin(frameTick)
			w.buf = appendUvarint(w.buf, 1)
			w.buf = appendU64(w.buf, uint64(time.Hour))
			w.end(m)
		},
		requestFrame(frameFlush, 1, 2, nil),
		requestFrame(frameCheckpoint, 1, 3, nil),
		requestFrame(frameUndeploy, 1, 4, appendUvarint(nil, 1)),
		requestFrame(frameClose, 1, 5, nil),
	))
	state, err := EncodeCheckpoint([]Checkpointer{NewMaterialize(tempSchema())})
	if err != nil {
		f.Fatal(err)
	}
	// ckptState is a checkpoint reply whose states are body.
	ckptState := func(body []byte) func(*wireWriter) {
		return func(w *wireWriter) {
			m := w.begin(frameCkptState)
			w.buf = appendUvarint(w.buf, 1)
			w.buf = appendUvarint(w.buf, 2)
			w.buf = appendWireString(w.buf, "")
			w.buf = append(w.buf, body...)
			w.end(m)
		}
	}
	f.Add(shardFrames(
		func(w *wireWriter) {
			m := w.begin(frameResult)
			w.buf = appendUvarint(w.buf, 1)
			w.buf = append(w.buf, batch...)
			w.end(m)
			appendAckFrame(w, 1, 0, 3, "")
			appendAckFrame(w, 1, 1, 0, "replica spec rejected")
		},
		ckptState(appendShardStates(nil, map[int][]byte{0: state, 3: nil})),
	))
	// Hostile bodies: a deploy whose spec runs past the frame, a replica
	// state longer than the reply, and more replicas than the reply holds.
	f.Add(shardFrames(requestFrame(frameDeploy, 1, 1, appendDeployBody(nil, 0, []byte("spec"), nil)[:4])))
	f.Add(shardFrames(ckptState(appendUvarint(appendUvarint(appendUvarint(nil, 1), 0), 1<<40))))
	f.Add(shardFrames(ckptState(appendUvarint(nil, 1<<40))))
	f.Fuzz(func(t *testing.T, in []byte) {
		frames := uint64(len(in)/5 + 1) // a frame is at least a length and a kind
		bound := 2*wireMaxFrame + frames*(maxBatchCells*uint64(unsafe.Sizeof(data.Value{}))+
			uint64(len(in))*uint64(unsafe.Sizeof(data.Tuple{}))+1<<16)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		// The worker end.
		client, server := net.Pipe()
		w := &ShardWorker{deploy: echoDeploy}
		served := make(chan struct{})
		go func() {
			defer close(served)
			w.serveConn(server)
			server.Close()
		}()
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			_, _ = io.Copy(io.Discard, client)
		}()
		_, _ = client.Write(in)
		client.Close()
		<-served
		<-drained

		// The coordinator end: one stream with a replay log and a waiter
		// on every sequence number the seeds use.
		c := &ShardConn{sink: NewCollector(tempSchema()), credits: make(chan struct{}, remoteInflight),
			waits: map[uint64]chan reply{}, done: make(chan struct{})}
		c.enableFailover(0)
		for seq := uint64(1); seq <= 4; seq++ {
			c.waits[seq] = make(chan reply, 1)
		}
		r := newWireReader(bytes.NewReader(in))
		for {
			kind, body, err := r.next()
			if err != nil {
				break
			}
			br := &byteReader{b: body}
			br.uvarint() // the stream id: the read loop's, not the stream's
			if br.fail || !c.handleFrame(kind, br) {
				break
			}
		}

		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Fatalf("%d input bytes allocated %d bytes, past the codec's bound of %d", len(in), got, bound)
		}
	})
}
