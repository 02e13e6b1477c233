package stream

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

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
	if err := c.SendBatch(0, "s0", batch); err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch(0, "s0", nil); err != nil {
		t.Fatal("empty batch must be a no-op")
	}
	// Flush is a result-drain barrier: no waitFor needed.
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if col.Len() != 2 {
		t.Fatalf("after flush: %d results, want 2", col.Len())
	}
	// A singleton push through the RemoteHead stand-in.
	rh := c.Head(tempSchema(), 0, "s0")
	if rh.Schema() != tempSchema() && rh.Schema().Arity() != 2 {
		t.Fatal("remote head schema")
	}
	rh.Push(temp(3, "L3", 22))
	// Batches to an unknown head drop silently.
	if err := c.SendBatch(0, "nowhere", batch); err != nil {
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
				var db deployBody
				if gob.NewDecoder(bytes.NewReader(br.rest())).Decode(&db) != nil {
					return
				}
				appendAckFrame(wr, id, db.Seq, 0, "")
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
			if c.SendBatch(0, "s0", []data.Tuple{temp(int64(i+1), "L1", 1)}) != nil {
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
	if err := c.SendBatch(0, "s0", []data.Tuple{temp(99, "L9", 9)}); err == nil {
		t.Fatal("send on a broken link must error")
	}
	if time.Since(start) > remoteStallTimeout {
		t.Fatal("send on a broken link blocked instead of dropping")
	}
}

// TestShardSetAllRemoteTwoWorkers runs both shards of a set on two
// distinct workers: batch routing through RemoteHead.PushBatch, the
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
	c := set.homes[0].conn
	if err := c.SendBatch(0, "s0", []data.Tuple{temp(1, "L1", 20)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}

	w.Close() // mid-epoch: the coordinator still has batches to send

	// The reader notices the dead peer; sends and barriers then fail fast
	// (the first few sends may still land in the kernel buffer).
	waitFor(t, func() bool {
		c.SendBatch(0, "s0", []data.Tuple{temp(2, "L2", 21)})
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
		if err := good.SendBatch(0, "s0", []data.Tuple{temp(1, "L1", 20)}); err != nil {
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
