package stream

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// gateReplica is a replica head whose PushBatch blocks until release is
// closed, signalling entered on its first call, and then sends what it was
// pushed, reporting the send's error on sent.
type gateReplica struct {
	send    ResultSender
	entered chan struct{}
	release chan struct{}
	sent    chan error
	once    sync.Once
}

func newGateReplica() *gateReplica {
	return &gateReplica{entered: make(chan struct{}), release: make(chan struct{}), sent: make(chan error, 1)}
}

func (g *gateReplica) Schema() *data.Schema { return keySchema() }

func (g *gateReplica) Push(t data.Tuple) { g.PushBatch([]data.Tuple{t}) }

func (g *gateReplica) PushBatch(ts []data.Tuple) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	err := g.send(ts)
	select {
	case g.sent <- err:
	default:
	}
}

func (g *gateReplica) deploy(_ []byte, _ int, _ []byte, send ResultSender) (map[string]Operator, []Advancer, []Checkpointer, error) {
	g.send = send
	return map[string]Operator{"in": g}, nil, nil, nil
}

// TestWorkerOverloadBlocksSender pins the overload policy for a replica
// slower than its frames: block. The worker acks a frame's credit once it
// is queued on the replica's executor, so with the replica stuck in one
// call its queue fills (shardQueueCap frames), the link's frame loop blocks
// on the next, and the coordinator's sender has its window of
// remoteInflight un-acked frames left: it sends at most remoteInflight +
// shardQueueCap frames beyond the one the replica is running, then waits
// for a credit until the stall timeout fails the link.
func TestWorkerOverloadBlocksSender(t *testing.T) {
	g := newGateReplica()
	w, err := NewShardWorker("127.0.0.1:0", g.deploy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	t.Cleanup(func() { close(g.release) }) // before the worker closes: cleanups run last-in first-out
	const stall = 300 * time.Millisecond
	c, err := dialShard(w.Addr(), NewCollector(keySchema()), stall)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Deploy(nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	batch := []data.Tuple{data.NewTuple(1, data.Int(1))}
	sent := 0
	var blocked time.Duration
	for {
		start := time.Now()
		err := c.sendFrame(0, "in", batch, false, 0, false)
		if err != nil {
			blocked = time.Since(start)
			break
		}
		if sent++; sent > 4*(remoteInflight+shardQueueCap) {
			t.Fatalf("%d frames sent to a replica stuck in its first call, and the sender never blocked", sent)
		}
	}
	if limit := remoteInflight + shardQueueCap + 1; sent < remoteInflight || sent > limit {
		t.Fatalf("the sender blocked after %d frames, want between remoteInflight (%d) and %d", sent, remoteInflight, limit)
	}
	if blocked < stall {
		t.Fatalf("the blocked send failed after %v, before the stall timeout of %v", blocked, stall)
	}
	if c.Err() == nil {
		t.Fatal("the stall timeout did not fail the link")
	}
	select {
	case <-g.entered:
	default:
		t.Fatal("the replica never ran")
	}
}

// executors counts the goroutines running an executor, in this process.
func executors() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("stream.(*executor).run("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settleExecutors waits for the executor goroutine count to reach want.
func settleExecutors(t *testing.T, label string, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := executors()
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d executor goroutines, want %d", label, n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWorkerExecutorLifecycle pins that a worker's executor goroutines end
// with their replica: on undeploy, on the stream's close, when the
// connection is lost, and when the worker closes.
func TestWorkerExecutorLifecycle(t *testing.T) {
	// The baseline is the count once it holds still: an executor an earlier
	// test closed may still be leaving its goroutine.
	base := executors()
	for n := -1; n != base; time.Sleep(20 * time.Millisecond) {
		n, base = base, executors()
	}
	w, err := NewShardWorker("127.0.0.1:0", orderDeploy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	dial := func(shards ...int) *ShardConn {
		t.Helper()
		c, err := dialShard(w.Addr(), NewCollector(orderSchema()), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range shards {
			if err := c.Deploy(nil, j, nil); err != nil {
				t.Fatal(err)
			}
		}
		// Give every replica work, so an executor has run before it ends.
		for _, j := range shards {
			if err := c.sendFrame(j, "in", []data.Tuple{data.NewTuple(1, data.Int(int64(j)))}, false, 0, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Tick(vtime.Time(1)); err != nil {
			t.Fatal(err)
		}
		return c
	}

	a := dial(0, 1, 2, 3)
	settleExecutors(t, "four shards deployed", base+4)
	if err := a.Undeploy(1); err != nil {
		t.Fatal(err)
	}
	settleExecutors(t, "one shard undeployed", base+3)

	b := dial(0, 1) // a second stream on the same connection
	settleExecutors(t, "a second stream deployed", base+5)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	settleExecutors(t, "the second stream closed", base+3)

	a.severLink()
	settleExecutors(t, "the connection lost", base)
	a.Close()

	c := dial(4, 5)
	settleExecutors(t, "two shards on a new connection", base+2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	settleExecutors(t, "the worker closed", base)
	c.Close()
}

// watchConn is a net.Conn that counts writes attempted after its Close.
type watchConn struct {
	net.Conn
	closed atomic.Bool
	late   atomic.Int32
}

func (c *watchConn) Write(b []byte) (int, error) {
	if c.closed.Load() {
		c.late.Add(1)
	}
	return c.Conn.Write(b)
}

func (c *watchConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// TestWorkerReplicaMidCallWhenLinkDies: a replica still inside a call when
// its coordinator link dies finishes the call without a panic, its send
// fails instead of writing to the closed connection, and the link's
// handler returns only once the replica's executor has ended.
func TestWorkerReplicaMidCallWhenLinkDies(t *testing.T) {
	g := newGateReplica()
	client, server := net.Pipe()
	conn := &watchConn{Conn: server}
	w := &ShardWorker{deploy: g.deploy}
	served := make(chan struct{})
	go func() {
		defer close(served)
		w.serveConn(conn)
	}()
	go func() { _, _ = io.Copy(io.Discard, client) }()
	_, err := client.Write(shardFrames(
		requestFrame(frameDeploy, 1, 1, appendDeployBody(nil, 0, nil, nil)),
		func(w *wireWriter) {
			m := w.begin(frameData)
			w.buf = appendUvarint(w.buf, 1)
			w.buf = appendHeadKey(w.buf, 0, "in")
			w.buf = appendBatch(w.buf, []data.Tuple{data.NewTuple(1, data.Int(7))})
			w.end(m)
		},
	))
	if err != nil {
		t.Fatal(err)
	}
	<-g.entered
	client.Close()
	for deadline := time.Now().Add(10 * time.Second); !conn.closed.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker did not close a lost link")
		}
	}
	select {
	case <-served:
		t.Fatal("the link's handler returned while its replica was still in a call")
	case <-time.After(20 * time.Millisecond):
	}
	close(g.release)
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Fatal("the link's handler did not return once its replica finished")
	}
	if err := <-g.sent; err == nil {
		t.Fatal("a replica's send on a lost link reported success")
	}
	if n := conn.late.Load(); n != 0 {
		t.Fatalf("%d writes to the connection after it closed", n)
	}
}
