package stream

import (
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// TestMuxSharedPhysicalConn: many deployments to one worker share one
// pooled TCP connection, each stream's results route only to its own
// sink, and the socket lives until the last deployment releases it.
func TestMuxSharedPhysicalConn(t *testing.T) {
	before := WorkerConnCount()
	w := startEchoWorker(t)

	const n = 8
	conns := make([]*ShardConn, n)
	cols := make([]*Collector, n)
	for i := range conns {
		cols[i] = NewCollector(tempSchema())
		c, err := dialShard(w.Addr(), cols[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
		if err := c.Deploy(nil, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := WorkerConnCount(); got != before+1 {
		t.Fatalf("%d deployments to one worker hold %d connections, want 1", n, got-before)
	}

	// Each stream delivers to its own sink: stream i sends i+1 tuples.
	for i, c := range conns {
		for k := 0; k <= i; k++ {
			if err := c.sendFrame(0, "s0", []data.Tuple{temp(int64(k+1), "L1", float64(i))}, false, 0, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range conns {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i, col := range cols {
		if col.Len() != i+1 {
			t.Fatalf("stream %d sink has %d tuples, want %d (cross-stream leak?)", i, col.Len(), i+1)
		}
	}

	// Closing all but one stream keeps the shared socket (and the
	// survivor) alive.
	for _, c := range conns[:n-1] {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := WorkerConnCount(); got != before+1 {
		t.Fatalf("connection released while a stream still uses it (count %d)", got-before)
	}
	if err := conns[n-1].sendFrame(0, "s0", []data.Tuple{temp(100, "L1", 1)}, false, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := conns[n-1].Flush(); err != nil {
		t.Fatal(err)
	}
	if cols[n-1].Len() != n+1 {
		t.Fatalf("survivor stream broken after sibling closes: %d tuples", cols[n-1].Len())
	}
	if err := conns[n-1].Close(); err != nil {
		t.Fatal(err)
	}
	if got := WorkerConnCount(); got != before {
		t.Fatalf("last close must release the pooled connection (count %d)", got-before)
	}
}

// TestMuxFailureFailsAllStreams: the physical link is the failure domain
// — when the worker dies, every stream multiplexed over the connection
// observes the sticky error and every armed failover callback fires.
func TestMuxFailureFailsAllStreams(t *testing.T) {
	before := WorkerConnCount()
	w := startEchoWorker(t)

	c1, err := dialShard(w.Addr(), NewCollector(tempSchema()), 0)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := dialShard(w.Addr(), NewCollector(tempSchema()), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*ShardConn{c1, c2} {
		if err := c.Deploy(nil, 0, nil); err != nil {
			t.Fatal(err)
		}
		c.enableFailover(0)
	}
	fails := make(chan *ShardConn, 2)
	c1.armFailover(func(c *ShardConn) { fails <- c })
	c2.armFailover(func(c *ShardConn) { fails <- c })

	w.Close()

	seen := map[*ShardConn]bool{}
	for len(seen) < 2 {
		select {
		case c := <-fails:
			seen[c] = true
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of 2 streams notified after worker death", len(seen))
		}
	}
	if c1.Err() == nil || c2.Err() == nil {
		t.Fatal("both streams must carry the sticky link error")
	}
	// The dead connection is evicted: no pooled socket remains.
	if got := WorkerConnCount(); got != before {
		t.Fatalf("dead connection still pooled (count %d)", got-before)
	}
	// severLink on one stream after the fact stays idempotent.
	c1.severLink()
	c2.severLink()
}

// TestMuxTickFansOutPerStream: ticks advance only the replicas of their
// own stream — window expiry on one deployment must not disturb another.
func TestMuxTickFansOutPerStream(t *testing.T) {
	w := startEchoWorker(t)
	col1, col2 := NewCollector(tempSchema()), NewCollector(tempSchema())
	c1, err := dialShard(w.Addr(), col1, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := dialShard(w.Addr(), col2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c1.Deploy(nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := c2.Deploy(nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := c1.sendFrame(0, "s0", []data.Tuple{temp(1, "L1", 1)}, false, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := c2.sendFrame(0, "s0", []data.Tuple{temp(1, "L1", 2)}, false, 0, false); err != nil {
		t.Fatal(err)
	}
	// Advance only stream 1 far past the echo replica's 2m window: its
	// window retracts (a delete lands in col1), stream 2 stays put.
	if err := c1.Tick(vtime.Time(10 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := c1.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	dels := 0
	for _, tu := range col1.Snapshot() {
		if tu.Op == data.Delete {
			dels++
		}
	}
	if dels != 1 {
		t.Fatalf("stream 1 window expiry produced %d deletes, want 1", dels)
	}
	for _, tu := range col2.Snapshot() {
		if tu.Op == data.Delete {
			t.Fatal("stream 2 saw an expiry from stream 1's tick")
		}
	}
}
