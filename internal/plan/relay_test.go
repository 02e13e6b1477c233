package plan

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"aspen/internal/data"
	"aspen/internal/stream"
)

// Shard wire frame kinds the relay tells apart, numbered as stream's
// frameKind (internal/stream/wire.go), whose numbering is stable across
// protocol revisions.
const (
	frameKindData   = 0
	frameKindTick   = 1
	frameKindResult = 6
)

// frameRelay is a loopback TCP relay in front of one shard worker that reads
// the shard wire protocol's frames ([u32 LE length][u8 kind][body]) in both
// directions as it forwards them. It counts frames by kind and the rows of
// every result frame, so a test counts what the coordinator is sent and
// receives, and it can cut the link right after forwarding a result frame —
// before anything written behind that frame, such as the credit ack of the
// data frame that produced it, reaches the coordinator.
type frameRelay struct {
	l      net.Listener
	target string

	// up counts coordinator→worker frames by kind, down worker→coordinator.
	up, down   [16]atomic.Int64
	resultRows atomic.Int64
	// cutAt, when positive, arms a cut after the next result frame of at
	// least that many rows; cuts counts the cuts made.
	cutAt atomic.Int64
	cuts  atomic.Int64

	mu     sync.Mutex
	conns  []net.Conn
	closed bool
	wg     sync.WaitGroup
}

// startRelay starts a relay to the worker at target; it closes when the
// test ends.
func startRelay(t testing.TB, target string) *frameRelay {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &frameRelay{l: l, target: target}
	r.wg.Add(1)
	go r.accept()
	t.Cleanup(r.close)
	return r
}

func (r *frameRelay) addr() string { return r.l.Addr().String() }

func (r *frameRelay) accept() {
	defer r.wg.Done()
	for {
		coord, err := r.l.Accept()
		if err != nil {
			return // listener closed
		}
		worker, err := net.Dial("tcp", r.target)
		if err != nil {
			coord.Close()
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			coord.Close()
			worker.Close()
			return
		}
		r.conns = append(r.conns, coord, worker)
		r.mu.Unlock()
		// cut severs the connection from the worker side first, then half-closes
		// toward the coordinator, so everything already forwarded arrives
		// ahead of the end of stream.
		cut := func() {
			worker.Close()
			coord.(*net.TCPConn).CloseWrite()
		}
		r.wg.Add(2)
		go func() {
			defer r.wg.Done()
			r.pump(worker, coord, &r.up, false, cut)
			worker.Close()
			coord.Close()
		}()
		go func() {
			defer r.wg.Done()
			r.pump(coord, worker, &r.down, true, cut)
		}()
	}
}

// pump forwards frames from src to dst, counting them; from the worker side
// (result true) it also counts result rows and makes an armed cut.
func (r *frameRelay) pump(dst, src net.Conn, counts *[16]atomic.Int64, results bool, cut func()) {
	br := bufio.NewReader(src)
	var hdr [4]byte
	var body []byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			cut()
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil || n == 0 {
			cut()
			return
		}
		kind := body[0]
		counts[kind&15].Add(1)
		if _, err := dst.Write(append(hdr[:], body...)); err != nil {
			cut()
			return
		}
		if !results || kind != frameKindResult {
			continue
		}
		// body: kind, uvarint stream id, then the batch's uvarint row count
		_, k := binary.Uvarint(body[1:])
		rows, _ := binary.Uvarint(body[1+k:])
		r.resultRows.Add(int64(rows))
		if at := r.cutAt.Load(); at > 0 && int64(rows) >= at && r.cutAt.CompareAndSwap(at, 0) {
			r.cuts.Add(1)
			cut()
			return
		}
	}
}

// armCut makes the relay cut the link after the next result frame of at
// least rows rows.
func (r *frameRelay) armCut(rows int) { r.cutAt.Store(int64(rows)) }

// sever cuts every live connection now, whether or not an armed cut fired.
func (r *frameRelay) sever() {
	r.cutAt.Store(0)
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
}

func (r *frameRelay) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.l.Close()
	r.sever()
	r.wg.Wait()
}

// relayCounts is a snapshot of a relay's counters.
type relayCounts struct{ data, ticks, results, rows int64 }

func (r *frameRelay) counts() relayCounts {
	return relayCounts{data: r.up[frameKindData].Load(), ticks: r.up[frameKindTick].Load(),
		results: r.down[frameKindResult].Load(), rows: r.resultRows.Load()}
}

func (c relayCounts) minus(o relayCounts) relayCounts {
	return relayCounts{c.data - o.data, c.ticks - o.ticks, c.results - o.results, c.rows - o.rows}
}

// callSplitter is an engine input seen by the generator: it hands each
// batch to in as calls PushBatch calls, and counts the tuples of each shard
// of p the batch routes to (the join key, column 0, as the exchange routes).
type callSplitter struct {
	in     stream.Operator
	calls  int
	p      uint64
	h      data.Hasher
	shards []int
}

func (s *callSplitter) Schema() *data.Schema { return s.in.Schema() }

func (s *callSplitter) Push(t data.Tuple) { s.PushBatch([]data.Tuple{t}) }

func (s *callSplitter) PushBatch(ts []data.Tuple) {
	for _, t := range ts {
		s.shards[s.h.HashOn(t, []int{0})%s.p]++
	}
	for k := range s.calls {
		s.in.PushBatch(ts[k*len(ts)/s.calls : (k+1)*len(ts)/s.calls])
	}
}

// frames reports how many data frames the exchange ships for the tuples
// counted since the last call, if it ships each shard's batch when full and
// at the tick, and resets the count.
func (s *callSplitter) frames() int64 {
	n := int64(0)
	for j, c := range s.shards {
		n += int64((c + stream.ShardBatchCap - 1) / stream.ShardBatchCap)
		s.shards[j] = 0
	}
	return n
}

// TestResultFramesPerEpoch pins the frames the join+aggregate pipeline
// exchanges at P=2 over ten epochs, each some generator epochs of two
// 32-tuple batches pushed as calls PushBatch calls per input, one tick and
// a Flush, counted where the coordinator writes and reads them.
//
// Data frames: the exchange keeps a worker-hosted shard's batch across calls
// and ships it when it holds stream.ShardBatchCap tuples or at the tick, so
// an epoch costs one frame per input and shard, plus one per full batch,
// however many calls pushed it (before, one per call and shard: 160 for the
// four-call case). The splitter counts what each shard is routed and the
// test derives that number exactly.
//
// Result frames: every replica call — a data frame into one of its heads,
// or a tick — returns at most one, however many rows it emits. With one
// replica per worker (W=2) that is at most data frames + ticks; with both
// replicas on one worker (W=1) a tick frame reaches two replicas and is two
// replica calls. The counts are exact: routing, and which calls emit,
// follow from the generator alone. Before results were coalesced, every
// one of the 1 200 aggregate rows of the one-call case travelled in a frame
// of its own.
func TestResultFramesPerEpoch(t *testing.T) {
	for _, c := range []struct {
		name                  string
		workers, feeds, calls int
		want                  relayCounts // summed over the workers
	}{
		{"W=1", 1, 1, 1, relayCounts{data: 40, ticks: 10, results: 25, rows: 1200}},
		{"W=2", 2, 1, 1, relayCounts{data: 40, ticks: 20, results: 25, rows: 1200}},
		{"W=1,calls=4", 1, 1, 4, relayCounts{data: 40, ticks: 10, results: 25, rows: 1200}},
		{"W=1,feeds=20,calls=4", 1, 20, 4, relayCounts{data: 60, ticks: 10, results: 40, rows: 2080}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var relays []*frameRelay
			var nodes []string
			for range c.workers {
				wk, err := NewWorker("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { wk.Close() })
				r := startRelay(t, wk.Addr())
				relays, nodes = append(relays, r), append(nodes, r.addr())
			}
			p := compileRemoteJoinAgg(t, 2, nodes, false)
			total := func() (sum relayCounts) {
				for _, r := range relays {
					c := r.counts()
					sum = relayCounts{sum.data + c.data, sum.ticks + c.ticks, sum.results + c.results, sum.rows + c.rows}
				}
				return sum
			}
			l := &callSplitter{in: p.l, calls: c.calls, p: 2, shards: make([]int, 2)}
			r := &callSplitter{in: p.r, calls: c.calls, p: 2, shards: make([]int, 2)}
			var g epochGen
			var frames int64 // data frames the exchange should have shipped
			epoch := func() {
				for range c.feeds {
					g.feed(l, r)
				}
				p.eng.Advance(g.ts)
				p.dep.Flush()
				frames += l.frames() + r.frames()
			}
			for range 20 {
				epoch()
			}
			const epochs = 10
			before := total()
			frames = 0
			for range epochs {
				epoch()
			}
			got := total().minus(before)
			if got.data != frames {
				t.Errorf("%d data frames, want %d: one per shard and input per tick, and one per full batch", got.data, frames)
			}
			replicaTicks := got.ticks * int64(2/c.workers)
			if got.results > got.data+replicaTicks {
				t.Errorf("%d result frames for %d data frames and %d replica ticks", got.results, got.data, replicaTicks)
			}
			if got != c.want {
				t.Errorf("%d epochs: %+v, want %+v", epochs, got, c.want)
			}
		})
	}
}
