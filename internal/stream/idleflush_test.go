package stream

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file holds the idle-flush tests: without failover a Flush with
// nothing sent since a barrier every home acked posts no barrier, and one
// with anything sent — a batch, a tick, a failover, a rescale — posts
// exactly one per home and returns only once that barrier is acked. With
// failover armed every Flush barriers: the barrier is what finds a link
// lost since the last one.

// flushRelay is a loopback TCP relay in front of one shard worker that
// counts the barrier (flush) frames the coordinator sends it. A frame is
// counted before it is forwarded, so a Flush that returned has its frames
// counted.
type flushRelay struct {
	l       net.Listener
	flushes atomic.Int64
	mu      sync.Mutex
	conns   []net.Conn
	wg      sync.WaitGroup
}

// startFlushRelay starts a relay to the worker at target; it closes when
// the test ends.
func startFlushRelay(t *testing.T, target string) *flushRelay {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &flushRelay{l: l}
	r.wg.Add(1)
	go r.accept(target)
	t.Cleanup(r.close)
	return r
}

func (r *flushRelay) addr() string { return r.l.Addr().String() }

func (r *flushRelay) accept(target string) {
	defer r.wg.Done()
	for {
		coord, err := r.l.Accept()
		if err != nil {
			return
		}
		worker, err := net.Dial("tcp", target)
		if err != nil {
			coord.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, coord, worker)
		r.mu.Unlock()
		r.wg.Add(2)
		go func() {
			defer r.wg.Done()
			io.Copy(coord, worker)
			coord.Close()
			worker.Close()
		}()
		go func() {
			defer r.wg.Done()
			r.forward(worker, coord)
			coord.Close()
			worker.Close()
		}()
	}
}

// forward copies the coordinator's frames ([u32 LE length][u8 kind][body])
// to the worker, counting the flush frames.
func (r *flushRelay) forward(dst, src net.Conn) {
	br := bufio.NewReader(src)
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		frame := make([]byte, 4+binary.LittleEndian.Uint32(hdr[:]))
		copy(frame, hdr[:])
		if _, err := io.ReadFull(br, frame[4:]); err != nil || len(frame) == 4 {
			return
		}
		if frameKind(frame[4]) == frameFlush {
			r.flushes.Add(1)
		}
		if _, err := dst.Write(frame); err != nil {
			return
		}
	}
}

func (r *flushRelay) close() {
	r.l.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// countingHome wraps an in-process home and counts the barriers posted on
// it: each startFlush queues one barrier message on the home's executor.
type countingHome struct {
	shardHome
	posts atomic.Int64
}

func (h *countingHome) startFlush(wg *sync.WaitGroup) (chan reply, error) {
	h.posts.Add(1)
	return h.shardHome.startFlush(wg)
}

// countLocalBarriers wraps shard j's home, which must be in-process, in a
// countingHome and returns it.
func countLocalBarriers(t *testing.T, s *ShardSet, j int) *countingHome {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.homes[j].(*localHome)
	if !ok {
		t.Fatalf("shard %d is not in-process", j)
	}
	h := &countingHome{shardHome: old}
	s.homes[j] = h
	for i := range s.hosts {
		if s.hosts[i] == shardHome(old) {
			s.hosts[i] = h
		}
	}
	return h
}

// barrierCounts reads the barriers posted so far on the counted homes.
func barrierCounts(local *countingHome, relays ...*flushRelay) []int64 {
	out := []int64{local.posts.Load()}
	for _, r := range relays {
		out = append(out, r.flushes.Load())
	}
	return out
}

// requireBarriers fails unless every counted home got want barriers
// between the counts before and after.
func requireBarriers(t *testing.T, label string, before, after []int64, want int64) {
	t.Helper()
	for i := range before {
		if got := after[i] - before[i]; got != want {
			t.Fatalf("%s: home %d got %d barriers, want %d (before %v, after %v)", label, i, got, want, before, after)
		}
	}
}

// TestIdleFlushPostsNoBarrier counts the barriers each Flush posts on a set
// with one shard in-process and one on a loopback worker: one per home after
// a push or a tick, none when the previous Flush completed and nothing was
// sent since — unless failover is armed, where an idle Flush still posts
// one to probe the links. The result stays equal to the serial reference
// throughout.
func TestIdleFlushPostsNoBarrier(t *testing.T) {
	for _, failover := range []bool{false, true} {
		t.Run(fmt.Sprintf("failover=%t", failover), func(t *testing.T) {
			_, addrs := startFoWorkers(t, 1)
			relay := startFlushRelay(t, addrs[0])
			h := deployFo(t, ShardConfig{Nodes: []string{relay.addr()}, LocalDeploy: foDeploy,
				Recovery: Recovery{Failover: failover, CheckpointEvery: 2}}, []string{"", relay.addr()}, nil)
			local := countLocalBarriers(t, h.set, 0)
			idle := int64(0)
			if failover {
				idle = 1
			}
			evs := foEvents(41, 200)
			step := func(label string, evs []foEvent, want int64) {
				t.Helper()
				before := barrierCounts(local, relay)
				h.feed(evs)
				h.set.Flush()
				requireBarriers(t, label, before, barrierCounts(local, relay), want)
				requireSameMat(t, label, h.mat, h.refMat)
			}
			step("first flush after deploy", nil, 1)
			step("idle", nil, idle)
			step("push", evs[:9], 1) // evs[9] is the first tick
			step("idle after a push", nil, idle)
			step("idle again", nil, idle)
			step("tick", evs[9:10], 1)
			step("idle after a tick", nil, idle)
			step("pushes and ticks", evs[10:], 1)
			step("idle at the end", nil, idle)
			if got := h.failovers(); len(got) != 0 {
				t.Fatalf("failovers ran: %+v", got)
			}
		})
	}
}

// TestConcurrentFlushersWaitForTheirOwnBarrier runs two Flush callers at
// once, each after its own push, while the replica is held inside the
// first push. Neither may return before a barrier that covers its push has
// been acked: the second caller must not take the first caller's barrier,
// posted but not yet acked, as proof of its own. One case pushes both
// batches before either flush; the other pushes the second caller's batch
// after the first caller's barrier is posted. Both run with the replica
// in-process and on a worker.
func TestConcurrentFlushersWaitForTheirOwnBarrier(t *testing.T) {
	for _, remote := range []bool{false, true} {
		for _, late := range []bool{false, true} {
			t.Run(fmt.Sprintf("remote=%t/late=%t", remote, late), func(t *testing.T) {
				gate := make(chan struct{})
				var gateOnce sync.Once
				open := func() { gateOnce.Do(func() { close(gate) }) }
				loc := []string{""}
				var relay *flushRelay
				if remote {
					w, err := NewShardWorker("127.0.0.1:0", wedgeDeploy(gate))
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { w.Close() })
					relay = startFlushRelay(t, w.Addr())
					loc[0] = relay.addr()
				}
				h := deployFo(t, ShardConfig{LocalDeploy: wedgeDeploy(gate)}, loc, nil)
				// Registered last, so it runs first: an open gate lets the
				// replica drain, and Close return.
				t.Cleanup(open)
				h.set.Flush() // the deploy's own barrier, before anything blocks
				posted := func() int64 { return relay.flushes.Load() }
				if !remote {
					local := countLocalBarriers(t, h.set, 0)
					posted = local.posts.Load
				}
				base := posted()

				a, b := temp(1, "L1", 20), temp(2, "L2", 21)
				h.feed([]foEvent{{t: a}})
				if !late {
					h.feed([]foEvent{{t: b}})
				}
				doneA, doneB := make(chan struct{}), make(chan struct{})
				go func() { defer close(doneA); h.set.Flush() }()
				waitFor(t, func() bool { return posted() > base })
				if late {
					h.feed([]foEvent{{t: b}})
				}
				go func() { defer close(doneB); h.set.Flush() }()
				select {
				case <-doneA:
					t.Fatal("the first Flush returned while its push was held")
				case <-doneB:
					t.Fatal("the second Flush returned while its push was held")
				case <-time.After(100 * time.Millisecond):
				}
				open()
				<-doneA
				<-doneB
				requireSameMat(t, "after both flushes", h.mat, h.refMat)
				if got := posted() - base; got != 2 {
					t.Fatalf("the two flushes posted %d barriers, want 2", got)
				}
			})
		}
	}
}

// TestPushRacingFlush pushes and ticks on one goroutine while another
// flushes in a loop, on a mixed in-process/worker set with failover off and
// armed. A Flush racing a push may or may not cover it; the Flush after
// the last push must, and one more finds nothing to barrier unless
// failover is armed.
func TestPushRacingFlush(t *testing.T) {
	for _, failover := range []bool{false, true} {
		t.Run(fmt.Sprintf("failover=%t", failover), func(t *testing.T) {
			_, addrs := startFoWorkers(t, 1)
			relay := startFlushRelay(t, addrs[0])
			h := deployFo(t, ShardConfig{Nodes: []string{relay.addr()}, LocalDeploy: foDeploy,
				Recovery: Recovery{Failover: failover, CheckpointEvery: 2}}, []string{"", relay.addr(), "", relay.addr()}, nil)
			evs := foEvents(43, 600)
			stop := make(chan struct{})
			var flushes sync.WaitGroup
			flushes.Add(1)
			go func() {
				defer flushes.Done()
				for {
					select {
					case <-stop:
						return
					default:
						h.set.Flush()
					}
				}
			}()
			for i := 0; i < len(evs); i += 7 {
				h.feed(evs[i:min(i+7, len(evs))])
			}
			close(stop)
			flushes.Wait()
			h.check("after the racing pushes")
			before := relay.flushes.Load()
			h.check("idle")
			want := int64(0)
			if failover {
				want = 1
			}
			if got := relay.flushes.Load() - before; got != want {
				t.Fatalf("an idle Flush after the race posted %d barriers, want %d", got, want)
			}
		})
	}
}

// TestFlushAfterKillBarriersAgain kills a worker after a barrier completed,
// so nothing is left unacked when it dies. The next Flush must wait out the
// failover (which replays the dead worker's log onto the survivor) and
// barrier the new topology again: a failover counts as work sent, and the
// Flush returns only once a barrier that read the failover's count is
// acked. Its first pass may run before the failover or after it, so the
// survivor sees one or two barriers.
func TestFlushAfterKillBarriersAgain(t *testing.T) {
	workers, addrs := startFoWorkers(t, 2)
	relays := []*flushRelay{startFlushRelay(t, addrs[0]), startFlushRelay(t, addrs[1])}
	nodes := []string{relays[0].addr(), relays[1].addr()}
	h := deployFo(t, ShardConfig{Nodes: nodes, LocalDeploy: foDeploy,
		Recovery: Recovery{Failover: true, CheckpointEvery: 2, StallTimeout: 2 * time.Second}},
		[]string{nodes[0], nodes[1], nodes[0], nodes[1]}, nil)
	evs := foEvents(47, 300)
	h.feed(evs[:150])
	h.check("before the kill")

	var dead *ShardConn
	for _, c := range h.conns() {
		if c.Addr() == nodes[0] {
			dead = c
		}
	}
	sentBefore, survivor := h.set.sent.Load(), relays[1].flushes.Load()
	workers[0].Close()
	// Once the link reports its failure, the failover is scheduled.
	waitFor(t, func() bool { return dead.Err() != nil })
	h.set.Flush()
	if evts := h.failovers(); len(evts) != 1 || evts[0].Err != nil || evts[0].To != nodes[1] {
		t.Fatalf("failovers after Flush = %+v, want one onto %s", evts, nodes[1])
	}
	if got := relays[1].flushes.Load() - survivor; got < 1 || got > 2 {
		t.Fatalf("the Flush after the failover posted %d barriers on the survivor, want 1 or 2", got)
	}
	if sent, covered := h.set.sent.Load(), h.set.covered.Load(); sent == sentBefore || covered != sent {
		t.Fatalf("sent %d → %d, covered %d: the failover must count as sent work, and the Flush cover it", sentBefore, sent, covered)
	}
	requireSameMat(t, "after the failover", h.mat, h.refMat)
	h.feed(evs[150:])
	h.check("final")
}

// TestRescaleBetweenFlushes rescales a set between two flushes: the rescale
// counts as work sent, so the Flush after it barriers every home of the
// new topology once, and the one after that posts nothing (one per home
// with failover armed).
func TestRescaleBetweenFlushes(t *testing.T) {
	for _, failover := range []bool{false, true} {
		t.Run(fmt.Sprintf("failover=%t", failover), func(t *testing.T) {
			_, addrs := startFoWorkers(t, 2)
			relays := []*flushRelay{startFlushRelay(t, addrs[0]), startFlushRelay(t, addrs[1])}
			nodes := []string{relays[0].addr(), relays[1].addr()}
			h := deployFo(t, ShardConfig{Nodes: nodes, LocalDeploy: foDeploy,
				Recovery: Recovery{Failover: failover, CheckpointEvery: 2}}, []string{nodes[0], nodes[0]}, nil)
			counts := func() []int64 { return []int64{relays[0].flushes.Load(), relays[1].flushes.Load()} }
			idle := int64(0)
			if failover {
				idle = 1
			}
			evs := foEvents(53, 300)
			h.feed(evs[:120])
			h.check("before the rescale")
			before := counts()
			h.check("idle before the rescale")
			// Only the first worker hosts shards before the rescale.
			requireBarriers(t, "idle before the rescale", before[:1], counts()[:1], idle)
			requireBarriers(t, "idle before the rescale", before[1:], counts()[1:], 0)

			mustRescale(t, h.set, []string{nodes[0], nodes[1]})
			before = counts()
			h.check("first flush after the rescale")
			requireBarriers(t, "first flush after the rescale", before, counts(), 1)
			before = counts()
			h.check("idle after the rescale")
			requireBarriers(t, "idle after the rescale", before, counts(), idle)

			h.feed(evs[120:])
			h.check("final")
		})
	}
}

// TestIdleFlushAllocs pins a Flush with nothing sent since the last one at
// zero allocations: it ships no pending batch and posts no barrier, with
// every shard in-process (W=0) or on one or two loopback workers. Failover
// is off: with it armed every Flush barriers.
func TestIdleFlushAllocs(t *testing.T) {
	for _, workers := range []int{0, 1, 2} {
		t.Run(fmt.Sprintf("W=%d", workers), func(t *testing.T) {
			_, addrs := startFoWorkers(t, workers)
			loc := make([]string, 4)
			for j := range loc {
				if workers > 0 {
					loc[j] = addrs[j%workers]
				}
			}
			h := deployFo(t, ShardConfig{Nodes: addrs, LocalDeploy: foDeploy}, loc, nil)
			h.feed(foEvents(59, 400))
			h.check("warm")
			if n := testing.AllocsPerRun(256, h.set.Flush); n != 0 {
				t.Errorf("an idle Flush allocates %v times, want 0", n)
			}
			if h.set.covered.Load() != h.set.sent.Load() {
				t.Fatal("the set is not idle: the measured flushes barriered")
			}
		})
	}
}
