package stream

import (
	"fmt"
	"sync"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// This file is the engine's partition-parallel execution layer: a pipeline
// is replicated P ways, a Sharder exchange operator routes every tuple to
// the replica owning its key partition, and a Merge funnel folds the
// replicas' outputs back into one sink. Because routing hashes the same
// canonical key encoding the stateful operators key their tables on
// (data.Hasher), join, aggregate and distinct state partitions cleanly by
// construction: all tuples of one group / join key land in one replica.
//
// Concurrency model: single writer per shard. Each shard owns one worker
// goroutine and one bounded FIFO queue; every message for replica j —
// tuple batches from any Sharder of the set, clock ticks, flush barriers —
// travels through queue j, so replica operators never see two goroutines
// and need no locks. Only the funnel sink behind Merge is shared.
//
// Batching: a Sharder ships an in-process shard's tuples at the end of each
// PushBatch call, and collects a worker-hosted shard's across calls (see
// Sharder.PushBatch for when they ship). A replica sees every tuple before
// the tick or barrier that followed its push; between two of those, a
// worker-hosted one takes each exchange's batch in turn rather than in the
// order the calls interleaved, which leaves the result multiset at every
// tick and barrier unchanged.

// ShardBatchCap is the capacity of recycled batch buffers: a Sharder ships
// a shard's pending batch once it holds this many tuples.
const ShardBatchCap = 256

// shardQueueCap bounds each shard's message queue; producers block when a
// worker falls this far behind (backpressure instead of unbounded memory).
const shardQueueCap = 16

type shardMsgKind uint8

const (
	msgData shardMsgKind = iota
	msgTick
	msgBarrier
)

// shardMsg is one queue entry. Data messages carry a tuple batch and the
// replica operator to deliver it to; ticks carry a clock instant for the
// shard's Advancers; barriers carry a WaitGroup the worker signals.
type shardMsg struct {
	head  Operator
	batch []data.Tuple
	now   vtime.Time
	wg    *sync.WaitGroup
	kind  shardMsgKind
}

// Recovery is how a deployment notices and survives the loss of a shard
// worker. It is declared here, where the shard set consumes it, and rides
// unchanged inside every description of a deployment above (plan.Topology
// embeds it; core.Config, smartcis.Options and the CLI flags embed that).
type Recovery struct {
	// Failover converts worker loss from fail-stop into checkpointed
	// redeploy: remote replicas checkpoint their operator state to the
	// coordinator at tick barriers, the per-stream replay/undo logs and
	// failure notification arm, and a dead or stalled worker's shards
	// redeploy — checkpoint plus replayed epochs — onto a surviving worker,
	// or in-process as the last resort, keeping Flush/Snapshot exact across
	// the loss (see the state machine on ShardSet). Without it the set still
	// rescales and checkpoints on demand, but worker loss stays fail-stop and
	// the hot path is untouched. Only meaningful with a worker topology.
	Failover bool
	// CheckpointEvery is the failover checkpoint cadence in clock ticks
	// (default 8); smaller values shrink replay logs, larger ones shrink
	// checkpoint traffic.
	CheckpointEvery int
	// StallTimeout bounds the connect and every ack wait on a shard worker
	// (flush/deploy barriers, in-flight credits, socket writes); a worker
	// silent past it is a detected failure. 0 keeps the package default
	// (30s).
	StallTimeout time.Duration
}

// ShardConfig is everything a ShardSet needs to bring a shard replica into
// existence at a home — at first deployment, when a Rescale moves it, and
// when failover re-homes the shards of a lost worker: the replica wire
// spec, the builder for in-process homes, the merged result sink every
// home emits into, the candidate worker addresses, and the recovery policy.
type ShardConfig struct {
	// Spec is the encoded replica subplan every shard deploys from
	// (plan.encodeReplica); workers and LocalDeploy receive it verbatim, so
	// hand-wired pipelines whose LocalDeploy ignores it may leave it nil.
	Spec []byte
	// Nodes lists worker addresses failover may dial for a replacement
	// (typically the deployment's original topology). The failed address is
	// skipped; a restarted worker on the same address is usable again by
	// the next failover.
	Nodes []string
	// Sink is the deployment's merge funnel: worker streams decode results
	// into it, undo retractions push through it, and in-process replicas
	// emit into it.
	Sink Operator
	// LocalDeploy builds an in-process replica from Spec — the same builder
	// shard workers run (plan's DeployReplica), or a hand-wired pipeline's
	// per-shard build. nil leaves the set without in-process homes: no ""
	// placement, and no last resort when every worker is unreachable.
	LocalDeploy DeployFunc
	Recovery
	// OnFailover, when set, observes every completed (or abandoned)
	// failover — tests and operators hook it. It runs with no operator
	// locks held, but before the failover is accounted finished, so it
	// must not call Flush/Snapshot (they wait for pending failovers).
	OnFailover func(FailoverEvent)
}

// FailoverEvent describes one failover outcome.
type FailoverEvent struct {
	// Shards lists the shard indexes that moved.
	Shards []int
	// From is the lost worker's address; To is the replacement worker
	// address, or "" for an in-process replacement.
	From, To string
	// Err, when non-nil, reports that every candidate was exhausted and the
	// shards were abandoned (the pre-failover fail-stop behavior).
	Err error
}

// failoverRuntime is the ShardSet's failover (and rescale) bookkeeping.
type failoverRuntime struct {
	// fmu serializes failovers and rescales: a double failure (or a rescale
	// racing a failure) queues behind the first.
	fmu sync.Mutex
	// pending counts scheduled-but-unfinished failovers; Flush waits for it
	// to reach zero so its barrier covers replayed work.
	pmu     sync.Mutex
	cond    *sync.Cond
	pending int
}

func (f *failoverRuntime) schedule() {
	f.pmu.Lock()
	f.pending++
	f.pmu.Unlock()
}

func (f *failoverRuntime) finish() {
	f.pmu.Lock()
	f.pending--
	f.cond.Broadcast()
	f.pmu.Unlock()
}

// waitIdle blocks until no failover is pending and reports whether it had
// to wait.
func (f *failoverRuntime) waitIdle() bool {
	f.pmu.Lock()
	defer f.pmu.Unlock()
	waited := false
	for f.pending > 0 {
		waited = true
		f.cond.Wait()
	}
	return waited
}

// home is where one shard's replica lives. conn set: behind that worker
// stream — the worker owns the replica's operators, batches route over the
// wire instead of through the shard's queue. conn nil: in this process —
// heads, advs and cks are what LocalDeploy returned: the entry points by
// scan name, the time-driven operators the queue's ticks advance, and the
// stateful operators in the DeployFunc's deterministic order, so rescales
// and coordinator snapshots checkpoint a local shard exactly like a remote
// one and the state restores at any other home.
type home struct {
	conn  *ShardConn
	heads map[string]Operator
	advs  []Advancer
	cks   []Checkpointer
}

// addr names the home the way placements do: the worker address, "" for
// in-process.
func (h home) addr() string {
	if h.conn == nil {
		return ""
	}
	return h.conn.addr
}

// ShardSet is the runtime of one partition-parallel deployment: P worker
// goroutines, their queues, a shared freelist of batch buffers, and each
// shard's home — in this process or behind a ShardWorker.
//
// Lifecycle: NewShardSet → NewSharder per exchange → Deploy (every
// replica built and placed) → data flows through Sharders → Flush
// (barrier) whenever a consistent snapshot of the downstream sink is
// needed → Close. Close is safe while producers (engine ticks,
// still-subscribed Sharders) are live: the set drops everything sent after
// the close instead of panicking, so the detach a stopping deployment
// performs (Input.Unsubscribe, Engine.UntrackWindow) can land before or
// after the set closes without a window of panics between.
//
// # Failover state machine
//
// With ShardConfig.Failover, a remote shard moves through these states:
//
//	SERVING ──(sticky link error: reset, EOF, missed flush-ack or
//	│          credit deadline)──▶ QUARANTINED
//	│
//	│   QUARANTINED: the connection's sends stop reaching the worker but
//	│   keep appending to its replay log, so nothing pushed during the
//	│   outage is lost; results can no longer arrive (the link is severed
//	│   before the logs are read). fail() notifies the set before any
//	│   barrier waiter observes the error, so Flush always finds the
//	│   failover pending and waits it out.
//	│
//	QUARANTINED ──(acquire every Sharder lock and the set lock: all
//	│              producers and the tick fan-out are excluded, so the
//	│              replay log is final)──▶ RESTORING
//	│
//	RESTORING (still under the locks):
//	│   1. undo — retract the connection's un-checkpointed output from
//	│      the sink, newest first (delta operators unwind exactly under
//	│      reverse-order inverse application);
//	│   2. stage — build each moved shard from the replica spec plus its
//	│      last committed checkpoint at the next candidate home: a
//	│      surviving stream, a freshly dialed Nodes worker, or in-process
//	│      via LocalDeploy;
//	│   3. replay — deliver the logged inputs in wire order. Holding the
//	│      locks through the stage matters: a replica must never receive
//	│      a live clock tick before its replayed (older) input, or its
//	│      windows would advance past tuples that still have to arrive.
//	│
//	RESTORING ──(install: flip exchange heads and shard routing to the new
//	│            home, release the locks)──▶ SERVING. Deployment.Flush/
//	│            Snapshot barriers are exact throughout: the undo/replay
//	│            pair restores exactly-once delivery, and Flush waits out
//	│            any pending failover before trusting a barrier.
//	│
//	└──(every candidate exhausted)──▶ ABANDONED (fail-stop: the shard's
//	    contribution freezes at its last checkpoint minus the undo;
//	    reported via OnFailover.Err)
//
// A replacement that dies mid-restore is handled by the same machine: its
// own failure queues a failover that undoes whatever the partial replay
// emitted, while the original failover retries the next candidate with the
// full backlog.
type ShardSet struct {
	p      int
	queues []chan shardMsg
	free   chan []data.Tuple
	wg     sync.WaitGroup
	// homes[j] is shard j's current home; only stageLocked builds one and
	// only installLocked assigns one. uconns holds each distinct worker
	// stream once, for tick fan-out and barriers. A ShardConn is a logical
	// stream: connections to the same worker share one pooled socket, and
	// a physical-link failure fails every stream on it, so each affected
	// deployment's failover runs independently.
	homes  []home
	uconns []*ShardConn
	// running[j] marks queue j's worker goroutine live: a shard that moved
	// remote leaves its (idle) worker parked, and a later move back must
	// not start a second one.
	running []bool
	// sharders lists the set's exchanges; installLocked rewires their
	// per-shard heads when a replica lands at a home.
	sharders []*Sharder
	// cfg is fixed by Deploy, except Nodes, which a Rescale rewrites under
	// mu; the other fields are read without it.
	cfg ShardConfig
	// emit is the ResultSender in-process replicas emit through: one func
	// value per set, one cfg.Sink acquisition per replica call.
	emit ResultSender
	fo   failoverRuntime
	// mu serializes in-flight queue sends against Close: senders hold it
	// for reading (per batch, not per tuple), Close for writing.
	mu      sync.RWMutex
	started bool
	closed  bool
}

// NewShardSet creates a set of p shards (p >= 1), not yet deployed.
func NewShardSet(p int) *ShardSet {
	if p < 1 {
		p = 1
	}
	s := &ShardSet{
		p:       p,
		queues:  make([]chan shardMsg, p),
		free:    make(chan []data.Tuple, p*shardQueueCap),
		homes:   make([]home, p),
		running: make([]bool, p),
	}
	s.fo.cond = sync.NewCond(&s.fo.pmu)
	for j := range s.queues {
		s.queues[j] = make(chan shardMsg, shardQueueCap)
	}
	return s
}

// Shards returns the partition width P.
func (s *ShardSet) Shards() int { return s.p }

// Deploy brings the set to life: it builds shard j's replica at loc[j] — a
// worker address, or "" for in-process — restoring states[j] when present,
// through the same stage/install routine Rescale and failover use, and
// starts serving. Call it once, after every Sharder of the set is built and
// before any of them receives data. On error nothing is left running:
// replicas already placed, their worker streams and queue workers are torn
// down. A successful Deploy hands the set its worker streams (Close
// barriers and closes them) and, with cfg.Failover, arms failure
// notification: a worker lost during Deploy fails the Deploy; one lost
// from here on fails over.
func (s *ShardSet) Deploy(cfg ShardConfig, loc []string, states map[int][]byte) error {
	if len(loc) != s.p {
		return fmt.Errorf("stream: Deploy placement names %d shards, set has %d", len(loc), s.p)
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 8
	}
	s.mu.Lock()
	if s.started || s.closed {
		s.mu.Unlock()
		return fmt.Errorf("stream: Deploy on a set already deployed or closed")
	}
	s.cfg = cfg
	// A replica's ResultSink reuses its arena once the send returns: hand
	// the funnel those rows when its consumer keeps nothing, fresh copies
	// when it keeps them (a display fan-out).
	sink, keeps := cfg.Sink, !keepsNothing(cfg.Sink)
	s.emit = func(ts []data.Tuple) error {
		if keeps {
			ts = freshRows(ts)
		}
		sink.PushBatch(ts)
		return nil
	}
	for j := 0; j < s.p; j++ {
		h, err := s.stageLocked(j, loc[j], states[j])
		if err != nil {
			s.mu.Unlock()
			s.Close()
			return fmt.Errorf("stream: deploy shard %d: %w", j, err)
		}
		s.installLocked(j, h)
	}
	s.started = true
	if cfg.Failover {
		for _, c := range s.uconns {
			c.armFailover(s.connFailed)
		}
	}
	s.mu.Unlock()
	return nil
}

// connLocked returns the set's healthy stream to the worker at addr,
// dialing one — and adopting it into the barrier/tick set — when there is
// none. With Failover the new stream logs from its first frame; failure
// notification arms with it once the set serves (Deploy arms the streams
// of the first placement itself). The dial is bounded by the stall timeout:
// rescale and failover hold the deployment's locks, so a blackholed
// address must fail within that bound, not the kernel's connect timeout.
// Caller holds s.mu.
func (s *ShardSet) connLocked(addr string) (*ShardConn, error) {
	for _, u := range s.uconns {
		if u.addr == addr && u.Err() == nil {
			return u, nil
		}
	}
	c, err := dialShard(addr, s.cfg.Sink, s.cfg.StallTimeout)
	if err != nil {
		return nil, err
	}
	if s.cfg.Failover {
		c.enableFailover(s.cfg.CheckpointEvery)
		if s.started {
			c.armFailover(s.connFailed)
		}
	}
	s.uconns = append(s.uconns, c)
	return c, nil
}

// stageLocked builds shard j's replica at addr from the armed spec, seeded
// with state (nil = fresh), without routing anything to it yet: on a worker
// over the set's stream to addr, or in-process through LocalDeploy. This is
// the one place a replica comes to exist — first deployment, Rescale and
// failover differ only in which homes they stage and what they do between
// stage and install. A worker records the state as the shard's committed
// checkpoint (ShardConn.Deploy), so a failover chain never loses it.
// Caller holds s.mu.
func (s *ShardSet) stageLocked(j int, addr string, state []byte) (home, error) {
	cfg := &s.cfg
	if addr != "" {
		c, err := s.connLocked(addr)
		if err != nil {
			return home{}, err
		}
		if err := c.Deploy(cfg.Spec, j, state); err != nil {
			return home{}, fmt.Errorf("onto %s: %w", addr, err)
		}
		return home{conn: c}, nil
	}
	if cfg.LocalDeploy == nil {
		return home{}, fmt.Errorf("in-process: no LocalDeploy configured")
	}
	heads, advs, cks, err := cfg.LocalDeploy(cfg.Spec, j, state, s.emit)
	if err != nil {
		return home{}, fmt.Errorf("in-process: %w", err)
	}
	for _, sh := range s.sharders {
		if heads[sh.name] == nil {
			return home{}, fmt.Errorf("in-process: replica has no entry point %q", sh.name)
		}
	}
	return home{heads: heads, advs: advs, cks: cks}, nil
}

// installLocked makes h shard j's home: it fills the slot, points every
// exchange's head for j at it, and for an in-process home makes sure queue
// j's worker runs. Caller holds s.mu and — on a serving set — every
// Sharder lock, so no producer routes through a half-flipped shard.
func (s *ShardSet) installLocked(j int, h home) {
	s.homes[j] = h
	for _, sh := range s.sharders {
		if h.conn != nil {
			sh.heads[j] = h.conn.Head(sh.schema, j, sh.name)
		} else {
			sh.heads[j] = h.heads[sh.name]
		}
	}
	if h.conn == nil && !s.running[j] {
		s.running[j] = true
		s.wg.Add(1)
		go s.worker(j)
	}
}

// dropIdleConnsLocked lets go of every worker stream hosting no shard: one
// a rescale vacated — the "leave" half of elasticity releases the socket
// once the last deployment lets go — or one dialed for a stage that then
// failed. A healthy stream closes gracefully; a broken one is severed (its
// own failover, if notified, finds no shard mapped to it and only undoes
// whatever partial replay it emitted). Caller holds s.mu.
func (s *ShardSet) dropIdleConnsLocked() {
	keep := s.uconns[:0]
	for _, u := range s.uconns {
		hosts := false
		for j := range s.homes {
			hosts = hosts || s.homes[j].conn == u
		}
		switch {
		case hosts:
			keep = append(keep, u)
		case u.Err() != nil:
			u.severLink()
		default:
			_ = u.Close()
		}
	}
	s.uconns = keep
}

// worker drains shard j's queue: one goroutine, hence a single writer for
// every operator of replica j. The loop performs no steady-state heap
// allocation: batch buffers recycle through the freelist.
func (s *ShardSet) worker(j int) {
	defer s.wg.Done()
	for m := range s.queues[j] {
		switch m.kind {
		case msgData:
			m.head.PushBatch(m.batch)
			// drop tuple references (the pipeline owns them now) and recycle
			s.recycle(m.batch)
		case msgTick:
			for _, a := range s.homes[j].advs {
				a.Advance(m.now)
			}
		case msgBarrier:
			m.wg.Done()
		}
	}
}

// buf returns an empty batch buffer, recycling drained ones.
func (s *ShardSet) buf() []data.Tuple {
	select {
	case b := <-s.free:
		return b
	default:
		return make([]data.Tuple, 0, ShardBatchCap)
	}
}

// send enqueues one data batch for shard j — through queue j for a local
// shard, over the worker connection for a remote one (the encode copies the
// tuples, so the buffer recycles immediately and the push path stays
// allocation-free on the coordinator). After Close the batch is dropped but
// its buffer still recycles, so a still-subscribed Sharder on a live input
// keeps the push path allocation-free.
func (s *ShardSet) send(j int, head Operator, batch []data.Tuple) {
	s.mu.RLock()
	if c := s.homes[j].conn; c != nil && !s.closed {
		// Ship outside the lock: a stalled worker then blocks only this
		// producer, never a pending Close (and through the writer-pending
		// RWMutex, every other producer). A send racing Close lands on a
		// failed/closing link and drops there (sticky); on a dead link the
		// batch lands in the replay log when failover is armed — the
		// quarantined shard's traffic replays onto its replacement — and
		// drops like any lossy link otherwise.
		s.mu.RUnlock()
		s.sendRemote(c, head, batch)
		return
	}
	s.sendLocked(j, head, batch)
	s.mu.RUnlock()
}

// sendLocked is send for a caller holding s.mu, read or write: a rescale's
// drain ships the exchanges' pending batches under the quiesce locks.
func (s *ShardSet) sendLocked(j int, head Operator, batch []data.Tuple) {
	switch c := s.homes[j].conn; {
	case s.closed:
		s.recycle(batch)
	case c != nil:
		s.sendRemote(c, head, batch)
	default:
		s.queues[j] <- shardMsg{kind: msgData, head: head, batch: batch}
	}
}

// sendRemote encodes batch onto c for the replica head names and recycles
// the buffer. A full batch is written to the socket at once, so the worker
// starts on it while the producer is still pushing; a partial one ships at
// a tick, barrier, rescale or close, each of which writes what is buffered
// anyway.
func (s *ShardSet) sendRemote(c *ShardConn, head Operator, batch []data.Tuple) {
	rh := head.(*RemoteHead)
	_ = c.sendShard(rh.shard, rh.name, rh.key, batch, len(batch) == ShardBatchCap)
	s.recycle(batch)
}

// shipLocal ships sh's pending batches for shards whose replica runs in
// process, at the end of a PushBatch call; a batch for a worker home stays
// pending (see Sharder.PushBatch). Caller holds sh.mu.
func (s *ShardSet) shipLocal(sh *Sharder) {
	s.mu.RLock()
	for j, b := range sh.pend {
		if len(b) > 0 && s.homes[j].conn == nil {
			s.sendLocked(j, sh.heads[j], b)
			sh.pend[j] = nil
		}
	}
	s.mu.RUnlock()
}

// shipPending ships every exchange's pending batches (Sharder.PushBatch
// keeps a worker home's across calls), so that what was pushed before a
// tick, barrier or close reaches the replicas ahead of it. It takes each
// Sharder's lock and, through send, the set's read lock, so the caller
// holds neither.
func (s *ShardSet) shipPending() {
	s.mu.RLock()
	sharders, live := s.sharders, s.started && !s.closed
	s.mu.RUnlock()
	if !live {
		return
	}
	for _, sh := range sharders {
		sh.mu.Lock()
		sh.flushPending(s.send)
		sh.mu.Unlock()
	}
}

// recycle clears a drained batch buffer back into the freelist.
func (s *ShardSet) recycle(batch []data.Tuple) {
	clear(batch)
	select {
	case s.free <- batch[:0]:
	default:
	}
}

// Advance implements Advancer by fanning the tick to every local shard
// queue and once to every worker connection, so replica windows expire
// in-order with their shard's data stream wherever the replica lives. It
// first ships every exchange's pending batch, so a tuple pushed before the
// tick reaches its replica before the tick does. The
// engine tick loop returns promptly (remote ticks can briefly block on
// backpressure); Flush waits for the expiry work. Ticks after Close are
// dropped — Deployment.Close untracks the set from its engine, but an
// in-flight Advance may still deliver one last tick.
//
// Worker connections tick concurrently under the set's read lock: one
// stalled worker costs the engine tick loop at most one stall timeout
// (once — the link error is sticky), not one per connection. The wait
// keeps successive ticks ordered per connection; cross-connection order
// is free, as with the local queues. Holding the read lock across the
// fan-out is what failover relies on for ordering: a restore (which holds
// the write lock) can never interleave a live tick between a replica's
// checkpoint and its replayed input. Close and failover therefore wait at
// most one bounded tick fan-out for the write lock.
func (s *ShardSet) Advance(now vtime.Time) {
	s.shipPending()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return
	}
	for j := 0; j < s.p; j++ {
		if s.homes[j].conn != nil {
			continue
		}
		s.queues[j] <- shardMsg{kind: msgTick, now: now}
	}
	if len(s.uconns) == 1 {
		_ = s.uconns[0].Tick(now) // common case: no fan-out machinery
		return
	}
	var wg sync.WaitGroup
	for _, c := range s.uconns {
		wg.Add(1)
		go func(c *ShardConn) {
			defer wg.Done()
			_ = c.Tick(now)
		}(c)
	}
	wg.Wait()
}

// Flush blocks until every message enqueued before the call — batches and
// ticks alike — has been fully processed, establishing a barrier: after
// Flush, the merged sink reflects everything pushed so far. Each pass first
// ships the exchanges' pending batches. Producers must be quiet for the
// barrier to be meaningful.
//
// With failover enabled the barrier stays exact across worker loss: a
// failed connection barrier means a failover is already pending (fail()
// notifies before waking waiters), so Flush waits for the redeploy/replay
// to finish and barriers the new topology again.
func (s *ShardSet) Flush() {
	for {
		ok := s.flushOnce()
		if !s.cfg.Failover {
			// Without failure notification no failover can be pending, and a
			// failed barrier is fail-stop — rerunning it would spin on the
			// dead link forever.
			return
		}
		waited := s.fo.waitIdle()
		if ok && !waited {
			return
		}
	}
}

// flushOnce runs one barrier pass over the current topology, reporting
// whether every connection barrier succeeded.
func (s *ShardSet) flushOnce() bool {
	s.shipPending()
	var wg sync.WaitGroup
	s.mu.RLock()
	if !s.started || s.closed {
		s.mu.RUnlock()
		return true
	}
	for j := 0; j < s.p; j++ {
		if s.homes[j].conn != nil {
			continue
		}
		wg.Add(1)
		s.queues[j] <- shardMsg{kind: msgBarrier, wg: &wg}
	}
	// Remote barriers run concurrently with the local drain: each flush ack
	// arrives behind the worker's results (FIFO), so when Wait returns the
	// merged sink reflects every replica. Without failover a dead link acks
	// vacuously (fail-stop); with it, the error reruns the barrier after
	// the failover completes. The first link's barrier runs on this
	// goroutine, so a set on one worker waits for its ack without a
	// goroutine hand-off on either side of the round trip.
	// Failover filters s.uconns in place, so its entries are read under the
	// lock only.
	uconns := s.uconns
	errs := make([]error, len(uconns))
	var first *ShardConn
	for i, c := range uconns {
		if i == 0 {
			first = c
			continue
		}
		wg.Add(1)
		go func(i int, c *ShardConn) {
			defer wg.Done()
			errs[i] = c.Flush()
		}(i, c)
	}
	s.mu.RUnlock()
	if first != nil {
		errs[0] = first.Flush()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return false
		}
	}
	return true
}

// Close ships the exchanges' pending batches, drains the queues, stops the
// local workers, and barrier-closes every worker connection (remote
// replicas are torn down on their hosts), so the merged sink reflects
// everything pushed before the call — except what went to a broken link
// whose failover has not run: Close does not wait for failovers, and one
// that finds the set closed stops. It is safe with live producers:
// anything a Sharder or Advance sends afterwards is dropped (the
// deployment's result simply stops updating). Idempotent.
func (s *ShardSet) Close() {
	s.shipPending()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for j := 0; j < s.p; j++ {
		// Every shard with a live worker goroutine — including one whose
		// shard has since rescaled onto a remote home — gets its queue
		// closed, or wg.Wait below would wait forever.
		if !s.running[j] {
			continue
		}
		close(s.queues[j]) // workers drain buffered messages, then exit
	}
	conns := s.uconns
	s.mu.Unlock()
	s.wg.Wait()
	// Connection teardowns are acked round trips: run them concurrently so
	// closing an N-worker deployment costs one RTT, not N (like Flush).
	var cwg sync.WaitGroup
	for _, c := range conns {
		cwg.Add(1)
		go func(c *ShardConn) {
			defer cwg.Done()
			_ = c.Close()
		}(c)
	}
	cwg.Wait()
}

// connFailed is the sticky-failure hook of every failover-armed connection:
// it registers the pending failover synchronously (so barriers observing
// the failure find it) and runs the redeploy asynchronously (fail() may be
// on the engine tick loop or a producer).
func (s *ShardSet) connFailed(c *ShardConn) {
	s.fo.schedule()
	go s.runFailover(c)
}

// deliver replays logged entries, in log (= wire) order, into the homes
// staged for the moved shards — all at one candidate, so either every one
// shares a worker stream (a tick frame reaches all its replicas at once) or
// every one is in-process. Local replicas are delivered directly: until
// they are installed this goroutine is their only writer.
func deliver(moved []int, staged map[int]home, entries []logEntry) error {
	conn := staged[moved[0]].conn
	for _, e := range entries {
		var err error
		switch {
		case conn != nil && e.tick:
			err = conn.Tick(e.now)
		case conn != nil:
			err = conn.sendShard(e.shard, e.name, headKey(e.shard, e.name), e.batch, false)
		case e.tick:
			for _, j := range moved {
				for _, a := range staged[j].advs {
					a.Advance(e.now)
				}
			}
		default:
			if h := staged[e.shard].heads[e.name]; h != nil {
				h.PushBatch(e.batch)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// runFailover moves every shard of a failed connection onto a new home:
// sever → lock out producers and ticks → undo → stage (spec + checkpoint)
// → replay log → install. See the state-machine comment on ShardSet.
//
// The OnFailover hook fires after every operator lock is released (the
// hook may push or inspect the deployment) but before the failover is
// accounted finished, so a Flush concurrent with it still waits the event
// out — which also means the hook itself must not call Flush/Snapshot.
func (s *ShardSet) runFailover(failed *ShardConn) {
	defer s.fo.finish()
	ev := s.failover(failed)
	if ev != nil && s.cfg.OnFailover != nil {
		s.cfg.OnFailover(*ev)
	}
}

// failover is runFailover's locked core; it returns the event to report.
func (s *ShardSet) failover(failed *ShardConn) *FailoverEvent {
	s.fo.fmu.Lock()
	defer s.fo.fmu.Unlock()

	// Sever: the reader is down once this returns, so the undo log is
	// final; producers keep appending inputs to the replay log until the
	// locks below exclude them.
	failed.severLink()

	// Exclude every appender: data producers hold their Sharder's lock
	// through route-and-send, and the tick fan-out holds the set's read
	// lock through delivery. Under all of them the replay log is final and
	// — critically — no live tick can reach a redeployed replica before
	// its replayed (older) input does.
	unlock := s.quiesce()
	defer unlock()
	if s.closed {
		return nil
	}

	var moved []int
	for j := range s.homes {
		if s.homes[j].conn == failed {
			moved = append(moved, j)
		}
	}

	// Undo: retract the connection's un-checkpointed output from the sink,
	// newest first, restoring the sink to the checkpoint-consistent state
	// the redeployed replicas will regenerate from. Delta operators unwind
	// exactly under reverse-order inverse application.
	undo := failed.flog.takeOut()
	for i := len(undo) - 1; i >= 0; i-- {
		batch := undo[i]
		neg := make([]data.Tuple, len(batch))
		for k := range batch {
			neg[k] = batch[len(batch)-1-k].Negate()
		}
		s.cfg.Sink.PushBatch(neg)
	}
	states := failed.flog.statesCopy()
	backlog := failed.flog.takeIn()
	failed.flog.drop()
	// The dead stream leaves the barrier/tick set whether or not its shards
	// find a new home: a Flush must never barrier it again.
	keep := s.uconns[:0]
	for _, u := range s.uconns {
		if u != failed {
			keep = append(keep, u)
		}
	}
	s.uconns = keep

	if len(moved) == 0 {
		// A replacement that died before any shard was flipped to it: the
		// undo above removed its partial replay output; the failover that
		// was using it retries elsewhere with the full backlog.
		return nil
	}

	// Restore at the first candidate that takes every moved shard and the
	// whole backlog. A candidate that dies mid-restore costs a full
	// redelivery to the next one (its own failover, queued behind this one,
	// undoes the partial output it emitted).
	for _, addr := range s.candidatesLocked(failed.addr) {
		staged := make(map[int]home, len(moved))
		var err error
		for _, j := range moved {
			if staged[j], err = s.stageLocked(j, addr, states[j]); err != nil {
				break
			}
		}
		if err == nil {
			err = deliver(moved, staged, backlog)
		}
		if err != nil {
			s.dropIdleConnsLocked()
			continue
		}
		for _, j := range moved {
			s.installLocked(j, staged[j])
		}
		return &FailoverEvent{Shards: moved, From: failed.addr, To: addr}
	}
	err := fmt.Errorf("stream: shard failover: no candidate left for shards %v of %s", moved, failed.addr)
	return &FailoverEvent{Shards: moved, From: failed.addr, Err: err}
}

// candidatesLocked lists the homes a failover tries, in order: the workers
// the set already holds a healthy stream to (no dial), the other configured
// worker addresses, then in-process as the last resort. The failed address
// itself is never a candidate. Caller holds s.mu.
func (s *ShardSet) candidatesLocked(failedAddr string) []string {
	var out []string
	seen := map[string]bool{failedAddr: true, "": true}
	add := func(addr string) {
		if !seen[addr] {
			seen[addr] = true
			out = append(out, addr)
		}
	}
	for _, u := range s.uconns {
		if u.Err() == nil {
			add(u.addr)
		}
	}
	for _, addr := range s.cfg.Nodes {
		add(addr)
	}
	return append(out, "")
}

// Sharder is the exchange operator in front of one replicated pipeline
// entry point: it routes each pushed tuple to the shard owning the tuple's
// key partition (hash of the key columns modulo P), collects each shard's
// tuples into a pending batch, and ships full or flushed batches through
// the set's queues or over the shard's worker stream. Several Sharders
// (one per scan of a plan) share one ShardSet, so a join's left and right
// inputs partitioned on aligned keys meet in the same replica.
//
// Ownership: pushed tuples are handed to the owning replica un-cloned, per
// the Operator convention; the pending batch keeps the tuples, never the
// caller's batch slice. Producers may push from multiple goroutines;
// dispatch state is mutex-protected (per-shard order then follows arrival
// order under the lock).
type Sharder struct {
	set *ShardSet
	// heads[j] is this exchange's entry point into shard j's replica;
	// ShardSet.installLocked keeps it pointing at the shard's current home.
	heads  []Operator
	keyIdx []int // key column indexes; nil = all columns
	schema *data.Schema
	hasher data.Hasher
	// name is the scan's wire name (plan.scanName): a home's entry point for
	// this exchange is the replica head registered under it.
	name string

	// keyFns, when set, routes on computed key expressions instead of
	// stored columns: the partition key a plan imposes through a
	// deterministic computed projection. keyBuf is the reusable scratch the
	// expression values are evaluated into (guarded by mu like pend).
	keyFns []*expr.Compiled
	keyBuf []data.Value

	mu   sync.Mutex
	pend [][]data.Tuple // per-shard pending batch, freelist-backed; kept across PushBatch calls
}

// NewSharder builds the exchange in front of the replica entry points named
// name — the key every home's DeployFunc registers that head under — which
// accept schema. keyIdx names the partition key columns; nil partitions on
// all columns. Build every Sharder of a set before ShardSet.Deploy, which
// resolves the heads.
func NewSharder(set *ShardSet, name string, schema *data.Schema, keyIdx []int) (*Sharder, error) {
	sh := &Sharder{
		set:    set,
		heads:  make([]Operator, set.p),
		keyIdx: keyIdx,
		schema: schema,
		name:   name,
		pend:   make([][]data.Tuple, set.p),
	}
	set.mu.Lock()
	defer set.mu.Unlock()
	if set.started {
		return nil, fmt.Errorf("stream: sharder %q built after its set deployed", name)
	}
	set.sharders = append(set.sharders, sh)
	return sh, nil
}

// NewExprSharder builds an exchange that routes each tuple on the hashed
// values of computed key expressions (all bound against schema) rather
// than stored columns. Equal expression values hash equal across
// Sharders (the canonical value encoding), so two exchanges partitioned on
// value-aligned expressions still co-locate matching tuples; and because
// the expressions are deterministic over the tuple's values, an insert and
// its later delete route to the same shard.
func NewExprSharder(set *ShardSet, name string, schema *data.Schema, keys []*expr.Compiled) (*Sharder, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("stream: expression sharder needs at least one key")
	}
	sh, err := NewSharder(set, name, schema, nil)
	if err != nil {
		return nil, err
	}
	sh.keyFns = keys
	sh.keyBuf = make([]data.Value, len(keys))
	return sh, nil
}

// Schema implements Operator.
func (sh *Sharder) Schema() *data.Schema { return sh.schema }

// Push implements Operator.
func (sh *Sharder) Push(t data.Tuple) { sh.PushBatch([]data.Tuple{t}) }

// PushBatch implements Operator: the batch is split by key partition into
// each shard's pending batch. When the call returns, a batch for an
// in-process replica has shipped as one queue message, so its worker
// goroutine starts on it beside the producer. A batch for a replica on a
// ShardWorker outlives the call: it ships as one data frame, written at
// once, when it reaches ShardBatchCap tuples, and otherwise when the set
// next ticks (Advance), barriers (Flush, and so Deployment.Snapshot and
// CheckpointAll), closes, or drains for a rescale. Every one of those ships
// first, so a replica sees each tuple before the tick or barrier that
// followed its push, and a worker takes fewer, larger frames than the
// producer made calls. A consumer that neither ticks nor flushes — a
// Materialize OnChange hook, a display painting on it — therefore sees a
// worker-hosted shard's output for a push at the next tick, or sooner once
// its shard's batch fills.
func (sh *Sharder) PushBatch(ts []data.Tuple) {
	sh.mu.Lock()
	for _, t := range ts {
		sh.route(t)
	}
	sh.set.shipLocal(sh)
	sh.mu.Unlock()
}

// route appends t to its shard's pending buffer, shipping the buffer when
// full. Caller holds sh.mu.
func (sh *Sharder) route(t data.Tuple) {
	j := 0
	if sh.set.p > 1 {
		if sh.keyFns != nil {
			for i, f := range sh.keyFns {
				sh.keyBuf[i] = f.Eval(t)
			}
			j = int(sh.hasher.HashOn(data.Tuple{Vals: sh.keyBuf}, nil) % uint64(sh.set.p))
		} else {
			j = int(sh.hasher.HashOn(t, sh.keyIdx) % uint64(sh.set.p))
		}
	}
	b := sh.pend[j]
	if b == nil {
		b = sh.set.buf()
	}
	b = append(b, t)
	if len(b) == cap(b) {
		sh.set.send(j, sh.heads[j], b)
		b = nil
	}
	sh.pend[j] = b
}

// flushPending ships every non-empty pending buffer through send (the
// set's send, or sendLocked under the quiesce locks) to the shard's
// current head. Caller holds sh.mu.
func (sh *Sharder) flushPending(send func(j int, head Operator, batch []data.Tuple)) {
	for j, b := range sh.pend {
		if len(b) > 0 {
			send(j, sh.heads[j], b)
			sh.pend[j] = nil
		}
	}
}

// Merge folds concurrent shard outputs into one downstream operator: a
// mutex funnel. Per-shard output order is preserved (each shard pushes
// from its single worker), interleaving across shards is arbitrary —
// sound, because partitioned state never emits deltas for the same key
// from two shards.
type Merge struct {
	mu   sync.Mutex
	next Operator
}

// NewMerge builds a funnel in front of next.
func NewMerge(next Operator) *Merge { return &Merge{next: next} }

// Schema implements Operator.
func (m *Merge) Schema() *data.Schema { return m.next.Schema() }

// Push implements Operator.
func (m *Merge) Push(t data.Tuple) { m.PushBatch([]data.Tuple{t}) }

// PushBatch implements Operator: the whole batch crosses the funnel
// under one lock acquisition.
func (m *Merge) PushBatch(ts []data.Tuple) {
	m.mu.Lock()
	m.next.PushBatch(ts)
	m.mu.Unlock()
}
