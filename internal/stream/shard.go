package stream

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// This file is the engine's partition-parallel execution layer: a pipeline
// is replicated P ways, a Sharder exchange operator routes every tuple to
// the replica owning its key partition, and a Merge funnel folds the
// replicas' outputs back into one sink. Because the routing hash
// (data.Hasher.Route) walks the same canonical key encoding the stateful
// operators key their tables on, join, aggregate and distinct state
// partitions cleanly by construction: all tuples of one group / join key
// land in one replica.
//
// Every replica lives at a home, and every home answers the same calls
// (shardHome): undeploy, ship a batch to a replica's entry point, tick,
// barrier, checkpoint and close. A home is a worker stream (ShardConn,
// remote.go) or an in-process home (localHome, below). Only staging a new
// replica (ShardSet.stageLocked) tells the two kinds apart; every other
// operation of the set treats all homes alike.
//
// Concurrency model: one goroutine per replica (Graefe's exchange model:
// one thread per partition). Wherever a replica lives it runs on an
// executor: one goroutine fed by one bounded FIFO queue that carries every
// batch, tick, barrier and control call for that replica. An in-process
// home is one executor; a shard worker runs one executor per replica it
// hosts (remote.go). Replica operators therefore never see two goroutines
// and need no locks, while the replicas of one process — in-process or on
// one worker — run in parallel. Only the funnel sink behind Merge, and a
// worker link's write buffer, are shared.
//
// Batching: a Sharder ships an in-process shard's tuples at the end of each
// PushBatch call, and collects a worker-hosted shard's across calls (see
// Sharder.PushBatch for when they ship). A replica sees every tuple before
// the tick or barrier that followed its push; between two of those, a
// worker-hosted one takes each exchange's batch in turn rather than in the
// order the calls interleaved, which leaves the result multiset at every
// tick and barrier unchanged. The order in which replicas' results reach
// the funnel is nondeterministic, across homes and within one worker alike;
// the multiset at every barrier is not.

// ShardBatchCap is the capacity of recycled batch buffers: a Sharder ships
// a shard's pending batch once it holds this many tuples.
const ShardBatchCap = 256

// shardQueueCap bounds each executor's queue: whoever feeds a replica — a
// producer in process, a worker link's frame loop — blocks once the
// replica falls this far behind (backpressure instead of unbounded memory).
const shardQueueCap = 16

// batchPool recycles the exchange's batch buffers: a Sharder takes one per
// shard batch, and the home it ships to puts it back once done. Buffers of
// another capacity stay out; a nil pool recycles nothing.
type batchPool chan []data.Tuple

func (p batchPool) get() []data.Tuple {
	select {
	case b := <-p:
		return b
	default:
		return make([]data.Tuple, 0, ShardBatchCap)
	}
}

// put clears b (drop tuple references: the pipeline owns them now) and
// keeps it for reuse.
func (p batchPool) put(b []data.Tuple) {
	if cap(b) != ShardBatchCap {
		return
	}
	clear(b)
	select {
	case p <- b[:0]:
	default:
	}
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
	// rescales and checkpoints on demand — with no replay log: the worker's
	// checkpoint reply hands the states straight to the rescale — but worker
	// loss stays fail-stop and the hot path is untouched. Only meaningful
	// with a worker topology.
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
	// must not call Flush/Snapshot or Close (they wait for pending
	// failovers).
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
	// to reach zero so its barrier covers replayed work. runs counts every
	// failover ever scheduled.
	pmu     sync.Mutex
	cond    *sync.Cond
	pending int
	runs    int
}

func (f *failoverRuntime) schedule() {
	f.pmu.Lock()
	f.pending++
	f.runs++
	f.pmu.Unlock()
}

func (f *failoverRuntime) finish() {
	f.pmu.Lock()
	f.pending--
	f.cond.Broadcast()
	f.pmu.Unlock()
}

// waitIdle blocks until no failover is pending. It reports whether it had
// to wait, and how many failovers have been scheduled in all.
func (f *failoverRuntime) waitIdle() (waited bool, runs int) {
	f.pmu.Lock()
	defer f.pmu.Unlock()
	for f.pending > 0 {
		waited = true
		f.cond.Wait()
	}
	return waited, f.runs
}

// shardHome is where shard replicas live: a worker stream (*ShardConn) or
// an in-process home (*localHome). A ShardSet feeds, ticks, barriers,
// checkpoints and closes every home through these calls alone.
type shardHome interface {
	// Addr names the home as placements do: a worker address, or "" for
	// in-process. Err reports a worker stream's sticky link failure.
	Addr() string
	Err() error
	// Undeploy tears shard's replica down while the home's other replicas
	// serve.
	Undeploy(shard int) error
	// ship hands the home a pooled batch buffer for shard's entry point
	// name, which it returns to the pool once done; full marks a batch of
	// ShardBatchCap tuples. eager says whether the exchange ships this
	// home's batches at every push (in-process) or keeps them until a tick,
	// barrier or full batch (a worker: fewer, larger frames).
	ship(shard int, name string, batch []data.Tuple, full bool) error
	eager() bool
	// Tick advances every replica on the home.
	Tick(now vtime.Time) error
	// startFlush posts a barrier behind everything sent so far, and
	// awaitFlush waits it out, so a set barriers all its homes at once. An
	// in-process home counts its barrier on wg, which the caller waits on.
	startFlush(wg *sync.WaitGroup) (chan reply, error)
	awaitFlush(ch chan reply) error
	// checkpoint returns every replica's encoded operator state, by shard.
	checkpoint() (map[int][]byte, error)
	// Close barriers the home and tears its replicas down.
	Close() error
}

// replica is one shard replica as its DeployFunc built it: the entry points
// by scan name, the time-driven operators, and the stateful operators in
// checkpoint order.
type replica struct {
	heads map[string]Operator
	advs  []Advancer
	cks   []Checkpointer
}

// executor runs one shard replica on its own goroutine, which takes every
// batch, tick, barrier and control call for it from one bounded queue. It
// is how every home runs its replicas: an in-process home is one executor,
// a worker stream one per shard it hosts.
type executor struct {
	shard int
	q     chan execMsg
	// rep is fixed once built, so a feeder may look an entry point up in
	// rep.heads; the operators themselves are the goroutine's alone.
	rep  replica
	pool batchPool // where the goroutine returns batch buffers
	// idle, when set, runs each time the queue drains: a worker writes out
	// the results its replicas buffered, so a consumer sees them without
	// waiting for a barrier.
	idle func()
	done chan struct{} // closed once the goroutine has exited
}

// execMsg is one queue entry: a barrier (wg set), which runs call first when
// there is one; else a batch for the entry point head; else a clock instant.
type execMsg struct {
	wg    *sync.WaitGroup
	call  func()
	head  Operator
	batch []data.Tuple
	now   vtime.Time
}

// newExecutor builds shard's replica through build from spec, restoring
// state (nil = fresh), and starts its goroutine. The replica emits through
// send.
func newExecutor(build DeployFunc, spec []byte, shard int, state []byte, send ResultSender, pool batchPool, idle func()) (*executor, error) {
	heads, advs, cks, err := build(spec, shard, state, send)
	if err != nil {
		return nil, err
	}
	ex := &executor{
		shard: shard,
		q:     make(chan execMsg, shardQueueCap),
		rep:   replica{heads: heads, advs: advs, cks: cks},
		pool:  pool,
		idle:  idle,
		done:  make(chan struct{}),
	}
	go ex.run()
	return ex, nil
}

// run drains the queue until close. The loop performs no steady-state heap
// allocation: batch buffers go back to the pool.
func (ex *executor) run() {
	defer close(ex.done)
	for m := range ex.q {
		switch {
		case m.wg != nil:
			if m.call != nil {
				m.call()
			}
			m.wg.Done()
		case m.batch != nil:
			m.head.PushBatch(m.batch)
			ex.pool.put(m.batch)
		default:
			for _, a := range ex.rep.advs {
				a.Advance(m.now)
			}
		}
		if ex.idle != nil && len(ex.q) == 0 {
			ex.idle()
		}
	}
}

// push queues batch for head, one of the replica's entry points; a batch
// for none (nil: the replica has no such entry point) goes straight back to
// the pool.
func (ex *executor) push(head Operator, batch []data.Tuple) {
	if head != nil && len(batch) > 0 {
		ex.q <- execMsg{head: head, batch: batch}
		return
	}
	ex.pool.put(batch)
}

// tick queues a clock instant.
func (ex *executor) tick(now vtime.Time) { ex.q <- execMsg{now: now} }

// post queues a barrier counted on wg, whose Wait returns once the replica
// has run everything queued before it.
func (ex *executor) post(wg *sync.WaitGroup) {
	wg.Add(1)
	ex.q <- execMsg{wg: wg}
}

// do runs f on the goroutine, behind everything queued before it.
func (ex *executor) do(f func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	ex.q <- execMsg{wg: &wg, call: f}
	wg.Wait()
}

// close runs everything queued and waits for the goroutine to exit. Nothing
// may be queued after it.
func (ex *executor) close() {
	close(ex.q)
	<-ex.done
}

// localHome is an in-process home: one shard's replica on its executor,
// which producers feed directly.
type localHome struct{ ex *executor }

// newLocalHome builds shard's replica in process from the set's armed spec.
// Every exchange of the set must find its entry point on the replica.
// Caller holds s.mu.
func newLocalHome(s *ShardSet, shard int, state []byte) (*localHome, error) {
	ex, err := newExecutor(s.cfg.LocalDeploy, s.cfg.Spec, shard, state, s.emit, s.pool, nil)
	if err != nil {
		return nil, err
	}
	for _, sh := range s.sharders {
		if ex.rep.heads[sh.name] == nil {
			ex.close()
			return nil, fmt.Errorf("replica has no entry point %q", sh.name)
		}
	}
	return &localHome{ex: ex}, nil
}

func (h *localHome) Addr() string { return "" }
func (h *localHome) Err() error   { return nil }
func (h *localHome) eager() bool  { return true }

// Undeploy does nothing: a home hosts one shard, and the set closes a home
// it has left idle (dropIdleHomesLocked), which stops the replica.
func (h *localHome) Undeploy(int) error { return nil }

func (h *localHome) ship(_ int, name string, batch []data.Tuple, _ bool) error {
	h.ex.push(h.ex.rep.heads[name], batch)
	return nil
}

func (h *localHome) Tick(now vtime.Time) error {
	h.ex.tick(now)
	return nil
}

func (h *localHome) startFlush(wg *sync.WaitGroup) (chan reply, error) {
	h.ex.post(wg)
	return nil, nil
}

func (h *localHome) awaitFlush(chan reply) error { return nil }

func (h *localHome) checkpoint() (states map[int][]byte, err error) {
	h.ex.do(func() {
		var st []byte
		if st, err = EncodeCheckpoint(h.ex.rep.cks); err == nil {
			states = map[int][]byte{h.ex.shard: st}
		}
	})
	return states, err
}

// Close drains the queue and stops the goroutine. The set closes a home
// once, when no send can reach it any more.
func (h *localHome) Close() error {
	h.ex.close()
	return nil
}

// ShardSet is the runtime of one partition-parallel deployment: P shards,
// each at a home — in this process or behind a ShardWorker — and a shared
// pool of batch buffers.
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
//	RESTORING ──(install: point the shards at the new home, release the
//	│            locks)──▶ SERVING. Deployment.Flush/Snapshot barriers are
//	│            exact throughout: the undo/replay pair restores
//	│            exactly-once delivery, and Flush waits out any pending
//	│            failover before trusting a barrier.
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
	p    int
	pool batchPool
	// homes[j] is shard j's current home; only stageLocked builds one and
	// only the install step of Deploy, Rescale and failover assigns one.
	// hosts holds each distinct home once, for tick fan-out and barriers: a
	// worker stream hosts every shard the set places on that worker, an
	// in-process home one shard. A ShardConn is a logical stream:
	// connections to the same worker share one pooled socket, and a
	// physical-link failure fails every stream on it, so each affected
	// deployment's failover runs independently.
	homes []shardHome
	hosts []shardHome
	// sharders lists the set's exchanges, each shipping to a shard's home
	// under its scan's wire name.
	sharders []*Sharder
	// cfg is fixed by Deploy, except Nodes, which a Rescale rewrites under
	// mu; the other fields are read without it.
	cfg ShardConfig
	// emit is the ResultSender in-process replicas emit through: one func
	// value per set, one cfg.Sink acquisition per replica call.
	emit ResultSender
	fo   failoverRuntime
	// mu serializes sends, ticks and barrier posts (read) against Close,
	// failover and rescale (write): senders hold it for reading per batch,
	// not per tuple.
	mu      sync.RWMutex
	started bool
	closed  bool
	// sent counts hand-offs of work to homes: it is bumped after every
	// batch a sender ships, after every tick fan-out, and when a Deploy, a
	// failover, a rescale or a checkpoint releases its locks. covered is
	// the value of sent read before posting the last barrier that every
	// home acked; it only grows. Without failover, Flush posts no barrier
	// while they are equal.
	sent, covered atomic.Uint64
}

// NewShardSet creates a set of p shards (p >= 1), not yet deployed.
func NewShardSet(p int) *ShardSet {
	if p < 1 {
		p = 1
	}
	s := &ShardSet{
		p: p,
		// Room for a buffer in every slot of every shard's queue.
		pool:  make(batchPool, p*shardQueueCap),
		homes: make([]shardHome, p),
	}
	s.fo.cond = sync.NewCond(&s.fo.pmu)
	return s
}

// Deploy brings the set to life: it builds shard j's replica at loc[j] — a
// worker address, or "" for in-process — restoring states[j] when present,
// through the same stage routine Rescale and failover use, and starts
// serving. Call it once, after every Sharder of the set is built and before
// any of them receives data. On error nothing is left running: replicas
// already placed and their homes are torn down. A successful Deploy hands
// the set its homes (Close barriers and closes them). With cfg.Failover
// every worker stream arms failure notification as it is dialed; a worker
// lost while a shard is staged on it fails the Deploy, one lost later fails
// over once the set serves.
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
		s.homes[j] = h
	}
	s.started = true
	s.sent.Add(1)
	s.mu.Unlock()
	return nil
}

// stageLocked builds shard j's replica at addr from the armed spec, seeded
// with state (nil = fresh), without routing anything to it yet. This is the
// one place a replica comes to exist — first deployment, Rescale and
// failover differ only in which homes they stage and what they do between
// stage and install — and the one place the set tells the two home kinds
// apart: "" gets a new in-process home, any other address the set's healthy
// stream to that worker, dialed and adopted into the tick/barrier set when
// there is none. With Failover a new stream logs from its first frame and
// arms failure notification at once (a failover that finds the set not yet
// serving does nothing: Deploy fails instead). The dial is bounded by the
// stall timeout: rescale and failover hold the deployment's locks, so a
// blackholed address must fail within that bound. A worker records the
// state as the shard's committed checkpoint (ShardConn.Deploy), so a
// failover chain never loses it. Caller holds s.mu.
func (s *ShardSet) stageLocked(j int, addr string, state []byte) (shardHome, error) {
	if addr == "" {
		if s.cfg.LocalDeploy == nil {
			return nil, fmt.Errorf("in-process: no LocalDeploy configured")
		}
		h, err := newLocalHome(s, j, state)
		if err != nil {
			return nil, fmt.Errorf("at %q: %w", addr, err)
		}
		s.hosts = append(s.hosts, h)
		return h, nil
	}
	var c *ShardConn
	for _, u := range s.hosts {
		if u, ok := u.(*ShardConn); ok && u.addr == addr && u.Err() == nil {
			c = u
		}
	}
	if c == nil {
		var err error
		if c, err = dialShard(addr, s.cfg.Sink, s.cfg.StallTimeout); err != nil {
			return nil, err
		}
		c.pool = s.pool
		if s.cfg.Failover {
			c.enableFailover(s.cfg.CheckpointEvery)
			c.armFailover(s.connFailed)
		}
		s.hosts = append(s.hosts, c)
	}
	if err := c.Deploy(s.cfg.Spec, j, state); err != nil {
		return nil, fmt.Errorf("at %q: %w", addr, err)
	}
	return c, nil
}

// dropIdleHomesLocked closes every home hosting no shard: an in-process
// home a shard moved out of, a worker stream a rescale vacated — the
// "leave" half of elasticity releases the socket once the last deployment
// lets go — or a home staged for a placement that then failed. A broken
// stream's own failover, if notified, finds no shard mapped to it and only
// undoes whatever partial replay it emitted. Caller holds s.mu.
func (s *ShardSet) dropIdleHomesLocked() {
	s.hosts = slices.DeleteFunc(s.hosts, func(h shardHome) bool {
		if slices.Contains(s.homes, h) {
			return false
		}
		_ = h.Close()
		return true
	})
}

// send ships one data batch of sh for shard j to its home (see
// sendLocked). Caller holds sh.mu.
func (s *ShardSet) send(sh *Sharder, j int, batch []data.Tuple) {
	s.mu.RLock()
	s.sendLocked(sh, j, batch)
	s.mu.RUnlock()
}

// sendLocked is send for a caller holding s.mu, read or write: a barrier
// under the quiesce locks ships the exchanges' pending batches itself. A
// worker stream encodes the batch (the push path stays allocation-free on
// the coordinator); a worker that stalls holds the read lock at most one
// stall timeout, after which its link error is sticky and later sends
// drop at once — or, with failover armed, land in the replay log. After
// Close the batch is dropped but its buffer still recycles, so a
// still-subscribed Sharder on a live input keeps the push path
// allocation-free.
func (s *ShardSet) sendLocked(sh *Sharder, j int, batch []data.Tuple) {
	if h := s.homes[j]; h != nil && !s.closed {
		_ = h.ship(j, sh.name, batch, len(batch) == ShardBatchCap)
		s.sent.Add(1)
		return
	}
	s.pool.put(batch)
}

// shipEager ships sh's pending batches for shards whose home takes them at
// every push, at the end of a PushBatch call; a batch for any other home
// stays pending (see Sharder.PushBatch). Caller holds sh.mu.
func (s *ShardSet) shipEager(sh *Sharder) {
	s.mu.RLock()
	for j, b := range sh.pend {
		if h := s.homes[j]; len(b) > 0 && h != nil && h.eager() {
			s.sendLocked(sh, j, b)
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

// Advance implements Advancer by ticking every home once, so replica
// windows expire in order with their shard's data stream wherever the
// replica lives. It first ships every exchange's pending batch, so a tuple
// pushed before the tick reaches its replica before the tick does. The
// engine tick loop returns promptly: an in-process home queues the tick
// (Flush waits for the expiry work), and a worker stream writes one frame,
// which a stalled worker delays at most one stall timeout, once — the link
// error is sticky. Ticks after Close are dropped — Deployment.Close
// untracks the set from its engine, but an in-flight Advance may still
// deliver one last tick.
//
// Holding the read lock across the fan-out is what failover relies on for
// ordering: a restore (which holds the write lock) can never interleave a
// live tick between a replica's checkpoint and its replayed input.
func (s *ShardSet) Advance(now vtime.Time) {
	s.shipPending()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return
	}
	for _, h := range s.hosts {
		_ = h.Tick(now)
	}
	s.sent.Add(1)
}

// Flush blocks until every message enqueued before the call — batches and
// ticks alike — has been fully processed, establishing a barrier: after
// Flush, the merged sink reflects everything pushed so far. Each pass first
// ships the exchanges' pending batches. Producers must be quiet for the
// barrier to be meaningful.
//
// Without failover an idle Flush posts nothing: when no batch, tick,
// deploy, rescale or checkpoint has gone to any home since a barrier that
// every home acked (covered == sent), that barrier already proves what a
// new one would, and the pass returns without a round trip or an
// allocation. The invariant is that every hand-off counted in covered was
// enqueued on its home ahead of a barrier that was acked. Two orders make
// it hold: a hand-off bumps sent only after its frame is enqueued, and a
// barrier pass reads sent before it posts on any home. A hand-off counted
// in the value a pass reads was therefore enqueued before that pass's
// barrier, on the same home's FIFO, and the pass stores the value into
// covered only once every home has acked without error. A caller's own
// pushes and ticks have bumped sent before it calls Flush, so it skips only
// a barrier whose ack already covered them — never one still in flight for
// another caller. A link lost since that barrier changes nothing a new one
// would show: without failover a dead link acks vacuously (fail-stop).
//
// With failover enabled every Flush barriers, and the barrier stays exact
// across worker loss: a failed connection barrier means a failover is
// already pending (fail() notifies before waking waiters), so Flush waits
// for the redeploy/replay to finish and barriers the new topology again.
// Here the barrier is also the probe that finds a link lost since the last
// one; skipping it would let a Snapshot taken right after a worker loss
// return before the failover runs, or read the sink while the failover's
// undo retracts the lost link's rows.
func (s *ShardSet) Flush() {
	for {
		ok := s.flushOnce()
		if !s.cfg.Failover {
			// Without failure notification no failover can be pending, and a
			// failed barrier is fail-stop — rerunning it would spin on the
			// dead link forever.
			return
		}
		waited, _ := s.fo.waitIdle()
		if ok && !waited {
			return
		}
	}
}

// flushOnce runs one barrier pass over the current topology, reporting
// whether every home's barrier succeeded. Without failover a dead link
// acks vacuously (fail-stop), and a pass with nothing sent since the last
// acked barrier posts none (see Flush); with it, the error reruns the
// barrier after the failover completes.
func (s *ShardSet) flushOnce() bool {
	s.shipPending()
	s.mu.RLock()
	sent := s.sent.Load()
	if !s.started || s.closed || !s.cfg.Failover && s.covered.Load() == sent {
		s.mu.RUnlock()
		return true
	}
	if s.barrierLocked(s.mu.RUnlock) != nil {
		return false
	}
	// covered only grows: a pass that read less than a concurrent one
	// leaves the larger value.
	for c := s.covered.Load(); c < sent; c = s.covered.Load() {
		if s.covered.CompareAndSwap(c, sent) {
			break
		}
	}
	return true
}

// barrierLocked posts a barrier on every home, runs release, and waits
// every barrier out, returning the first failure. Each barrier arrives
// behind everything sent to its home before it — and a worker's flush ack
// behind every result its replicas produced — so once all are answered the
// merged sink reflects every replica. Flush posts under the read lock and
// releases it before waiting; a rescale or checkpoint runs the barrier
// whole under the quiesce locks, having shipped every exchange's pending
// batch itself, so every tuple pushed before the quiesce is in the state it
// reads next. Caller holds s.mu; hosts is filtered in place by failover, so
// it is read under the lock only.
func (s *ShardSet) barrierLocked(release func()) error {
	type posted struct {
		h   shardHome
		ch  chan reply
		err error
	}
	var wg sync.WaitGroup
	var buf [16]posted
	all := buf[:0]
	for _, h := range s.hosts {
		ch, err := h.startFlush(&wg)
		all = append(all, posted{h, ch, err})
	}
	release()
	wg.Wait()
	var first error
	for _, p := range all {
		err := p.err
		if err == nil {
			err = p.h.awaitFlush(p.ch)
		}
		if err != nil && first == nil {
			first = fmt.Errorf("stream: flush %q: %w", p.h.Addr(), err)
		}
	}
	return first
}

// Close ships the exchanges' pending batches and closes every home — an
// in-process home drains its queue, a worker stream barriers and tears its
// replicas down on the host — so the merged sink reflects everything pushed
// before the call. With failover armed it first runs Flush, which waits out
// every failover its barriers find pending, so a batch sent to a link that
// broke just before or during the close is replayed onto the shard's new
// home, not lost; without failover such a batch drops with its link. It is
// safe with live producers: anything a Sharder or Advance sends afterwards
// is dropped (the deployment's result simply stops updating), and a
// failover that finds the set closed stops. Idempotent.
func (s *ShardSet) Close() {
	if s.cfg.Failover {
		s.Flush()
	}
	s.shipPending()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	hosts := s.hosts
	s.mu.Unlock()
	// A worker stream's teardown is an acked round trip: close the homes
	// concurrently, so closing an N-worker deployment costs one RTT, not N.
	var wg sync.WaitGroup
	for _, h := range hosts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = h.Close()
		}()
	}
	wg.Wait()
}

// connFailed is the sticky-failure hook of every failover-armed connection:
// it registers the pending failover synchronously (so barriers observing
// the failure find it) and runs the redeploy asynchronously (fail() may be
// on the engine tick loop or a producer, and holds the connection's mu).
func (s *ShardSet) connFailed(c *ShardConn) {
	s.fo.schedule()
	go s.runFailover(c)
}

// deliver replays logged entries, in log (= wire) order, into the homes
// staged for the moved shards — all at one candidate: one worker stream (a
// tick frame reaches all its replicas at once), or one in-process home per
// shard. A batch is copied into a pooled buffer, as the exchange would
// ship it, so the backlog stays whole for the next candidate if this one
// fails.
func (s *ShardSet) deliver(moved []int, staged map[int]shardHome, entries []logEntry) error {
	var targets []shardHome
	for _, j := range moved {
		if !slices.Contains(targets, staged[j]) {
			targets = append(targets, staged[j])
		}
	}
	for _, e := range entries {
		if e.tick {
			for _, h := range targets {
				if err := h.Tick(e.now); err != nil {
					return err
				}
			}
			continue
		}
		if h := staged[e.shard]; h != nil {
			if err := h.ship(e.shard, e.name, append(s.pool.get(), e.batch...), false); err != nil {
				return err
			}
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
	if !s.started || s.closed {
		// A link lost while Deploy was still placing shards fails the
		// Deploy instead, which closes the set.
		return nil
	}

	var moved []int
	for j, h := range s.homes {
		if h == shardHome(failed) {
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
	s.hosts = slices.DeleteFunc(s.hosts, func(h shardHome) bool { return h == shardHome(failed) })

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
		staged := make(map[int]shardHome, len(moved))
		var err error
		for _, j := range moved {
			if staged[j], err = s.stageLocked(j, addr, states[j]); err != nil {
				break
			}
		}
		if err == nil {
			err = s.deliver(moved, staged, backlog)
		}
		if err != nil {
			s.dropIdleHomesLocked()
			continue
		}
		for _, j := range moved {
			s.homes[j] = staged[j]
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
	for _, h := range s.hosts {
		if h.Err() == nil {
			add(h.Addr())
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
// tuples into a pending batch, and ships full or flushed batches to the
// shard's home, for the replica's entry point under the scan's wire name.
// Several Sharders (one per scan of a plan) share one ShardSet, so a join's
// left and right inputs partitioned on aligned keys meet in the same
// replica.
//
// Ownership: pushed tuples are handed to the owning replica un-cloned, per
// the Operator convention; the pending batch keeps the tuples, never the
// caller's batch slice. Producers may push from multiple goroutines;
// dispatch state is mutex-protected (per-shard order then follows arrival
// order under the lock).
type Sharder struct {
	set    *ShardSet
	keyIdx []int // key column indexes; nil = all columns
	schema *data.Schema
	hasher data.Hasher
	// name is the scan's wire name (plan.scanName): every replica's entry
	// point for this exchange is the head its DeployFunc returns under it.
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
// checks that every in-process replica has the entry point.
func NewSharder(set *ShardSet, name string, schema *data.Schema, keyIdx []int) (*Sharder, error) {
	sh := &Sharder{
		set:    set,
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
// in-process home has shipped as one queue message, so its goroutine
// starts on it beside the producer. A batch for a replica on a
// ShardWorker outlives the call: it ships as one data frame, written at
// once, when it reaches ShardBatchCap tuples, and otherwise when the set
// next ticks (Advance), barriers (Flush, and so Deployment.Snapshot and
// CheckpointAll), closes, or barriers for a rescale. Every one of those ships
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
	sh.set.shipEager(sh)
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
			j = int(sh.hasher.Route(data.Tuple{Vals: sh.keyBuf}, nil) % uint64(sh.set.p))
		} else {
			j = int(sh.hasher.Route(t, sh.keyIdx) % uint64(sh.set.p))
		}
	}
	b := sh.pend[j]
	if b == nil {
		b = sh.set.pool.get()
	}
	b = append(b, t)
	if len(b) == cap(b) {
		sh.set.send(sh, j, b)
		b = nil
	}
	sh.pend[j] = b
}

// flushPending ships every non-empty pending buffer through send (the
// set's send, or sendLocked under the quiesce locks) to the shard's
// current home. Caller holds sh.mu.
func (sh *Sharder) flushPending(send func(sh *Sharder, j int, batch []data.Tuple)) {
	for j, b := range sh.pend {
		if len(b) > 0 {
			send(sh, j, b)
			sh.pend[j] = nil
		}
	}
}

// Merge folds concurrent shard outputs into one downstream operator: a
// mutex funnel. Per-shard output order is preserved (each shard pushes
// from its one executor), interleaving across shards is arbitrary —
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
