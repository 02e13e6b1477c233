package stream

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// This file is the multi-node half of the partition-parallel layer: a shard
// replica of a deployed plan may live in another engine process (another PC
// of the paper's architecture) behind a ShardConn instead of an in-process
// worker goroutine. One physical TCP connection per (coordinator, worker)
// carries every deployment between the two, multiplexed by per-deployment
// stream ids (mux.go); a ShardConn is one such stream. Everything travels
// both ways over it — deploy specs, data batches, clock ticks, and
// flush/close barriers outward; result batches and acks back — in the
// binary columnar wire format (wire.go). FIFO ordering per stream gives
// the same guarantees the in-process queues do: a barrier ack arrives
// behind every result its data produced.
//
// With failover enabled (shard.go), each stream additionally keeps a
// coordinator-side replay log of every frame sent and every result received
// since the last committed checkpoint, and periodically asks the worker for
// a checkpoint of its replica states. The FIFO position of the checkpoint
// frame makes both logs exact: everything before it is subsumed by the
// returned state, everything after it is what a redeployed replica must
// undo (results) and replay (inputs).

// remoteInflight bounds un-acked data/tick frames per stream: producers
// block when a worker falls this far behind (backpressure instead of
// unbounded kernel socket buffering).
const remoteInflight = 32

// workerAckEvery bounds credit-ack latency under sustained input: the
// worker normally coalesces credit acks until its input drains, but a
// connection whose other streams keep it busy must not starve one
// stream's credit window, so acks also flush every this many processed
// credit frames.
const workerAckEvery = 16

// remoteStallTimeout is the default bound on every wait on a worker that
// keeps its TCP session alive but stops responding: a peer that was never a
// shard worker (a mistyped address reaching some other service that reads
// shard frames without acking), a SIGSTOPped worker process, or a blackholed
// link the kernel still ACKs. Credit waits, socket writes, and the deploy/flush/
// close barriers all mark the link broken (sticky) after it, so the
// coordinator's tick loop and Close can stall at most once per connection
// instead of deadlocking. The credit window bounds what a flush waits on
// (≤ remoteInflight frames), so a live worker has orders-of-magnitude
// headroom. Per-deployment override: Recovery.StallTimeout; variable for
// tests.
var remoteStallTimeout = 30 * time.Second

// checkpointMaxLog forces a failover checkpoint once a stream's replay log
// holds this many entries, bounding replay work and log memory between the
// Recovery.CheckpointEvery ticks.
const checkpointMaxLog = 256

// DeployFunc builds one shard replica from an opaque spec (encoded by the
// plan layer), optionally restoring a checkpoint (nil state = fresh). It
// returns the replica's entry points keyed by the coordinator-chosen scan
// name, the replica's time-driven operators (windows), which tick frames
// advance on the connection's own goroutine, and the replica's stateful
// operators in deterministic order for checkpoint barriers. The replica
// emits through send once per call into an entry point or advancer (a
// ResultSink's Entry and Tick).
type DeployFunc func(spec []byte, shard int, state []byte, send ResultSender) (heads map[string]Operator, advs []Advancer, cks []Checkpointer, err error)

// headKey names one replica entry point on a stream hosting several
// shards: the coordinator and worker derive it identically.
func headKey(shard int, name string) string { return fmt.Sprintf("%d/%s", shard, name) }

// deployBody is the gob payload of a deploy frame — the one remaining
// gob-encoded frame body (replica specs are cold-path, deeply structured,
// and already gob inside Spec anyway).
type deployBody struct {
	Seq   uint64
	Shard int
	Spec  []byte
	State []byte
}

// ShardWorker hosts remote shard replicas: it accepts coordinator
// connections and serves the shard frame protocol — deploy builds replicas
// through the DeployFunc, data frames push into replica heads, tick frames
// advance replica windows, flush/close frames ack as barriers, checkpoint
// frames reply with the replicas' encoded operator states. One connection
// carries many deployments, each under its own stream id with its own
// replica registry. All replica processing for one connection runs on that
// connection's decode goroutine, preserving the single-writer discipline
// replica operators rely on.
type ShardWorker struct {
	*connServer
	deploy DeployFunc
}

// NewShardWorker serves shard replicas on addr (use "127.0.0.1:0" for an
// ephemeral port).
func NewShardWorker(addr string, deploy DeployFunc) (*ShardWorker, error) {
	w := &ShardWorker{deploy: deploy}
	cs, err := newConnServer(addr, w.serveConn)
	if err != nil {
		return nil, fmt.Errorf("stream: shard worker: %w", err)
	}
	w.connServer = cs
	return w, nil
}

// connServer owns a listener's connection lifecycle — accept loop, live
// connection registry, and a Close that stops accepting, closes every
// connection, and waits for the handlers to drain — so the subtle parts
// (the accept-after-Close check, the WaitGroup ordering that keeps Close
// from returning early) sit apart from the frame protocol.
type connServer struct {
	l  net.Listener
	wg sync.WaitGroup

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// newConnServer listens on addr and serves each accepted connection with
// handler on its own goroutine; the registry bookkeeping wraps the call.
func newConnServer(addr string, handler func(net.Conn)) (*connServer, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("stream: listen: %w", err)
	}
	s := &connServer{l: l, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop(handler)
	return s, nil
}

// Addr returns the bound address.
func (s *connServer) Addr() string { return s.l.Addr().String() }

func (s *connServer) acceptLoop(handler func(net.Conn)) {
	defer s.wg.Done()
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			handler(conn)
		}()
	}
}

// Close stops accepting, closes live connections, and waits for handlers.
func (s *connServer) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.l.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// workerStream is the worker-side state of one deployment's stream: its
// replica registry and the credit acks it owes the coordinator. heads,
// advs and cks are all keyed (or prefixed) by shard, so one shard's
// replica can leave the stream (frameUndeploy, a rescale) without
// disturbing its siblings. advs is sorted by shard: a tick frame advances
// the replicas, and so sends their result frames, in shard order.
type workerStream struct {
	heads map[string]Operator
	advs  []shardAdvancers
	cks   map[int][]Checkpointer
	send  ResultSender
	pend  int // processed-but-unacked credit frames
}

// shardAdvancers is one replica's time-driven operators.
type shardAdvancers struct {
	shard int
	advs  []Advancer
}

// setAdvs records shard's advancers at its place in shard order, replacing
// any the shard had; nil removes the shard.
func (ws *workerStream) setAdvs(shard int, advs []Advancer) {
	i, found := slices.BinarySearchFunc(ws.advs, shard, func(r shardAdvancers, j int) int { return cmp.Compare(r.shard, j) })
	switch {
	case found && advs == nil:
		ws.advs = slices.Delete(ws.advs, i, i+1)
	case found:
		ws.advs[i].advs = advs
	case advs != nil:
		ws.advs = slices.Insert(ws.advs, i, shardAdvancers{shard, advs})
	}
}

// serveConn drives one coordinator link: decode a frame, route it to its
// stream, process it. Processing is synchronous on this goroutine, so by
// the time a barrier frame acks, every result its predecessors produced
// has already been encoded onto the connection ahead of the ack.
//
// Each replica sends at most one result frame per replica call — per data
// frame into one of its heads, and per tick frame (a tick reaches every
// replica on the stream, each one call, in shard order) — when the call
// returns, before the frame's credit ack is owed. Writes are coalesced on
// top: result frames and credit acks accumulate in the connection's write
// buffer and flush when the input drains (nothing more is in flight to
// process first), at any barrier ack, past the buffer threshold, or every
// workerAckEvery credit frames — one syscall then carries an epoch's worth
// of results and acks.
func (w *ShardWorker) serveConn(conn net.Conn) {
	r := newWireReader(conn)
	wr := &wireWriter{conn: conn}
	streams := map[uint64]*workerStream{}
	var dec batchDecoder
	pendTotal := 0 // credit acks owed across all streams
	sinceAck := 0  // credit frames processed since the last ack flush

	// flushAcks emits every owed credit ack and flushes the buffer.
	flushAcks := func() error {
		for id, ws := range streams {
			if ws.pend > 0 {
				appendAckFrame(wr, id, 0, ws.pend, "")
				ws.pend = 0
			}
		}
		pendTotal = 0
		sinceAck = 0
		return wr.flush()
	}
	// getStream lazily creates per-stream state (deploy normally creates
	// it; a data frame racing a dropped stream still gets its credit
	// acked so the coordinator's window never leaks).
	getStream := func(id uint64) *workerStream {
		ws := streams[id]
		if ws == nil {
			ws = &workerStream{heads: map[string]Operator{}, cks: map[int][]Checkpointer{}}
			ws.send = func(ts []data.Tuple) error {
				if len(ts) == 0 {
					return nil
				}
				m := wr.begin(frameResult)
				wr.buf = appendUvarint(wr.buf, id)
				wr.buf = appendBatch(wr.buf, ts)
				wr.end(m)
				if wr.buffered() >= wireFlushBytes {
					return wr.flush()
				}
				return nil
			}
			streams[id] = ws
		}
		return ws
	}

	for {
		if r.buffered() == 0 && (pendTotal > 0 || wr.buffered() > 0) {
			// Input drained: everything owed — results, credit acks — goes
			// out now, in one write.
			if flushAcks() != nil {
				return
			}
		}
		kind, body, err := r.next()
		if err != nil {
			// EOF, reset, or a malformed peer: the connection's replicas die
			// with it; other connections keep serving.
			return
		}
		br := &byteReader{b: body}
		id := br.uvarint()
		if br.fail {
			return
		}
		switch kind {
		case frameDeploy:
			var db deployBody
			if gob.NewDecoder(bytes.NewReader(br.rest())).Decode(&db) != nil {
				return
			}
			ws := getStream(id)
			h, a, ck, derr := w.deploy(db.Spec, db.Shard, db.State, ws.send)
			errs := ""
			if derr != nil {
				errs = derr.Error()
			} else {
				for name, op := range h {
					ws.heads[headKey(db.Shard, name)] = op
				}
				ws.setAdvs(db.Shard, a)
				ws.cks[db.Shard] = ck
			}
			appendAckFrame(wr, id, db.Seq, 0, errs)
			if flushAcks() != nil {
				return
			}
		case frameData:
			key := br.bytes(int(br.uvarint()))
			batch, derr := dec.decode(br)
			if derr != nil || br.fail {
				return
			}
			ws := getStream(id)
			// Unknown heads drop silently (there is no way to NACK mid-stream):
			// the coordinator validated the deployment before opening the taps.
			if op, ok := ws.heads[string(key)]; ok {
				op.PushBatch(batch)
			}
			dec.release()
			ws.pend++
			pendTotal++
			sinceAck++
		case frameTick:
			now := vtimeFrom(br.u64())
			if br.fail {
				return
			}
			ws := getStream(id)
			for _, r := range ws.advs {
				for _, a := range r.advs {
					a.Advance(now)
				}
			}
			ws.pend++
			pendTotal++
			sinceAck++
		case frameFlush:
			seq := br.uvarint()
			if br.fail {
				return
			}
			appendAckFrame(wr, id, seq, 0, "")
			if flushAcks() != nil {
				return
			}
		case frameCheckpoint:
			seq := br.uvarint()
			if br.fail {
				return
			}
			ws := getStream(id)
			payload, cerr := encodeWorkerCheckpoint(ws.cks)
			errs := ""
			if cerr != nil {
				errs = cerr.Error()
				payload = nil
			}
			m := wr.begin(frameCkptState)
			wr.buf = appendUvarint(wr.buf, id)
			wr.buf = appendUvarint(wr.buf, seq)
			wr.buf = appendWireString(wr.buf, errs)
			wr.buf = appendUvarint(wr.buf, uint64(len(payload)))
			wr.buf = append(wr.buf, payload...)
			wr.end(m)
			if flushAcks() != nil {
				return
			}
		case frameUndeploy:
			// One shard's replica leaves the stream (a rescale moved it);
			// its siblings keep serving under the same credits.
			seq := br.uvarint()
			shard := int(br.uvarint())
			if br.fail {
				return
			}
			if ws := streams[id]; ws != nil {
				prefix := fmt.Sprintf("%d/", shard)
				for k := range ws.heads {
					if strings.HasPrefix(k, prefix) {
						delete(ws.heads, k)
					}
				}
				ws.setAdvs(shard, nil)
				delete(ws.cks, shard)
			}
			appendAckFrame(wr, id, seq, 0, "")
			if flushAcks() != nil {
				return
			}
		case frameClose:
			// Drop this stream's replicas; the other streams (and the
			// connection) live on until the coordinator's last deployment
			// releases it.
			seq := br.uvarint()
			if br.fail {
				return
			}
			if ws := streams[id]; ws != nil && ws.pend > 0 {
				appendAckFrame(wr, id, 0, ws.pend, "")
				pendTotal -= ws.pend
			}
			delete(streams, id)
			appendAckFrame(wr, id, seq, 0, "")
			if wr.flush() != nil {
				return
			}
		default:
			// Unknown frame kind: a non-protocol peer; drop the connection.
			return
		}
		if sinceAck >= workerAckEvery {
			// Sustained input on a busy connection: bound the coordinator's
			// credit-wait latency even though the input never drains.
			if flushAcks() != nil {
				return
			}
		}
	}
}

// appendAckFrame encodes one ack frame: seq matches a barrier (0 for
// pure credit acks), credits releases that many in-flight credits, errs
// reports a failed deploy/barrier.
func appendAckFrame(w *wireWriter, id, seq uint64, credits int, errs string) {
	m := w.begin(frameAck)
	w.buf = appendUvarint(w.buf, id)
	w.buf = appendUvarint(w.buf, seq)
	w.buf = appendUvarint(w.buf, uint64(credits))
	w.buf = appendWireString(w.buf, errs)
	w.end(m)
}

// logEntry is one replayable coordinator→worker frame: a data batch for a
// named replica head, or (Tick set) a clock instant for every replica on
// the stream.
type logEntry struct {
	shard int
	name  string
	batch []data.Tuple
	tick  bool
	now   vtime.Time
}

// connLog is the failover bookkeeping of one worker stream: the input
// replay log and output undo log since the last committed checkpoint, the
// last committed per-shard states, and the post-cutover redirect. in/out
// are bounded in steady state by the checkpoint cadence (ckEvery ticks or
// ckMaxLog entries, whichever comes first); between a failure and the end
// of its failover they grow with whatever producers push, which the
// exchange's bounded queues and the engine's tick cadence keep finite.
type connLog struct {
	mu      sync.Mutex
	in      []logEntry
	out     [][]data.Tuple
	mark    int            // in-log position of the in-flight checkpoint
	states  map[int][]byte // last committed checkpoint per shard
	dropped bool           // failover finished with this connection: stop accumulating
}

func (l *connLog) append(e logEntry) (size int) {
	l.mu.Lock()
	if l.dropped {
		l.mu.Unlock()
		return 0
	}
	l.in = append(l.in, e)
	size = len(l.in)
	l.mu.Unlock()
	return size
}

func (l *connLog) appendOut(batch []data.Tuple) {
	l.mu.Lock()
	l.out = append(l.out, batch)
	l.mu.Unlock()
}

// setMark records the current in-log length as the consistency point of the
// checkpoint frame about to be written. Caller holds the connection's write
// lock, so the mark and the frame take the same position in the FIFO order.
func (l *connLog) setMark() {
	l.mu.Lock()
	l.mark = len(l.in)
	l.mu.Unlock()
}

// commit installs a decoded worker checkpoint: entries before the mark and
// every output received so far (all FIFO-before the checkpoint reply) are
// subsumed by the states.
func (l *connLog) commit(payload []byte) error {
	states, err := decodeWorkerCheckpoint(payload)
	if err != nil {
		return err
	}
	l.mu.Lock()
	l.in = append(l.in[:0:0], l.in[l.mark:]...)
	l.mark = 0
	l.out = nil
	l.states = states
	l.mu.Unlock()
	return nil
}

// takeIn removes and returns every logged input entry.
func (l *connLog) takeIn() []logEntry {
	l.mu.Lock()
	in := l.in
	l.in = nil
	l.mark = 0
	l.mu.Unlock()
	return in
}

// takeOut removes and returns the output undo log.
func (l *connLog) takeOut() [][]data.Tuple {
	l.mu.Lock()
	out := l.out
	l.out = nil
	l.mu.Unlock()
	return out
}

// statesCopy snapshots the committed per-shard checkpoint states.
func (l *connLog) statesCopy() map[int][]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[int][]byte, len(l.states))
	for j, s := range l.states {
		out[j] = s
	}
	return out
}

// dropShard forgets one shard's committed checkpoint: the shard moved to
// another home (rescale), so a later failover of this connection must not
// redeploy it here.
func (l *connLog) dropShard(shard int) {
	l.mu.Lock()
	delete(l.states, shard)
	l.mu.Unlock()
}

// pendingIn reports how many replay-log entries are not yet subsumed by a
// committed checkpoint; a quiesced stream that just checkpointed reads 0.
func (l *connLog) pendingIn() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.in)
}

func (l *connLog) setState(shard int, state []byte) {
	l.mu.Lock()
	if l.states == nil {
		l.states = map[int][]byte{}
	}
	l.states[shard] = state
	l.mu.Unlock()
}

// drop ends the log's life: everything clears and later appends are
// no-ops (an abandoned connection's sends must not accumulate forever).
func (l *connLog) drop() {
	l.mu.Lock()
	l.dropped = true
	l.in = nil
	l.mark = 0
	l.out = nil
	l.states = nil
	l.mu.Unlock()
}

// ShardConn is the coordinator side of one deployment's link to a
// ShardWorker: one stream on the pooled physical connection to that
// worker (mux.go). Data batches and ticks consume bounded in-flight
// credits (acks release them); deploy, flush, close, and checkpoint are
// sequence-matched barriers. Result batches decoded by the connection's
// reader goroutine push into the deployment's merge sink, so per-stream
// FIFO makes a flush ack a result-drain barrier too.
//
// A transport failure is sticky and link-wide: a worker that stalls or
// dies stalls every stream on the connection, so any failure fails them
// all. Every later send drops (with failover disabled the deployment's
// result simply stops updating from this worker, matching the engine's
// lossy-link convention) and every waiting barrier fails fast. With
// failover enabled, the first failure also notifies the owning ShardSet,
// post-failure sends keep landing in the replay log, and the set
// redeploys the stream's shards elsewhere (see shard.go).
type ShardConn struct {
	addr string
	pc   *physConn
	id   uint64
	sink Operator     // result funnel (the deployment's Merge)
	dec  batchDecoder // result decode scratch; reader goroutine only

	credits chan struct{}

	// stall bounds every wait on an unresponsive worker; flog/onFail/ck*
	// are the failover extensions (flog nil = disabled, the PR-4 behavior).
	stall      time.Duration
	flog       *connLog
	onFail     func(*ShardConn)
	ckEvery    int
	ckMaxLog   int // checkpointMaxLog; a field so a test can shrink it
	ticks      atomic.Int64
	ckInflight atomic.Bool

	mu     sync.Mutex
	seq    uint64
	waits  map[uint64]chan error
	err    error
	done   chan struct{} // closed once the link is broken
	closed bool
}

// dialShard connects a deployment to a ShardWorker; decoded result batches
// push into sink. The physical connection comes from the process-wide pool
// — deployments to the same worker share one socket — so "dial" may just
// open a new stream on an existing connection. timeout (<= 0: the package
// default) bounds the connect attempt and then every ack wait on the
// stream: a blackholed address fails within it instead of the kernel's
// connect default, and any flush ack, barrier ack, credit, or socket write
// outstanding longer marks the link broken — a stalled-but-connected worker
// becomes a detected failure instead of an indefinite hang. Rescale and
// failover dial while holding the deployment's locks, so every wait they
// perform must be bounded.
func dialShard(addr string, sink Operator, timeout time.Duration) (*ShardConn, error) {
	if timeout <= 0 {
		timeout = remoteStallTimeout
	}
	pc, err := shardPool.get(addr, timeout)
	if err != nil {
		return nil, err
	}
	return pc.newStream(sink, timeout), nil
}

// Addr returns the worker address this connection serves.
func (c *ShardConn) Addr() string { return c.addr }

// enableFailover turns on the replay/undo logs. Called by the ShardSet as
// it dials the stream, before any frame traffic (and by a rescale, which
// borrows a log just for its checkpoint barrier).
func (c *ShardConn) enableFailover(ckEvery int) {
	c.flog = &connLog{}
	c.ckEvery = ckEvery
	c.ckMaxLog = checkpointMaxLog
}

// armFailover installs the sticky-failure notification. The set arms its
// connections only once it serves (a failure during ShardSet.Deploy aborts
// the deploy instead); a failure that slipped in between is notified here,
// so it is delivered exactly once either way.
func (c *ShardConn) armFailover(onFail func(*ShardConn)) {
	c.mu.Lock()
	c.onFail = onFail
	missed := c.err != nil && !c.closed
	c.mu.Unlock()
	if missed {
		onFail(c)
	}
}

// Err reports the sticky transport failure, if any.
func (c *ShardConn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// handleFrame processes one worker frame dispatched by the physical
// connection's read loop: results into the sink (and the undo log),
// credit acks back into the send budget, barrier acks to their waiters,
// checkpoint states into the log's committed snapshot. Returns false on
// a malformed frame (which fails the whole link).
func (c *ShardConn) handleFrame(kind frameKind, br *byteReader) bool {
	switch kind {
	case frameResult:
		batch, err := c.dec.decode(br)
		if err != nil {
			return false
		}
		if len(batch) == 0 {
			return true
		}
		if c.flog != nil {
			// The decoder's tuple slice is per-frame scratch; the undo log
			// outlives the frame, so it keeps its own slice (the values and
			// their arenas are retained either way).
			c.flog.appendOut(append([]data.Tuple(nil), batch...))
		}
		c.sink.PushBatch(batch)
		c.dec.release()
	case frameCkptState:
		seq := br.uvarint()
		errs := br.wireString()
		payload := br.bytes(int(br.uvarint()))
		if br.fail {
			return false
		}
		// Decoded on the FIFO: every result before this reply is already
		// in the undo log, so committing here truncates both logs at the
		// exact consistency point of the checkpoint.
		var err error
		if errs != "" {
			err = fmt.Errorf("stream: shard worker %s: checkpoint: %s", c.addr, errs)
		} else if c.flog != nil {
			err = c.flog.commit(payload)
		}
		c.deliverAck(seq, err)
	case frameAck:
		seq := br.uvarint()
		credits := br.uvarint()
		errs := br.wireString()
		if br.fail || credits > remoteInflight {
			return false
		}
		for i := uint64(0); i < credits; i++ {
			select {
			case c.credits <- struct{}{}:
			default: // worker over-ack: never block the reader
			}
		}
		if seq != 0 {
			var err error
			if errs != "" {
				err = fmt.Errorf("stream: shard worker %s: %s", c.addr, errs)
			}
			c.deliverAck(seq, err)
		}
	}
	return true
}

// deliverAck hands a sequence-matched ack to its waiter.
func (c *ShardConn) deliverAck(seq uint64, err error) {
	c.mu.Lock()
	ch, ok := c.waits[seq]
	delete(c.waits, seq)
	c.mu.Unlock()
	if ok {
		ch <- err
	}
}

// fail records the stream's sticky error, notifies the failover
// machinery, wakes every barrier waiter, and unblocks all senders. Only
// the physical connection's fail (which owns failure for the whole link)
// and newStream's dead-link check call it. The notification runs before
// the waiters wake, so whoever observes a failed barrier (a Flush, a
// deploy) already finds the failover pending.
func (c *ShardConn) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	close(c.done)
	notify := !c.closed && c.onFail != nil
	waits := c.waits
	c.waits = map[uint64]chan error{}
	c.mu.Unlock()
	if notify {
		c.onFail(c)
	}
	for _, ch := range waits {
		ch <- err
	}
}

// severLink tears the physical transport down and waits for its reader to
// exit, so no further results can reach the sink or the undo log — of
// this stream or any sibling (a severed link is a failure for every
// deployment sharing it, each of which runs its own failover). Idempotent;
// the failover machinery calls it before taking the logs.
func (c *ShardConn) severLink() {
	c.pc.sever(fmt.Errorf("stream: shard link %s: severed for failover", c.addr))
}

// acquireCredit takes one in-flight credit, blocking while remoteInflight
// frames are un-acked. A worker that stops acking entirely fails the link
// after the stall timeout instead of wedging the sender (which may be the
// engine tick loop) under the set's lock. The uncontended path takes no
// timer (and allocates nothing).
func (c *ShardConn) acquireCredit() error {
	// Sticky failure: drop immediately, per the documented contract —
	// without this, a send could race the closed done channel, win a
	// leftover credit, and block on the dead socket's write deadline.
	if err := c.Err(); err != nil {
		return err
	}
	select {
	case <-c.credits:
	case <-c.done:
		return c.Err()
	default:
		// Credit window exhausted. Whatever is pending in the write buffer
		// must reach the worker first — the acks we are about to wait on
		// answer frames that may still be sitting there.
		c.pc.wmu.Lock()
		err := c.pc.flushLocked(true, c.stall)
		c.pc.wmu.Unlock()
		if err != nil {
			return err
		}
		// Now wait, but never forever.
		stall := time.NewTimer(c.stall)
		select {
		case <-c.credits:
			stall.Stop()
		case <-c.done:
			stall.Stop()
			return c.Err()
		case <-stall.C:
			err := fmt.Errorf("stream: shard link %s: no ack in %s (worker stalled?)",
				c.addr, c.stall)
			c.pc.fail(err)
			return err
		}
	}
	return nil
}

// sendFrame ships one credit-consuming, replayable frame (a data batch
// for key, or — tick true — a clock instant), encoding it into the shared
// write buffer under the link's write lock. With failover enabled the
// entry is appended to the replay log under the same lock — the log order
// is the wire order — whether or not the link still delivers, so a
// redeployed replica can replay exactly what the lost worker was sent.
// force flushes the buffer to the socket; otherwise frames coalesce until
// a flush point (threshold, tick, barrier, or a credit wait).
func (c *ShardConn) sendFrame(shard int, name, key string, ts []data.Tuple, tick bool, now vtime.Time, force bool) error {
	live := c.Err() == nil
	if live && c.acquireCredit() != nil {
		live = false
	}
	if c.flog == nil && !live {
		return c.Err()
	}
	pc := c.pc
	pc.wmu.Lock()
	var size int
	if c.flog != nil {
		e := logEntry{shard: shard, name: name, tick: tick, now: now}
		if !tick {
			// The pipeline owns pushed tuples (nobody mutates them after the
			// send), so the log retains them without cloning values.
			e.batch = append([]data.Tuple(nil), ts...)
		}
		size = c.flog.append(e)
	}
	var err error
	if live && c.Err() == nil {
		if tick {
			m := pc.w.begin(frameTick)
			pc.w.buf = appendUvarint(pc.w.buf, c.id)
			pc.w.buf = appendU64(pc.w.buf, uint64(now))
			pc.w.end(m)
		} else {
			m := pc.w.begin(frameData)
			pc.w.buf = appendUvarint(pc.w.buf, c.id)
			pc.w.buf = appendWireString(pc.w.buf, key)
			pc.w.buf = appendBatch(pc.w.buf, ts)
			pc.w.end(m)
		}
		err = pc.flushLocked(force, c.stall)
	} else {
		err = c.Err()
	}
	pc.wmu.Unlock()
	if err == nil && c.flog != nil && size >= c.ckMaxLog && !c.ckInflight.Load() {
		// The replay log is getting long: checkpoint so it can truncate.
		// The Load is advisory (checkpoint re-checks under the CAS); it
		// keeps a fast producer from spawning a goroutine per batch while
		// one checkpoint round trip is already in flight.
		go c.checkpoint()
	}
	return err
}

// writeSeqFrame encodes one sequence-carrying control frame (flush,
// close, checkpoint) and force-flushes: a barrier's waiter needs the
// frame on the wire before the stall clock means anything.
func (c *ShardConn) writeSeqFrame(kind frameKind, seq uint64) error {
	if err := c.Err(); err != nil {
		return err // broken link: drop instead of touching the dead socket
	}
	pc := c.pc
	pc.wmu.Lock()
	if err := c.Err(); err != nil {
		pc.wmu.Unlock()
		return err
	}
	m := pc.w.begin(kind)
	pc.w.buf = appendUvarint(pc.w.buf, c.id)
	pc.w.buf = appendUvarint(pc.w.buf, seq)
	pc.w.end(m)
	err := pc.flushLocked(true, c.stall)
	pc.wmu.Unlock()
	return err
}

// barrier encodes a sequence-matched frame and waits for its ack, marking
// the link broken if none comes within the stall timeout.
func (c *ShardConn) barrier(kind frameKind) error {
	ch, seq, err := c.registerWait()
	if err != nil {
		return err
	}
	if err := c.writeSeqFrame(kind, seq); err != nil {
		return err
	}
	return c.awaitAck(ch, "worker stalled, or not a shard worker?")
}

// registerWait allocates a barrier sequence number and its ack channel.
func (c *ShardConn) registerWait() (chan error, uint64, error) {
	ch := make(chan error, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, 0, err
	}
	c.seq++
	seq := c.seq
	c.waits[seq] = ch
	c.mu.Unlock()
	return ch, seq, nil
}

// awaitAck waits for a registered barrier ack under the stall deadline.
func (c *ShardConn) awaitAck(ch chan error, why string) error {
	stall := time.NewTimer(c.stall)
	defer stall.Stop()
	select {
	case err := <-ch:
		return err
	case <-stall.C:
		c.pc.fail(fmt.Errorf("stream: shard link %s: no barrier ack in %s (%s)",
			c.addr, c.stall, why))
		// fail delivered the error to every registered waiter — but the
		// real ack may have raced the timeout and buffered nil into ch
		// first. The link is broken either way now, so never report
		// success here.
		if err := <-ch; err != nil {
			return err
		}
		return c.Err()
	}
}

// Deploy ships a replica spec for the given shard, with an optional
// checkpoint to restore (nil = fresh), and waits for the worker's compile
// to succeed or fail. A successful deploy records the state as the shard's
// committed checkpoint, so a failover chain never loses the state a replica
// was seeded with.
func (c *ShardConn) Deploy(spec []byte, shard int, state []byte) error {
	ch, seq, err := c.registerWait()
	if err != nil {
		return err
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(deployBody{Seq: seq, Shard: shard, Spec: spec, State: state}); err != nil {
		c.deliverAck(seq, nil) // unregister the orphaned wait
		return fmt.Errorf("stream: encode deploy: %w", err)
	}
	werr := func() error {
		if err := c.Err(); err != nil {
			return err
		}
		pc := c.pc
		pc.wmu.Lock()
		defer pc.wmu.Unlock()
		if err := c.Err(); err != nil {
			return err
		}
		m := pc.w.begin(frameDeploy)
		pc.w.buf = appendUvarint(pc.w.buf, c.id)
		pc.w.buf = append(pc.w.buf, body.Bytes()...)
		pc.w.end(m)
		return pc.flushLocked(true, c.stall)
	}()
	if werr != nil {
		return werr
	}
	err = c.awaitAck(ch, "worker stalled, or not a shard worker?")
	if err == nil && c.flog != nil {
		c.flog.setState(shard, state)
	}
	return err
}

// checkpoint runs one checkpoint barrier: it marks the replay-log position
// under the write lock (the FIFO consistency point), asks the worker for
// its replica states, and lets the read loop commit them. At most one
// checkpoint is in flight per stream; failures leave the logs intact
// (the next failover simply replays more).
func (c *ShardConn) checkpoint() {
	if c.flog == nil || !c.ckInflight.CompareAndSwap(false, true) {
		return
	}
	defer c.ckInflight.Store(false)
	_ = c.checkpointBarrier()
}

// checkpointSync runs one checkpoint barrier, waiting out any in-flight
// asynchronous checkpoint first — the rescale path needs a committed,
// up-to-the-quiesce checkpoint, not a best-effort one.
func (c *ShardConn) checkpointSync() error {
	if c.flog == nil {
		return fmt.Errorf("stream: shard link %s: checkpoint without a replay log", c.addr)
	}
	deadline := time.Now().Add(c.stall)
	for !c.ckInflight.CompareAndSwap(false, true) {
		if time.Now().After(deadline) {
			return fmt.Errorf("stream: shard link %s: checkpoint already in flight past the stall bound", c.addr)
		}
		time.Sleep(time.Millisecond)
	}
	defer c.ckInflight.Store(false)
	return c.checkpointBarrier()
}

// checkpointBarrier is the locked body of checkpoint/checkpointSync;
// caller holds the ckInflight flag.
func (c *ShardConn) checkpointBarrier() error {
	ch, seq, err := c.registerWait()
	if err != nil {
		return err
	}
	pc := c.pc
	pc.wmu.Lock()
	if err := c.Err(); err != nil {
		pc.wmu.Unlock()
		return err
	}
	c.flog.setMark()
	m := pc.w.begin(frameCheckpoint)
	pc.w.buf = appendUvarint(pc.w.buf, c.id)
	pc.w.buf = appendUvarint(pc.w.buf, seq)
	pc.w.end(m)
	err = pc.flushLocked(true, c.stall)
	pc.wmu.Unlock()
	if err != nil {
		return err
	}
	return c.awaitAck(ch, "checkpoint unanswered")
}

// Undeploy tears one shard's replica down on the worker while the stream
// and its other shards keep serving, and forgets the shard's committed
// checkpoint — the rescale path's counterpart to Deploy.
func (c *ShardConn) Undeploy(shard int) error {
	ch, seq, err := c.registerWait()
	if err != nil {
		return err
	}
	werr := func() error {
		if err := c.Err(); err != nil {
			return err
		}
		pc := c.pc
		pc.wmu.Lock()
		defer pc.wmu.Unlock()
		if err := c.Err(); err != nil {
			return err
		}
		m := pc.w.begin(frameUndeploy)
		pc.w.buf = appendUvarint(pc.w.buf, c.id)
		pc.w.buf = appendUvarint(pc.w.buf, seq)
		pc.w.buf = appendUvarint(pc.w.buf, uint64(shard))
		pc.w.end(m)
		return pc.flushLocked(true, c.stall)
	}()
	if werr != nil {
		return werr
	}
	err = c.awaitAck(ch, "undeploy unanswered")
	if err == nil && c.flog != nil {
		c.flog.dropShard(shard)
	}
	return err
}

// SendBatch ships one data batch to the named replica head of a shard.
// After it returns, the batch buffer may be reused: the codec has copied
// the tuples into the wire buffer (and the replay log keeps only the
// tuples, which the pipeline owns).
func (c *ShardConn) SendBatch(shard int, name string, ts []data.Tuple) error {
	if len(ts) == 0 {
		return nil
	}
	return c.sendShard(shard, name, headKey(shard, name), ts, false)
}

// sendShard is SendBatch with the wire key precomposed (RemoteHead caches
// it, keeping the exchange's per-batch path free of formatting
// allocations). Unless force writes it at once, the frame coalesces in the
// write buffer until the next flush point — normally the tick that ends the
// epoch.
func (c *ShardConn) sendShard(shard int, name, key string, ts []data.Tuple, force bool) error {
	if len(ts) == 0 {
		return nil
	}
	return c.sendFrame(shard, name, key, ts, false, 0, force)
}

// Tick advances every replica window deployed over this stream, flushes
// the write buffer (a tick ends an epoch: everything it should see must
// reach the worker), and paces the checkpoint cadence: every ckEvery-th
// tick schedules an asynchronous checkpoint barrier.
func (c *ShardConn) Tick(now vtime.Time) error {
	err := c.sendFrame(0, "", "", nil, true, now, true)
	if c.flog != nil && c.ckEvery > 0 && c.ticks.Add(1)%int64(c.ckEvery) == 0 && !c.ckInflight.Load() {
		go c.checkpoint()
	}
	return err
}

// Flush barriers the stream: when it returns nil, every batch and tick
// sent before the call has been processed by the worker and every result it
// produced has been pushed into the sink.
func (c *ShardConn) Flush() error {
	return c.barrier(frameFlush)
}

// Close barriers outstanding work, tears this stream's replicas down on
// the worker, and releases the stream's reference on the pooled physical
// connection (the socket closes when the last deployment using this
// worker releases it). Safe to call on a broken link. Idempotent.
func (c *ShardConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.barrier(frameClose)
	c.pc.dropStream(c)
	return err
}

// RemoteHead is the coordinator-side stand-in for a replica entry point
// hosted on a ShardWorker: pushes ship to the worker-registered head it
// names (the wire key is precomposed once here). The ShardSet routes
// batches through it without a local queue.
type RemoteHead struct {
	schema *data.Schema
	conn   *ShardConn
	shard  int
	name   string
	key    string
}

// Head builds the stand-in for the named entry point of a shard deployed
// over this connection.
func (c *ShardConn) Head(schema *data.Schema, shard int, name string) *RemoteHead {
	return &RemoteHead{schema: schema, conn: c, shard: shard, name: name, key: headKey(shard, name)}
}

// Schema implements Operator.
func (h *RemoteHead) Schema() *data.Schema { return h.schema }

// Push implements Operator.
func (h *RemoteHead) Push(t data.Tuple) { h.PushBatch([]data.Tuple{t}) }

// PushBatch implements Operator.
func (h *RemoteHead) PushBatch(ts []data.Tuple) {
	_ = h.conn.sendShard(h.shard, h.name, h.key, ts, false)
}
