package stream

import (
	"bytes"
	"fmt"
	"maps"
	"net"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// This file is the multi-node half of the partition-parallel layer: a shard
// replica of a deployed plan may live in another engine process (another PC
// of the paper's architecture) behind a ShardConn instead of an in-process
// home (shard.go). One physical TCP connection per (coordinator, worker)
// carries every deployment between the two, multiplexed by per-deployment
// stream ids (mux.go); a ShardConn is one such stream. Everything travels
// both ways over it — deploy specs, data batches, clock ticks, and
// flush/close barriers outward; result batches and acks back — in the
// binary columnar wire format (wire.go). FIFO ordering per stream, and the
// worker's barrier before every reply (ShardWorker.serveConn), give the same
// guarantees an in-process home's queue does: a barrier ack arrives behind
// every result its data produced.
//
// With failover enabled (shard.go), each stream additionally keeps a
// coordinator-side replay log of every frame sent and every result received
// since the last committed checkpoint, and periodically asks the worker for
// a checkpoint of its replica states. The FIFO position of the checkpoint
// frame makes both logs exact: everything before it is subsumed by the
// returned state, everything after it is what a redeployed replica must
// undo (results) and replay (inputs). Without failover a stream keeps no
// log: a rescale or CheckpointAll takes the per-shard states straight from
// the checkpoint reply.
//
// Every sequence-matched control frame — deploy, undeploy, flush, close,
// checkpoint — leaves the coordinator through one call, ShardConn.request,
// and carries its sequence number in the header after the stream id.

// remoteInflight bounds un-acked data/tick frames per stream. A worker acks
// a frame's credit once the frame is queued on its replicas' executors, not
// once they have run it, so a sender that has used its window waits for the
// worker to accept more. The overload policy is to block: a replica slower
// than its frames fills its executor's queue (shardQueueCap), which blocks
// the worker link's frame loop, which stops acking, which blocks the sender
// after remoteInflight more frames — the engine tick loop or a producer,
// until a credit arrives or the stall timeout fails the link.
const remoteInflight = 32

// workerAckEvery bounds credit-ack latency under sustained input: the
// worker normally coalesces credit acks until its input drains, but a
// connection whose other streams keep it busy must not starve one
// stream's credit window, so acks also flush every this many queued
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
// name, the replica's time-driven operators (windows), which ticks advance
// on the replica's executor, and the replica's stateful operators in
// deterministic order for checkpoint barriers. The replica emits through
// send once per call into an entry point or advancer (a ResultSink's Entry
// and Tick); replicas of one home emit from their own goroutines.
type DeployFunc func(spec []byte, shard int, state []byte, send ResultSender) (heads map[string]Operator, advs []Advancer, cks []Checkpointer, err error)

// appendHeadKey appends a data frame's key: shard's entry point name as
// the length-prefixed string "shard/name", built in place rather than as a
// string of its own.
func appendHeadKey(b []byte, shard int, name string) []byte {
	var d [20]byte
	digits := strconv.AppendUint(d[:0], uint64(shard), 10)
	b = appendUvarint(b, uint64(len(digits)+1+len(name)))
	b = append(append(b, digits...), '/')
	return append(b, name...)
}

// readHeadKey splits a data frame's key into its shard and entry point name,
// which aliases the frame. A key that names no shard reads as shard -1.
func readHeadKey(br *byteReader) (shard int, name []byte) {
	key := br.bytes(int(br.uvarint()))
	i := bytes.IndexByte(key, '/')
	if br.fail || i < 1 || i > 9 { // 9 digits: no shard count comes near
		return -1, nil
	}
	for _, c := range key[:i] {
		if c < '0' || c > '9' {
			return -1, nil
		}
		shard = 10*shard + int(c-'0')
	}
	return shard, key[i+1:]
}

// appendDeployBody encodes a deploy frame's body, after its stream id and
// sequence number: the shard, then the length-prefixed replica spec and
// state to restore (empty = fresh).
func appendDeployBody(b []byte, shard int, spec, state []byte) []byte {
	return appendWireString(appendWireString(appendUvarint(b, uint64(shard)), spec), state)
}

// readDeployBody decodes appendDeployBody's layout into copies: the frame
// buffer is reused, and a replica may keep either.
func readDeployBody(br *byteReader) (shard int, spec, state []byte, ok bool) {
	shard = int(br.uvarint())
	spec = bytes.Clone(br.bytes(int(br.uvarint())))
	if state = br.bytes(int(br.uvarint())); len(state) > 0 {
		state = bytes.Clone(state)
	}
	return shard, spec, state, !br.fail && shard >= 0
}

// appendShardStates encodes a checkpoint reply's states: the replica
// count, then each replica's shard and length-prefixed state (its
// EncodeCheckpoint payload), in shard order.
func appendShardStates(b []byte, states map[int][]byte) []byte {
	b = appendUvarint(b, uint64(len(states)))
	for _, j := range slices.Sorted(maps.Keys(states)) {
		b = appendWireString(appendUvarint(b, uint64(j)), states[j])
	}
	return b
}

// readShardStates decodes appendShardStates' layout. A replica takes at
// least two bytes, so a count the rest of the body cannot hold is
// malformed before anything is allocated for it.
func readShardStates(br *byteReader) (map[int][]byte, bool) {
	n := br.uvarint()
	if n > uint64(len(br.b)-br.off)/2 {
		return nil, false
	}
	states := make(map[int][]byte, n)
	for range n {
		j := int(br.uvarint())
		if states[j] = bytes.Clone(br.bytes(int(br.uvarint()))); j < 0 {
			return nil, false
		}
	}
	return states, !br.fail
}

// ShardWorker hosts remote shard replicas: it accepts coordinator
// connections and serves the shard frame protocol — deploy builds replicas
// through the DeployFunc, data frames push into replica heads, tick frames
// advance replica windows, flush/close frames ack as barriers, checkpoint
// frames reply with the replicas' encoded operator states. One connection
// carries many deployments, each under its own stream id with its own
// replicas. Each replica runs on an executor of its own (shard.go), one
// goroutine per replica: the replicas a worker hosts run in parallel, and
// each keeps the single-writer discipline replica operators rely on. A
// connection's goroutine only decodes frames and hands them to the
// executors (serveConn). Close returns once every connection and every
// executor goroutine has ended.
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

// workerStream is the worker-side state of one deployment's stream: an
// executor per shard it hosts, and the credit acks it owes the coordinator.
type workerStream struct {
	execs map[int]*executor
	send  ResultSender // every executor's: a result frame under the stream's id
	pend  int          // queued-but-unacked credit frames
	wg    sync.WaitGroup
}

// deploy builds shard's replica on an executor of its own, replacing any the
// stream had for it. Its results go out through the stream's send, and out
// writes them once the executor's queue drains.
func (ws *workerStream) deploy(build DeployFunc, spec []byte, shard int, state []byte, pool batchPool, out *linkWriter) error {
	ws.undeploy(shard)
	ex, err := newExecutor(build, spec, shard, state, ws.send, pool, out.flushIdle)
	if err != nil {
		return err
	}
	ws.execs[shard] = ex
	return nil
}

// undeploy stops shard's executor, once it has run everything queued.
func (ws *workerStream) undeploy(shard int) {
	if ex := ws.execs[shard]; ex != nil {
		ex.close()
		delete(ws.execs, shard)
	}
}

// barrier returns once every executor of the stream has run everything
// queued before it, and so has written every result of the frames before.
// The WaitGroup is the stream's, reused: a barrier allocates nothing.
func (ws *workerStream) barrier() {
	for _, ex := range ws.execs {
		ex.post(&ws.wg)
	}
	ws.wg.Wait()
}

// states encodes every replica's operator state, by shard. Call it behind a
// barrier, which leaves every executor idle.
func (ws *workerStream) states() (map[int][]byte, error) {
	out := make(map[int][]byte, len(ws.execs))
	for j, ex := range ws.execs {
		st, err := EncodeCheckpoint(ex.rep.cks)
		if err != nil {
			return nil, err
		}
		out[j] = st
	}
	return out, nil
}

// close stops every executor of the stream.
func (ws *workerStream) close() {
	for j := range ws.execs {
		ws.undeploy(j)
	}
}

// linkWriter is a worker link's write side: every executor's result frames,
// and the frame loop's credit acks and replies, coalesce in one buffer under
// one lock. A write error is sticky, and once the frame loop leaves nothing
// more is written, so a replica that is mid-call when its link dies finds
// its send failing rather than the closed connection.
type linkWriter struct {
	mu   sync.Mutex
	w    wireWriter
	err  error       // the first write error
	gone atomic.Bool // the frame loop has left
}

// usableLocked reports why nothing may be written, if anything. Caller
// holds l.mu.
func (l *linkWriter) usableLocked() error {
	if l.err == nil && l.gone.Load() {
		l.err = net.ErrClosed
	}
	return l.err
}

// flushLocked writes everything buffered. Caller holds l.mu.
func (l *linkWriter) flushLocked() error {
	if err := l.usableLocked(); err != nil {
		return err
	}
	l.err = l.w.flush()
	return l.err
}

// flushIdle is an executor's idle hook: whatever its replica (or any other)
// buffered goes out.
func (l *linkWriter) flushIdle() {
	l.mu.Lock()
	if l.w.buffered() > 0 {
		_ = l.flushLocked()
	}
	l.mu.Unlock()
}

// result encodes one result frame of stream id, writing the buffer once it
// holds wireFlushBytes.
func (l *linkWriter) result(id uint64, ts []data.Tuple) error {
	if len(ts) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	m := l.w.begin(frameResult)
	l.w.buf = appendUvarint(l.w.buf, id)
	l.w.buf = appendBatch(l.w.buf, ts)
	l.w.end(m)
	if l.w.buffered() >= wireFlushBytes {
		return l.flushLocked()
	}
	return nil
}

// serveConn drives one coordinator link. Its goroutine decodes frames and
// hands them to the executors of their stream's replicas, which run them:
//
//   - a data frame is decoded into a pooled batch and queued on its shard's
//     executor, found from the frame's key without building a string;
//   - a tick frame is queued on every executor of the stream;
//   - a request (deploy, undeploy, flush, checkpoint, close) first barriers
//     every executor of its stream, so by the time it is answered every
//     result its predecessors produced has been encoded onto the connection
//     ahead of the reply — the per-stream FIFO order failover's replay and
//     undo logs, and checkpoint consistency, rely on.
//
// Each replica sends at most one result frame per replica call — per data
// frame into one of its heads, and per tick frame — when the call returns,
// from its own executor, under the link's write lock. The order in which
// the replicas' frames interleave is theirs to race for. A credit is owed
// once its frame is queued: the overload policy is to block (see
// remoteInflight), as a full queue blocks this goroutine before it owes the
// credit. Writes are coalesced: result frames and credit acks accumulate in
// the link's write buffer and go out when an executor's queue drains, when
// this goroutine's input drains (nothing more is in flight to queue first),
// at any request's reply, past the buffer threshold, or every
// workerAckEvery credit frames.
//
// When the link dies, or the peer breaks protocol, nothing more is written
// and every executor of the connection has exited before serveConn returns.
func (w *ShardWorker) serveConn(conn net.Conn) {
	r := newWireReader(conn)
	out := &linkWriter{w: wireWriter{conn: conn}}
	streams := map[uint64]*workerStream{}
	// Buffers for decoded data batches, back from the executors once run.
	// Room for two replicas' full queues: a pool smaller than the buffers in
	// flight drops the surplus, and the next frames allocate again.
	pool := make(batchPool, 2*shardQueueCap)
	var dec batchDecoder
	pendTotal := 0 // credit acks owed across all streams
	sinceAck := 0  // credit frames queued since the last ack flush
	defer func() {
		out.gone.Store(true)
		conn.Close()
		for _, ws := range streams {
			ws.close()
		}
	}()

	// flushAcks emits every owed credit ack and flushes the buffer.
	flushAcks := func() error {
		out.mu.Lock()
		defer out.mu.Unlock()
		for id, ws := range streams {
			if ws.pend > 0 {
				appendAckFrame(&out.w, id, 0, ws.pend, "")
				ws.pend = 0
			}
		}
		pendTotal = 0
		sinceAck = 0
		return out.flushLocked()
	}
	// getStream lazily creates per-stream state (deploy normally creates
	// it; a data frame racing a dropped stream still gets its credit
	// acked so the coordinator's window never leaks).
	getStream := func(id uint64) *workerStream {
		ws := streams[id]
		if ws == nil {
			ws = &workerStream{execs: map[int]*executor{}}
			ws.send = func(ts []data.Tuple) error { return out.result(id, ts) }
			streams[id] = ws
		}
		return ws
	}

	for {
		if r.buffered() == 0 && pendTotal > 0 {
			// Input drained: every credit ack owed goes out now, in one write
			// with whatever results are buffered.
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
		case frameData:
			shard, name := readHeadKey(br)
			batch, derr := dec.decodeInto(br, pool.get())
			if derr != nil || br.fail {
				return
			}
			ws := getStream(id)
			// Unknown heads drop silently (there is no way to NACK mid-stream):
			// the coordinator validated the deployment before opening the taps.
			if ex := ws.execs[shard]; ex != nil {
				ex.push(ex.rep.heads[string(name)], batch)
			} else {
				pool.put(batch)
			}
			ws.pend++
			pendTotal++
			sinceAck++
		case frameTick:
			now := vtimeFrom(br.u64())
			if br.fail {
				return
			}
			ws := getStream(id)
			for _, ex := range ws.execs {
				ex.tick(now)
			}
			ws.pend++
			pendTotal++
			sinceAck++
		default:
			// A request: its sequence number follows the stream id, and its
			// reply — an ack, or a checkpoint's states — goes out at once,
			// behind every result its predecessors produced.
			seq := br.uvarint()
			if br.fail {
				return
			}
			ws := streams[id]
			if ws != nil {
				ws.barrier()
			}
			errs := ""
			var states map[int][]byte
			switch kind {
			case frameDeploy:
				shard, spec, state, ok := readDeployBody(br)
				if !ok {
					return
				}
				ws = getStream(id)
				if derr := ws.deploy(w.deploy, spec, shard, state, pool, out); derr != nil {
					errs = derr.Error()
				}
			case frameFlush:
			case frameCheckpoint:
				if ws != nil {
					var cerr error
					if states, cerr = ws.states(); cerr != nil {
						errs = cerr.Error()
					}
				}
			case frameUndeploy:
				// One shard's replica leaves the stream (a rescale moved it);
				// its siblings keep serving under the same credits.
				shard := int(br.uvarint())
				if br.fail {
					return
				}
				if ws != nil {
					ws.undeploy(shard)
				}
			case frameClose:
				// Drop this stream's replicas, acking its owed credits first;
				// the other streams (and the connection) live on until the
				// coordinator's last deployment releases it.
				if ws != nil {
					ws.close()
					delete(streams, id)
				}
			default:
				// Unknown frame kind: a non-protocol peer; drop the connection.
				return
			}
			out.mu.Lock()
			if kind == frameClose && ws != nil && ws.pend > 0 {
				appendAckFrame(&out.w, id, 0, ws.pend, "")
			}
			if kind == frameCheckpoint {
				m := out.w.begin(frameCkptState)
				out.w.buf = appendUvarint(out.w.buf, id)
				out.w.buf = appendUvarint(out.w.buf, seq)
				out.w.buf = appendWireString(out.w.buf, errs)
				out.w.buf = appendShardStates(out.w.buf, states)
				out.w.end(m)
			} else {
				appendAckFrame(&out.w, id, seq, 0, errs)
			}
			out.mu.Unlock()
			if flushAcks() != nil {
				return
			}
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

// logEntry is one replayable coordinator→worker frame: a data batch for
// shard's entry point name, or (Tick set) a clock instant for every replica
// on the stream.
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
func (l *connLog) commit(states map[int][]byte) {
	l.mu.Lock()
	l.in = append(l.in[:0:0], l.in[l.mark:]...)
	l.mark = 0
	l.out = nil
	l.states = states
	l.mu.Unlock()
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
// credits (acks release them); deploy, undeploy, flush, close, and
// checkpoint are sequence-matched requests. Result batches decoded by the
// connection's reader goroutine push into the deployment's merge sink, so
// per-stream FIFO makes a flush ack a result-drain barrier too.
//
// A transport failure is sticky and link-wide: a worker that stalls or
// dies stalls every stream on the connection, so any failure fails them
// all. Every later send drops (with failover disabled the deployment's
// result simply stops updating from this worker, matching the engine's
// lossy-link convention) and every waiting request fails fast. With
// failover enabled, the first failure also notifies the owning ShardSet,
// post-failure sends keep landing in the replay log, and the set
// redeploys the stream's shards elsewhere (see shard.go).
type ShardConn struct {
	addr string
	pc   *physConn
	id   uint64
	sink Operator     // result funnel (the deployment's Merge)
	dec  batchDecoder // result decode scratch; reader goroutine only
	pool batchPool    // where ship returns the exchange's buffers; nil on a bare stream

	credits chan struct{}

	// stall bounds every wait on an unresponsive worker; flog/onFail/ck*
	// are the failover extensions (flog nil = disabled, the PR-4 behavior).
	stall    time.Duration
	flog     *connLog
	onFail   func(*ShardConn)
	ckEvery  int
	ckMaxLog int // checkpointMaxLog; a field so a test can shrink it
	ticks    atomic.Int64
	// ckmu is held by the one checkpoint in flight: the cadence checkpoints
	// skip while it is taken, a rescale or CheckpointAll waits for it.
	ckmu sync.Mutex

	mu     sync.Mutex
	seq    uint64
	waits  map[uint64]chan reply
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
// it dials the stream, before any frame traffic.
func (c *ShardConn) enableFailover(ckEvery int) {
	c.flog = &connLog{}
	c.ckEvery = ckEvery
	c.ckMaxLog = checkpointMaxLog
}

// armFailover installs the sticky-failure notification. The set arms its
// connections only once it serves (a failure during ShardSet.Deploy aborts
// the deploy instead); a failure that slipped in between is notified here,
// so it is delivered exactly once either way. onFail runs under c.mu, as in
// fail, and must not take it.
func (c *ShardConn) armFailover(onFail func(*ShardConn)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onFail = onFail
	if c.err != nil && !c.closed {
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
// credit acks back into the send budget, request acks to their waiters,
// checkpoint states to theirs and into the log's committed snapshot.
// Returns false on a malformed frame (which fails the whole link).
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
		states, ok := readShardStates(br)
		if br.fail || !ok {
			return false
		}
		// Decoded on the FIFO: every result before this reply is already
		// in the undo log, so committing here truncates both logs at the
		// exact consistency point of the checkpoint.
		r := reply{states: states}
		if errs != "" {
			r = reply{err: fmt.Errorf("stream: shard worker %s: checkpoint: %s", c.addr, errs)}
		} else if c.flog != nil {
			c.flog.commit(states)
		}
		c.deliver(seq, r)
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
			var r reply
			if errs != "" {
				r.err = fmt.Errorf("stream: shard worker %s: %s", c.addr, errs)
			}
			c.deliver(seq, r)
		}
	}
	return true
}

// reply is what a request's waiter receives: the worker's or the link's
// error, and a checkpoint's decoded per-shard states.
type reply struct {
	states map[int][]byte
	err    error
}

// deliver hands a sequence-matched reply to its waiter.
func (c *ShardConn) deliver(seq uint64, r reply) {
	c.mu.Lock()
	ch, ok := c.waits[seq]
	delete(c.waits, seq)
	c.mu.Unlock()
	if ok {
		ch <- r
	}
}

// fail records the stream's sticky error, notifies the failover
// machinery, wakes every request waiter, and unblocks all senders. Only
// the physical connection's fail (which owns failure for the whole link)
// and newStream's dead-link check call it. The notification runs under
// c.mu, with the error, and before the waiters wake, so whoever observes a
// failed request (a Flush, a deploy, a rescale) or the error already finds
// the failover pending.
func (c *ShardConn) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	close(c.done)
	if !c.closed && c.onFail != nil {
		c.onFail(c)
	}
	waits := c.waits
	c.waits = map[uint64]chan reply{}
	c.mu.Unlock()
	for _, ch := range waits {
		ch <- reply{err: err}
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
// for shard's entry point name, or — tick true — a clock instant), encoding it into the shared
// write buffer under the link's write lock. With failover enabled the
// entry is appended to the replay log under the same lock — the log order
// is the wire order — whether or not the link still delivers, so a
// redeployed replica can replay exactly what the lost worker was sent.
// force flushes the buffer to the socket; otherwise frames coalesce until
// a flush point (threshold, tick, barrier, or a credit wait).
func (c *ShardConn) sendFrame(shard int, name string, ts []data.Tuple, tick bool, now vtime.Time, force bool) error {
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
			pc.w.buf = appendHeadKey(pc.w.buf, shard, name)
			pc.w.buf = appendBatch(pc.w.buf, ts)
			pc.w.end(m)
		}
		err = pc.flushLocked(force, c.stall)
	} else {
		err = c.Err()
	}
	pc.wmu.Unlock()
	if err == nil && c.flog != nil && size >= c.ckMaxLog {
		// The replay log is getting long: checkpoint so it can truncate.
		c.checkpointSoon()
	}
	return err
}

// request sends one sequence-matched control frame — deploy, undeploy,
// flush, close or checkpoint — and waits for the worker's reply: the
// worker's error, or a checkpoint's decoded per-shard states.
func (c *ShardConn) request(kind frameKind, body []byte) (map[int][]byte, error) {
	ch, err := c.post(kind, body)
	if err != nil {
		return nil, err
	}
	return c.await(kind, ch)
}

// post writes one request frame and returns the channel its reply arrives
// on. Under the link's write lock it reserves the next sequence number,
// registers the waiter, and writes id, seq and body, flushed at once: the
// stall clock means nothing until the frame is on the wire. A checkpoint
// marks the replay log there too, so mark and frame take one FIFO position.
func (c *ShardConn) post(kind frameKind, body []byte) (chan reply, error) {
	ch := make(chan reply, 1)
	pc := c.pc
	pc.wmu.Lock()
	c.mu.Lock()
	if err := c.err; err != nil {
		c.mu.Unlock()
		pc.wmu.Unlock()
		return nil, err // broken link: fail fast instead of touching the dead socket
	}
	c.seq++
	seq := c.seq
	c.waits[seq] = ch
	c.mu.Unlock()
	if kind == frameCheckpoint && c.flog != nil {
		c.flog.setMark()
	}
	m := pc.w.begin(kind)
	pc.w.buf = appendUvarint(pc.w.buf, c.id)
	pc.w.buf = appendUvarint(pc.w.buf, seq)
	pc.w.buf = append(pc.w.buf, body...)
	pc.w.end(m)
	err := pc.flushLocked(true, c.stall)
	pc.wmu.Unlock()
	if err != nil {
		// The link broke under the write. The stream's fail — perhaps still
		// running on the goroutine that saw the break first — answers the
		// waiter only once the set knows, so wait for it.
		if r := <-ch; r.err != nil {
			return nil, r.err
		}
		return nil, err
	}
	return ch, nil
}

// await waits for the reply to a posted request; none within the stall
// bound breaks the link.
func (c *ShardConn) await(kind frameKind, ch chan reply) (map[int][]byte, error) {
	stall := time.NewTimer(c.stall)
	defer stall.Stop()
	select {
	case r := <-ch:
		return r.states, r.err
	case <-stall.C:
		c.pc.fail(fmt.Errorf("stream: shard link %s: no reply to frame kind %d in %s (worker stalled, or not a shard worker?)",
			c.addr, kind, c.stall))
		// fail delivered the error to every registered waiter — but the
		// real reply may have raced the timeout and buffered into ch
		// first. The link is broken either way now, so never report
		// success here.
		if r := <-ch; r.err != nil {
			return nil, r.err
		}
		return nil, c.Err()
	}
}

// Deploy ships a replica spec for the given shard, with an optional
// checkpoint to restore (nil = fresh), and waits for the worker's compile
// to succeed or fail. A successful deploy records the state as the shard's
// committed checkpoint, so a failover chain never loses the state a replica
// was seeded with.
func (c *ShardConn) Deploy(spec []byte, shard int, state []byte) error {
	if _, err := c.request(frameDeploy, appendDeployBody(nil, shard, spec, state)); err != nil {
		return err
	}
	if c.flog != nil {
		c.flog.setState(shard, state)
	}
	return nil
}

// checkpoint asks the worker for the state of every replica on the stream
// and returns it by shard; with failover armed the read loop has committed
// the same states to the replay log, which must then hold nothing: the
// caller quiesced every producer, so the checkpoint subsumes all the stream
// was sent. It waits out a checkpoint already in flight, which its own
// stall bound keeps finite.
func (c *ShardConn) checkpoint() (map[int][]byte, error) {
	c.ckmu.Lock()
	defer c.ckmu.Unlock()
	states, err := c.request(frameCheckpoint, nil)
	if err == nil && c.flog != nil {
		if n := c.flog.pendingIn(); n != 0 {
			return nil, fmt.Errorf("stream: %s still has %d unsnapshotted entries after a quiesced checkpoint", c.addr, n)
		}
	}
	return states, err
}

// checkpointSoon starts the failover cadence's checkpoint in the
// background, unless one is already in flight. A failed one leaves the logs
// intact (the next failover simply replays more).
func (c *ShardConn) checkpointSoon() {
	if !c.ckmu.TryLock() {
		return
	}
	go func() {
		defer c.ckmu.Unlock()
		_, _ = c.request(frameCheckpoint, nil)
	}()
}

// Undeploy tears one shard's replica down on the worker while the stream
// and its other shards keep serving, and forgets the shard's committed
// checkpoint — the rescale path's counterpart to Deploy.
func (c *ShardConn) Undeploy(shard int) error {
	if _, err := c.request(frameUndeploy, appendUvarint(nil, uint64(shard))); err != nil {
		return err
	}
	if c.flog != nil {
		c.flog.dropShard(shard)
	}
	return nil
}

// ship implements shardHome: the batch is encoded, its key built in the
// wire buffer (the per-batch path formats no string), and its buffer goes
// straight back to the pool. A full batch is written to the socket at
// once, so the worker starts on it while the producer is still pushing; a
// partial one waits in the write buffer for the next flush point.
func (c *ShardConn) ship(shard int, name string, batch []data.Tuple, full bool) error {
	err := c.sendFrame(shard, name, batch, false, 0, full)
	c.pool.put(batch)
	return err
}

// eager, startFlush and awaitFlush implement shardHome; the last two are
// Flush's halves.
func (c *ShardConn) eager() bool                                    { return false }
func (c *ShardConn) startFlush(*sync.WaitGroup) (chan reply, error) { return c.post(frameFlush, nil) }

func (c *ShardConn) awaitFlush(ch chan reply) error {
	_, err := c.await(frameFlush, ch)
	return err
}

// Tick advances every replica window deployed over this stream, flushes
// the write buffer (a tick ends an epoch: everything it should see must
// reach the worker), and paces the checkpoint cadence: every ckEvery-th
// tick starts a background checkpoint.
func (c *ShardConn) Tick(now vtime.Time) error {
	err := c.sendFrame(0, "", nil, true, now, true)
	if c.flog != nil && c.ckEvery > 0 && c.ticks.Add(1)%int64(c.ckEvery) == 0 {
		c.checkpointSoon()
	}
	return err
}

// Flush barriers the stream: when it returns nil, every batch and tick
// sent before the call has been processed by the worker and every result it
// produced has been pushed into the sink.
func (c *ShardConn) Flush() error {
	_, err := c.request(frameFlush, nil)
	return err
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
	_, err := c.request(frameClose, nil)
	c.pc.dropStream(c)
	return err
}
