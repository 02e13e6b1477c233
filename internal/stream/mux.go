package stream

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Connection multiplexing: every shard deployment between one coordinator
// process and one worker address shares a single physical TCP connection
// (physConn), with a per-deployment stream id prefixed to every frame.
// The coordinator therefore holds O(workers) sockets however many queries
// it deploys — the fix for the O(deployments × workers) fan-out the
// one-conn-per-deployment design had.
//
// Each stream keeps the full per-connection contract: FIFO ordering
// (frames of one stream are written under the shared write lock and
// dispatched in arrival order by the shared read loop), bounded in-flight
// credits, sequence-matched barriers, and the failover replay/undo logs.
// Failure, however, is a property of the physical link — a stalled or
// dead worker stalls every stream — so any sticky failure escalates to
// the physConn, failing every stream on it and letting each deployment's
// failover machinery run. severLink consequently tears down the whole
// physical connection and waits for the shared reader to exit, which
// preserves PR-5's guarantee that no result reaches any sink or undo log
// after a sever.

// shardPool is the process-wide pool of coordinator→worker connections.
var shardPool = &connPool{conns: map[string]*physConn{}}

// connPool deduplicates physical connections by worker address. A failed
// connection is evicted immediately (so a redial after a worker restart
// gets a fresh socket); a healthy one is closed when its last stream
// releases it.
type connPool struct {
	mu    sync.Mutex
	conns map[string]*physConn
}

// WorkerConnCount reports the number of live pooled physical connections
// from this process to shard workers — O(workers), independent of the
// number of deployments. Exposed for tests and operational visibility.
func WorkerConnCount() int {
	shardPool.mu.Lock()
	defer shardPool.mu.Unlock()
	return len(shardPool.conns)
}

// get returns a live connection to addr, dialing when none is pooled.
// The dial happens outside the pool lock (it can take up to timeout);
// racing dials resolve by adopting whichever registered first.
func (p *connPool) get(addr string, timeout time.Duration) (*physConn, error) {
	p.mu.Lock()
	if pc := p.conns[addr]; pc != nil {
		pc.refs++
		p.mu.Unlock()
		return pc, nil
	}
	p.mu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("stream: dial shard worker %s: %w", addr, err)
	}
	p.mu.Lock()
	if pc := p.conns[addr]; pc != nil {
		pc.refs++
		p.mu.Unlock()
		conn.Close() // lost the dial race: adopt the registered connection
		return pc, nil
	}
	pc := &physConn{
		addr:    addr,
		conn:    conn,
		pool:    p,
		w:       &wireWriter{conn: conn},
		streams: map[uint64]*ShardConn{},
		refs:    1,
	}
	p.conns[addr] = pc
	p.mu.Unlock()
	pc.wg.Add(1)
	go pc.readLoop()
	return pc, nil
}

// release drops one stream's reference; the last reference tears the
// socket down (unless a failure already did).
func (p *connPool) release(pc *physConn) {
	p.mu.Lock()
	pc.refs--
	last := pc.refs == 0
	if last && p.conns[pc.addr] == pc {
		delete(p.conns, pc.addr)
	}
	p.mu.Unlock()
	if last {
		pc.conn.Close()
		pc.wg.Wait()
	}
}

// evict removes pc from the pool so later dials get a fresh socket. The
// connection object itself lives until its streams release it.
func (p *connPool) evict(pc *physConn) {
	p.mu.Lock()
	if p.conns[pc.addr] == pc {
		delete(p.conns, pc.addr)
	}
	p.mu.Unlock()
}

// physConn is one multiplexed coordinator→worker TCP connection. All
// stream writes serialize through wmu into the shared wireWriter (which
// write-combines frames until a flush point); the single read loop
// dispatches worker frames to streams by id.
type physConn struct {
	addr string
	conn net.Conn
	pool *connPool
	wg   sync.WaitGroup

	wmu sync.Mutex
	w   *wireWriter

	mu      sync.RWMutex
	streams map[uint64]*ShardConn
	nextID  uint64
	err     error
	refs    int // guarded by pool.mu, not mu
}

// newStream registers a new stream on the connection. Stream ids are
// per-connection and never reused, so a late frame for a closed stream
// can only drop, not misroute.
func (pc *physConn) newStream(sink Operator, stall time.Duration) *ShardConn {
	c := &ShardConn{
		addr:    pc.addr,
		pc:      pc,
		sink:    sink,
		stall:   stall,
		credits: make(chan struct{}, remoteInflight),
		waits:   map[uint64]chan reply{},
		done:    make(chan struct{}),
	}
	for i := 0; i < remoteInflight; i++ {
		c.credits <- struct{}{}
	}
	pc.mu.Lock()
	pc.nextID++
	c.id = pc.nextID
	err := pc.err
	pc.streams[c.id] = c
	pc.mu.Unlock()
	if err != nil {
		// The link died between pool.get and here: the stream starts
		// failed, like any send after a sticky failure.
		c.fail(err)
	}
	return c
}

// dropStream unregisters a gracefully closed stream and releases its
// pool reference.
func (pc *physConn) dropStream(c *ShardConn) {
	pc.mu.Lock()
	delete(pc.streams, c.id)
	pc.mu.Unlock()
	pc.pool.release(pc)
}

// fail records the first link-level error, evicts the connection from
// the pool, closes the socket (waking the read loop), and fails every
// stream — a worker that stalls or dies stalls all of them, so the
// per-deployment failover machinery runs for each.
func (pc *physConn) fail(err error) {
	pc.mu.Lock()
	if pc.err != nil {
		pc.mu.Unlock()
		return
	}
	pc.err = err
	streams := make([]*ShardConn, 0, len(pc.streams))
	for _, c := range pc.streams {
		streams = append(streams, c)
	}
	pc.mu.Unlock()
	pc.pool.evict(pc)
	pc.conn.Close()
	for _, c := range streams {
		c.fail(err)
	}
}

// sever fails the link (idempotently) and waits for the read loop to
// exit: afterwards no result can reach any stream's sink or undo log.
func (pc *physConn) sever(err error) {
	pc.fail(err)
	pc.conn.Close()
	pc.wg.Wait()
}

// flushLocked writes the combined buffer when forced or past the
// write-combining threshold. Callers hold wmu. The write deadline keeps
// a stalled peer with a full socket buffer from wedging the sender; a
// miss breaks the link like any other write error.
func (pc *physConn) flushLocked(force bool, stall time.Duration) error {
	if pc.w.buffered() == 0 || (!force && pc.w.buffered() < wireFlushBytes) {
		return nil
	}
	pc.conn.SetWriteDeadline(time.Now().Add(stall))
	if err := pc.w.flush(); err != nil {
		err = fmt.Errorf("stream: shard link %s: %w", pc.addr, err)
		pc.fail(err)
		return err
	}
	return nil
}

// readLoop dispatches worker frames to their streams. A decode error
// (EOF, reset, malformed peer) is a link failure for every stream.
func (pc *physConn) readLoop() {
	defer pc.wg.Done()
	r := newWireReader(pc.conn)
	for {
		kind, body, err := r.next()
		if err != nil {
			pc.fail(fmt.Errorf("stream: shard link %s: %w", pc.addr, err))
			return
		}
		br := &byteReader{b: body}
		id := br.uvarint()
		if br.fail {
			pc.fail(fmt.Errorf("stream: shard link %s: malformed frame", pc.addr))
			return
		}
		pc.mu.RLock()
		c := pc.streams[id]
		pc.mu.RUnlock()
		if c == nil {
			continue // frame for a stream closed meanwhile: drop
		}
		if !c.handleFrame(kind, br) {
			pc.fail(fmt.Errorf("stream: shard link %s: malformed %v frame", pc.addr, kind))
			return
		}
	}
}
