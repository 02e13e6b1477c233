package stream

import (
	"fmt"
	"sync"
)

// This file aims the failover machinery at planned topology change:
// Rescale moves shard replicas between workers (and in/out of the
// coordinator process) while the deployment keeps serving, and
// CheckpointAll snapshots every shard's operator state for durable
// coordinator snapshots. Both run under the exact lock ladder failover
// uses, so barriers stay exact throughout.
//
// # Rescale state machine
//
// A rescale moves only the shards whose home changes; untouched replicas
// never stop serving. For the moving set:
//
//	SERVING ──(acquire fmu, every Sharder lock, and the set write lock:
//	│          producers and the tick fan-out are excluded)──▶ QUIESCED
//	│
//	│   QUIESCED: barrier the local queues and flush every worker stream,
//	│   so every pre-rescale message is fully processed and the sink is
//	│   consistent.
//	│
//	QUIESCED ──(synchronous checkpoint of every source: worker streams
//	│           answer a checkpoint request with their replicas' states —
//	│           with or without a replay log — and in-process homes
//	│           encode their Checkpointers)──▶ CHECKPOINTED. Replay logs,
//	│           where failover keeps them, are empty afterwards (nothing
//	│           was sent since the quiesce), so no undo and no replay is
//	│           needed: the planned path skips the two failover stages that
//	│           exist only because failure strikes mid-epoch.
//	│
//	CHECKPOINTED ──(per moving shard: stage spec+state at the new home —
//	│               an existing healthy stream, a freshly dialed worker,
//	│               or an in-process replica — then install it (flip the
//	│               exchange heads and shard routing), then frameUndeploy
//	│               the old replica)──▶ SERVING on the new topology. A
//	│               worker stream left hosting nothing is closed and
//	│               dropped from the barrier/tick set.
//	│
//	└──(any deploy fails)──▶ the rescale stops and reports the error;
//	    already-moved shards stay moved (the placement is valid, just not
//	    the requested one), un-moved shards keep their old home, and with
//	    failover armed a mid-rescale worker death queues an ordinary
//	    failover behind the rescale's fmu hold.
//
// Heal-back is the same path run toward the intended placement: shards a
// past failover stranded in-process (or piled onto a survivor) move back
// to a (re)joined worker, so the deployment converges instead of
// degrading monotonically.

// Rescale moves the set's replicas to a new placement: loc[j] names shard
// j's home worker address, "" keeps (or lands) shard j in-process. Safe on
// a live deployment: producers block for the duration (like a failover) and
// Flush/Snapshot barriers stay exact. Returns on the first deploy error,
// leaving the deployment on a valid (possibly partially moved) topology.
func (s *ShardSet) Rescale(loc []string) error {
	if len(loc) != s.p {
		return fmt.Errorf("stream: Rescale placement names %d shards, set has %d", len(loc), s.p)
	}
	return s.retryThroughFailover(func() error { return s.rescaleOnce(loc) })
}

// retryThroughFailover runs one control-plane operation once any pending
// failover has settled, and again each time a failover ran while it failed:
// a worker link that dies underneath it queues an ordinary failover before
// the operation sees the error (fail notifies before waking waiters), which
// re-homes the dead link's shards, and the next attempt re-plans against
// the healed topology. An error no failover answers — a refused dial, a
// rejected spec, or any error on a set without Failover — is final.
func (s *ShardSet) retryThroughFailover(op func() error) error {
	_, runs := s.fo.waitIdle()
	for {
		err := op()
		if err == nil || !s.cfg.Failover {
			return err
		}
		_, now := s.fo.waitIdle()
		if now == runs {
			return err
		}
		runs = now
	}
}

func (s *ShardSet) rescaleOnce(loc []string) error {
	s.fo.fmu.Lock()
	defer s.fo.fmu.Unlock()

	unlock := s.quiesce()
	defer unlock()
	if !s.started || s.closed {
		return fmt.Errorf("stream: Rescale on a stopped set")
	}

	var moved []int
	for j := range s.homes {
		if loc[j] != s.homes[j].addr() {
			moved = append(moved, j)
		}
	}
	// Future failovers should dial the new topology.
	s.cfg.Nodes = distinctAddrs(loc)
	if len(moved) == 0 {
		return nil
	}

	if err := s.drainLocked(); err != nil {
		return err
	}
	states, err := s.checkpointShardsLocked(moved)
	if err != nil {
		return err
	}
	return s.moveLocked(moved, loc, states)
}

// quiesce acquires the failover lock ladder — every Sharder's lock, then
// the set write lock — excluding all producers and the tick fan-out. The
// returned func releases everything.
func (s *ShardSet) quiesce() func() {
	s.mu.RLock()
	sharders := s.sharders
	s.mu.RUnlock()
	for _, sh := range sharders {
		sh.mu.Lock()
	}
	s.mu.Lock()
	return func() {
		s.mu.Unlock()
		for _, sh := range sharders {
			sh.mu.Unlock()
		}
	}
}

// drainLocked ships every exchange's pending batch to its shard's current
// home, then barriers every local queue and flushes every worker stream, so
// every tuple pushed before the quiesce is fully processed and in the
// checkpoint that follows. Caller holds the quiesce locks.
func (s *ShardSet) drainLocked() error {
	for _, sh := range s.sharders {
		sh.flushPending(s.sendLocked)
	}
	var wg sync.WaitGroup
	for j := 0; j < s.p; j++ {
		if s.homes[j].conn != nil {
			continue
		}
		wg.Add(1)
		s.queues[j] <- shardMsg{kind: msgBarrier, wg: &wg}
	}
	wg.Wait()
	for _, c := range s.uconns {
		if err := c.Flush(); err != nil {
			return fmt.Errorf("stream: rescale: flush %s: %w", c.addr, err)
		}
	}
	return nil
}

// checkpointShardsLocked takes a synchronous checkpoint of every listed
// shard — one checkpoint request per source worker stream, whose reply
// carries the states of every shard on it, and a local encode for
// in-process replicas — and returns the per-shard states. A stream with a
// replay log must have nothing left in it: the quiesce stopped every
// producer, so the checkpoint subsumes all it was sent. Caller holds the
// quiesce locks.
func (s *ShardSet) checkpointShardsLocked(shards []int) (map[int][]byte, error) {
	states := map[int][]byte{}
	done := map[*ShardConn]bool{}
	for _, j := range shards {
		c := s.homes[j].conn
		if c == nil {
			st, err := EncodeCheckpoint(s.homes[j].cks)
			if err != nil {
				return nil, fmt.Errorf("stream: rescale: checkpoint local shard %d: %w", j, err)
			}
			states[j] = st
			continue
		}
		if done[c] {
			continue
		}
		done[c] = true
		got, err := c.checkpoint()
		if err != nil {
			return nil, fmt.Errorf("stream: rescale: checkpoint %s: %w", c.addr, err)
		}
		if c.flog != nil {
			if n := c.flog.pendingIn(); n != 0 {
				return nil, fmt.Errorf("stream: rescale: %s still has %d unsnapshotted entries after a quiesced checkpoint", c.addr, n)
			}
		}
		for k, st := range got {
			states[k] = st
		}
	}
	for _, j := range shards {
		if _, ok := states[j]; !ok {
			return nil, fmt.Errorf("stream: rescale: no checkpoint for shard %d", j)
		}
	}
	return states, nil
}

// moveLocked stages each moving shard at its new home with its
// checkpointed state, installs it, and tears the old replica down. Worker
// streams left hosting nothing — vacated by the moves, or dialed for a
// stage that failed — are released on the way out. Caller holds the
// quiesce locks and fmu.
func (s *ShardSet) moveLocked(moved []int, loc []string, states map[int][]byte) error {
	defer s.dropIdleConnsLocked()
	for _, j := range moved {
		old := s.homes[j].conn
		h, err := s.stageLocked(j, loc[j], states[j])
		if err != nil {
			return fmt.Errorf("stream: rescale shard %d: %w", j, err)
		}
		s.installLocked(j, h)
		if old != nil {
			// Best effort: a broken old link just means its replica died with
			// the worker; the shard already lives elsewhere.
			_ = old.Undeploy(j)
		}
	}
	return nil
}

// distinctAddrs lists the distinct non-empty addresses of a placement in
// first-appearance order — the failover candidate list implied by it.
func distinctAddrs(loc []string) []string {
	var out []string
	seen := map[string]bool{}
	for _, a := range loc {
		if a == "" || seen[a] {
			continue
		}
		seen[a] = true
		out = append(out, a)
	}
	return out
}

// Placement reports each shard's current home address ("" = in-process).
func (s *ShardSet) Placement() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	loc := make([]string, s.p)
	for j := range loc {
		loc[j] = s.homes[j].addr()
	}
	return loc
}

// CheckpointAll quiesces the set, checkpoints every shard (remote and
// local alike), and returns the per-shard encoded operator states —
// the worker half of a durable coordinator snapshot. sidecar, when
// non-nil, runs under the same quiescent locks after the checkpoint, so
// the coordinator can snapshot its own serial-spine state at the exact
// same consistency point.
func (s *ShardSet) CheckpointAll(sidecar func() error) (map[int][]byte, error) {
	var states map[int][]byte
	err := s.retryThroughFailover(func() error {
		var cerr error
		states, cerr = s.checkpointAllOnce(sidecar)
		return cerr
	})
	return states, err
}

func (s *ShardSet) checkpointAllOnce(sidecar func() error) (map[int][]byte, error) {
	s.fo.fmu.Lock()
	defer s.fo.fmu.Unlock()
	unlock := s.quiesce()
	defer unlock()
	if !s.started || s.closed {
		return nil, fmt.Errorf("stream: CheckpointAll on a stopped set")
	}
	if err := s.drainLocked(); err != nil {
		return nil, err
	}
	all := make([]int, s.p)
	for j := range all {
		all[j] = j
	}
	states, err := s.checkpointShardsLocked(all)
	if err != nil {
		return nil, err
	}
	if sidecar != nil {
		if err := sidecar(); err != nil {
			return nil, err
		}
	}
	return states, nil
}
