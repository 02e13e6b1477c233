package stream

import (
	"fmt"
	"maps"
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
//	│   QUIESCED: ship the exchanges' pending batches and barrier every
//	│   home, so every pre-rescale message is fully processed and the sink
//	│   is consistent.
//	│
//	QUIESCED ──(synchronous checkpoint of every source home: it answers
//	│           with its replicas' states — a worker stream with or
//	│           without a replay log)──▶ CHECKPOINTED. Replay logs,
//	│           where failover keeps them, are empty afterwards (nothing
//	│           was sent since the quiesce), so no undo and no replay is
//	│           needed: the planned path skips the two failover stages that
//	│           exist only because failure strikes mid-epoch.
//	│
//	CHECKPOINTED ──(per moving shard: stage spec+state at the new home —
//	│               an existing healthy stream, a freshly dialed worker,
//	│               or an in-process home — then install it (point the
//	│               shard at it), then undeploy the old replica)──▶
//	│               SERVING on the new topology. A home left hosting
//	│               nothing is closed and dropped from the barrier/tick set.
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
	for j, h := range s.homes {
		if loc[j] != h.Addr() {
			moved = append(moved, j)
		}
	}
	// Future failovers should dial the new topology.
	s.cfg.Nodes = distinctAddrs(loc)
	if len(moved) == 0 {
		return nil
	}

	for _, sh := range s.sharders {
		sh.flushPending(s.sendLocked)
	}
	if err := s.barrierLocked(func() {}); err != nil {
		return fmt.Errorf("stream: rescale: %w", err)
	}
	states, err := s.checkpointShardsLocked(moved)
	if err != nil {
		return err
	}
	return s.moveLocked(moved, loc, states)
}

// quiesce acquires the failover lock ladder — every Sharder's lock, then
// the set write lock — excluding all producers and the tick fan-out. The
// returned func releases everything, bumping the set's sent count first:
// whatever the quiesced operation staged, replayed, installed or
// checkpointed, the next Flush barriers it.
func (s *ShardSet) quiesce() func() {
	s.mu.RLock()
	sharders := s.sharders
	s.mu.RUnlock()
	for _, sh := range sharders {
		sh.mu.Lock()
	}
	s.mu.Lock()
	return func() {
		s.sent.Add(1)
		s.mu.Unlock()
		for _, sh := range sharders {
			sh.mu.Unlock()
		}
	}
}

// checkpointShardsLocked takes a synchronous checkpoint of every listed
// shard — one request per source home, whose reply carries the states of
// every shard on it — and returns the per-shard states. Caller holds the
// quiesce locks.
func (s *ShardSet) checkpointShardsLocked(shards []int) (map[int][]byte, error) {
	states := map[int][]byte{}
	done := map[shardHome]bool{}
	for _, j := range shards {
		h := s.homes[j]
		if done[h] {
			continue
		}
		done[h] = true
		got, err := h.checkpoint()
		if err != nil {
			return nil, fmt.Errorf("stream: rescale: checkpoint shard %d at %q: %w", j, h.Addr(), err)
		}
		maps.Copy(states, got)
	}
	for _, j := range shards {
		if _, ok := states[j]; !ok {
			return nil, fmt.Errorf("stream: rescale: no checkpoint for shard %d", j)
		}
	}
	return states, nil
}

// moveLocked stages each moving shard at its new home with its
// checkpointed state, installs it, and tears the old replica down. Homes
// left hosting nothing — vacated by the moves, or staged for a stage that
// failed — are released on the way out. Caller holds the quiesce locks and
// fmu.
func (s *ShardSet) moveLocked(moved []int, loc []string, states map[int][]byte) error {
	defer s.dropIdleHomesLocked()
	for _, j := range moved {
		old := s.homes[j]
		h, err := s.stageLocked(j, loc[j], states[j])
		if err != nil {
			return fmt.Errorf("stream: rescale shard %d: %w", j, err)
		}
		s.homes[j] = h
		// Best effort: a broken old link just means its replica died with
		// the worker; the shard already lives elsewhere.
		_ = old.Undeploy(j)
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
	for j, h := range s.homes {
		if h != nil {
			loc[j] = h.Addr()
		}
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
	for _, sh := range s.sharders {
		sh.flushPending(s.sendLocked)
	}
	if err := s.barrierLocked(func() {}); err != nil {
		return nil, fmt.Errorf("stream: checkpoint: %w", err)
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
