package stream

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// restartWorker rebinds a shard worker on the exact address a previous
// one vacated — the "worker rejoins on its old endpoint" half of the
// elastic chaos. The rebind can transiently race the old listener's
// teardown, so it retries briefly.
func restartWorker(t *testing.T, addr string) *ShardWorker {
	t.Helper()
	var lastErr error
	for i := 0; i < 50; i++ {
		w, err := NewShardWorker(addr, echoDeploy)
		if err == nil {
			return w
		}
		lastErr = err
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("rebind worker on %s: %v", addr, lastErr)
	return nil
}

// TestShardPoolEvictionRedialRace hammers the process-wide connection
// pool with the elastic worst case: a worker is killed and rejoins on the
// same address over and over while many goroutines concurrently dial
// streams, deploy, push, and close. Link failures evict the shared
// physical connection while redials race to register a fresh one; under
// -race this proves eviction and redial cannot corrupt the pool, and the
// end-state assertions prove a dead connection can neither leak (refs
// held forever, socket pooled forever) nor be resurrected (handed to a
// later dial).
func TestShardPoolEvictionRedialRace(t *testing.T) {
	before := WorkerConnCount()
	w, err := NewShardWorker("127.0.0.1:0", echoDeploy)
	if err != nil {
		t.Fatal(err)
	}
	addr := w.Addr()

	const goroutines = 8
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c, err := dialShard(addr, NewCollector(tempSchema()), 200*time.Millisecond)
				if err != nil {
					continue // worker down this instant: next dial retries
				}
				// Any of these may fail when the kill lands mid-flight;
				// the invariant under test is pool consistency, not
				// per-operation success.
				if err := c.Deploy(nil, g, nil); err == nil {
					_ = c.sendFrame(g, "s0", []data.Tuple{temp(int64(i), "L1", 20)}, false, 0, false)
					_ = c.Flush()
				}
				_ = c.Close()
			}
		}(g)
	}

	// Kill-then-rejoin cycles on the same address while the dialers churn.
	for round := 0; round < 6; round++ {
		time.Sleep(10 * time.Millisecond)
		w.Close()
		w = restartWorker(t, addr)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()

	// No leak: every stream released its reference, so no physical
	// connection stays pooled.
	deadline := time.Now().Add(5 * time.Second)
	for WorkerConnCount() != before {
		if time.Now().After(deadline) {
			t.Fatalf("%d physical connections still pooled after every stream closed",
				WorkerConnCount()-before)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// No resurrection: with the worker alive, a fresh dial must get a
	// working connection — not any evicted carcass from the churn.
	c, err := dialShard(addr, NewCollector(tempSchema()), 0)
	if err != nil {
		t.Fatalf("dial after churn: %v", err)
	}
	if err := c.Deploy(nil, 0, nil); err != nil {
		t.Fatalf("deploy after churn: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush after churn: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close after churn: %v", err)
	}
	w.Close()
}

// TestShardConnUndeploy: tearing one shard's replica off a stream leaves
// the stream's other shards serving, drops the undeployed shard's replay
// bookkeeping, and survives ticks (no advancer left to advance).
func TestShardConnUndeploy(t *testing.T) {
	w := startEchoWorker(t)
	col := NewCollector(tempSchema())
	c, err := dialShard(w.Addr(), col, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for shard := 0; shard < 2; shard++ {
		if err := c.Deploy(nil, shard, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.sendFrame(0, "s0", []data.Tuple{temp(1, "L1", 20)}, false, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := c.sendFrame(1, "s0", []data.Tuple{temp(2, "L2", 21)}, false, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := col.Len(); got != 2 {
		t.Fatalf("%d rows before undeploy, want 2", got)
	}

	if err := c.Undeploy(0); err != nil {
		t.Fatalf("undeploy: %v", err)
	}
	// The undeployed shard's input drops on the worker; shard 1 serves on.
	if err := c.sendFrame(0, "s0", []data.Tuple{temp(3, "L1", 22)}, false, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := c.sendFrame(1, "s0", []data.Tuple{temp(4, "L2", 23)}, false, 0, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Tick(vtime.Time(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := col.Len(); got != 3 {
		t.Fatalf("%d rows after undeploy, want 3 (shard 0's post-undeploy push must drop)", got)
	}
	// Undeploying a shard the stream no longer hosts is still just an
	// acked barrier (the replica map simply has nothing to delete).
	if err := c.Undeploy(7); err != nil {
		t.Fatalf("undeploy of an absent shard: %v", err)
	}
}

// TestRescaleValidation: the placement-change entry points reject
// malformed requests loudly instead of corrupting a serving set.
func TestRescaleValidation(t *testing.T) {
	s := NewShardSet(2)
	if err := s.Rescale([]string{""}); err == nil {
		t.Fatal("wrong-arity placement must be rejected")
	}
	if err := s.Rescale([]string{"", ""}); err == nil {
		t.Fatal("Rescale before Deploy must be rejected")
	}
	if _, err := s.CheckpointAll(nil); err == nil {
		t.Fatal("CheckpointAll before Deploy must be rejected")
	}
	s.Close()
	if err := s.Rescale([]string{"", ""}); err == nil {
		t.Fatal("Rescale after Close must be rejected")
	}
	if _, err := s.CheckpointAll(nil); err == nil {
		t.Fatal("CheckpointAll after Close must be rejected")
	}
}

func mustRescale(t *testing.T, s *ShardSet, loc []string) {
	t.Helper()
	if err := s.Rescale(loc); err != nil {
		t.Fatalf("rescale to %v: %v", loc, err)
	}
	if got := s.Placement(); fmt.Sprint(got) != fmt.Sprint(loc) {
		t.Fatalf("placement after rescale = %v, want %v", got, loc)
	}
}

// TestRescaleEndToEndDifferential walks a serving 4-shard deployment
// through the full placement matrix — drain onto one worker, scale to
// zero workers (all in-process), spread back out mixed — checking the
// materialized result against a lockstep serial reference after every
// move, takes a CheckpointAll barrier (with sidecar) mid-serve, and tries
// a rescale onto a refused address, which must fail and move nothing.
// Planned rescales must never trip the failover machinery.
func TestRescaleEndToEndDifferential(t *testing.T) {
	h := newFoHarness(t, 4, 2, 2*time.Second)
	evs := foEvents(31, 400)
	a0, a1 := h.addrs[0], h.addrs[1]

	h.feed(evs[:100])
	h.check("before any rescale")

	// Drain: every shard onto worker 0; worker 1's now-idle connection
	// must leave the barrier set.
	mustRescale(t, h.set, []string{a0, a0, a0, a0})
	h.feed(evs[100:180])
	h.check("all shards drained onto one worker")

	// Scale to zero workers: every shard migrates in-process.
	mustRescale(t, h.set, []string{"", "", "", ""})
	h.feed(evs[180:260])
	h.check("all shards in-process")

	// Spread back out: fresh dials to both workers, one shard stays home.
	mustRescale(t, h.set, []string{a0, a1, "", a1})
	h.feed(evs[260:340])
	h.check("mixed remote/local placement")

	// A coordinator-snapshot barrier mid-serve: every shard checkpoints
	// and the sidecar runs at the same consistency point.
	sidecarRan := false
	states, err := h.set.CheckpointAll(func() error { sidecarRan = true; return nil })
	if err != nil {
		t.Fatalf("CheckpointAll: %v", err)
	}
	if !sidecarRan || len(states) != 4 {
		t.Fatalf("CheckpointAll: sidecar=%v, %d states, want 4", sidecarRan, len(states))
	}
	for j, st := range states {
		if len(st) == 0 {
			t.Fatalf("shard %d checkpointed empty state", j)
		}
	}

	// A rescale onto a refused address fails: no failover ran, so there is
	// nothing to retry, and every shard keeps its home.
	dead, err := NewShardWorker("127.0.0.1:0", foDeploy)
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	if err := h.set.Rescale([]string{dead.Addr(), a1, "", a1}); err == nil {
		t.Fatal("a rescale onto a refused address must fail")
	}
	if got := h.set.Placement(); fmt.Sprint(got) != fmt.Sprint([]string{a0, a1, "", a1}) {
		t.Fatalf("placement after a failed rescale = %v", got)
	}

	h.feed(evs[340:])
	h.check("final")
	if evts := h.failovers(); len(evts) != 0 {
		t.Fatalf("planned rescales ran failovers: %+v", evts)
	}
}

// TestRescaleHealBackToRejoinedWorker: a worker dies (unplanned
// failover moves its shards away), a replacement rejoins on the same
// address, and a rescale back to the intended placement heals the
// deployment — all while the result stays exact against serial.
func TestRescaleHealBackToRejoinedWorker(t *testing.T) {
	h := newFoHarness(t, 2, 2, 2*time.Second)
	evs := foEvents(33, 300)
	h.feed(evs[:100])
	h.checkpointAll()
	h.kill(1)
	h.feed(evs[100:160])
	h.check("after unplanned failover")

	h.restart(1)
	mustRescale(t, h.set, []string{h.addrs[0], h.addrs[1]})
	h.feed(evs[160:])
	h.check("after heal-back")
	evts := h.failovers()
	if len(evts) != 1 || evts[0].Err != nil {
		t.Fatalf("failovers = %+v, want exactly the one unplanned kill", evts)
	}
}

// TestElasticOnlyLocalToRemoteAndBack: a set deployed without Failover (no
// replay logs, zero hot-path overhead) serving in-process replicas rescales
// out to a real worker and back home. Covers the log-less checkpoint path:
// a worker stream without a replay log hands the rescale and CheckpointAll
// its states in the checkpoint reply, and never gets a log.
func TestElasticOnlyLocalToRemoteAndBack(t *testing.T) {
	_, addrs := startFoWorkers(t, 1)
	h := deployFo(t, ShardConfig{LocalDeploy: foDeploy, Recovery: Recovery{StallTimeout: 2 * time.Second}}, []string{"", ""}, nil)
	evs := foEvents(35, 300)

	h.feed(evs[:100])
	h.check("in-process before scale-out")

	// CheckpointAll on an all-local set: the checkpointers LocalDeploy
	// returned answer the barrier.
	states, err := h.set.CheckpointAll(nil)
	if err != nil {
		t.Fatalf("local CheckpointAll: %v", err)
	}
	if len(states) != 2 {
		t.Fatalf("local CheckpointAll: %d states, want 2", len(states))
	}

	// Scale out to the worker, serve, and checkpoint over the wire — the
	// states come back in the reply, with no replay log on the stream.
	mustRescale(t, h.set, []string{addrs[0], addrs[0]})
	h.feed(evs[100:200])
	h.check("after scale-out")
	if _, err := h.set.CheckpointAll(nil); err != nil {
		t.Fatalf("remote CheckpointAll: %v", err)
	}
	for _, c := range h.conns() {
		if c.flog != nil {
			t.Fatal("a checkpoint without failover must not attach a replay log")
		}
	}

	// And home again.
	mustRescale(t, h.set, []string{"", ""})
	h.feed(evs[200:])
	h.check("after scale-in")
}

// TestShardHomeTransitions drives every way a shard replica comes to exist
// at a home — first deployment local and remote, a rescale in each
// direction, failover onto a surviving worker and onto the in-process last
// resort — through the one stage/install routine, as one table. After
// every transition the placement is the expected one and the result equals
// the serial reference (each move carries the shard's checkpoint from the
// old kind of home to the new). A rescale or CheckpointAll reads a worker's
// states from its checkpoint reply: without failover no stream ever holds a
// replay log, and with it the states returned are exactly the ones the log
// committed. At the end, a checkpoint taken wherever the shards ended up
// must restore at first deployment on every kind of home: a twin set
// deployed in-process and one deployed on a fresh worker, seeded with those
// states, stay equal to the original under more input.
func TestShardHomeTransitions(t *testing.T) {
	const local = -1
	type move struct {
		kill int   // worker to kill (the failover then re-homes its shards), or local for a planned rescale
		to   []int // the placement afterwards, by worker index
	}
	cases := []struct {
		name     string
		workers  int
		failover bool
		first    []int
		moves    []move
	}{
		{"initial local, rescale local→remote→local", 1, false, []int{local, local},
			[]move{{local, []int{0, 0}}, {local, []int{local, local}}}},
		{"initial remote, rescale remote→remote→mixed", 2, false, []int{0, 0},
			[]move{{local, []int{1, 1}}, {local, []int{local, 0}}}},
		{"initial remote, failover remote→remote", 2, true, []int{0, 1},
			[]move{{1, []int{0, 0}}}},
		{"initial remote, failover remote→in-process", 1, true, []int{0, 0},
			[]move{{0, []int{local, local}}}},
		{"initial mixed, failover remote→remote, rescale home, rescale out", 2, true, []int{local, 1},
			[]move{{1, []int{local, 0}}, {local, []int{local, local}}, {local, []int{0, local}}}},
		{"initial remote, no failover, rescale onto one worker and swap back", 2, false, []int{0, 1},
			[]move{{local, []int{1, 1}}, {local, []int{1, 0}}}},
		{"initial remote, failover armed, rescale swap and half home", 2, true, []int{0, 1},
			[]move{{local, []int{1, 0}}, {local, []int{local, 1}}}},
	}
	for seed, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			workers, addrs := startFoWorkers(t, tc.workers)
			loc := func(homes []int) []string {
				out := make([]string, len(homes))
				for j, w := range homes {
					if w != local {
						out[j] = addrs[w]
					}
				}
				return out
			}
			cfg := ShardConfig{Nodes: addrs, LocalDeploy: foDeploy,
				Recovery: Recovery{Failover: tc.failover, CheckpointEvery: 2, StallTimeout: 2 * time.Second}}
			h := deployFo(t, cfg, loc(tc.first), nil)
			evs := foEvents(int64(40+seed), 100*(len(tc.moves)+2))
			arrive := func(label string, homes []int) {
				t.Helper()
				h.feed(evs[:100])
				evs = evs[100:]
				h.check(label) // the Flush inside waits a pending failover out
				if got, want := h.set.Placement(), loc(homes); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: placement %v, want %v", label, got, want)
				}
			}
			// checkpointed pins where a rescale's or CheckpointAll's states
			// came from: without failover no stream holds a replay log; with
			// it, every worker-hosted shard's state is the one its stream's
			// log committed (states nil: only that a state is committed).
			checkpointed := func(label string, states map[int][]byte) {
				t.Helper()
				for _, c := range h.conns() {
					if !tc.failover {
						if c.flog != nil {
							t.Fatalf("%s: a stream without failover holds a replay log", label)
						}
						continue
					}
					committed := c.flog.statesCopy()
					for j, addr := range h.set.Placement() {
						st, ok := committed[j]
						switch {
						case addr != c.addr:
						case !ok:
							t.Fatalf("%s: shard %d has no committed state on %s", label, j, c.addr)
						case states != nil && !bytes.Equal(states[j], st):
							t.Fatalf("%s: shard %d's state is not the one the log committed", label, j)
						}
					}
				}
				for j := range h.set.Shards() {
					if _, ok := states[j]; states != nil && !ok {
						t.Fatalf("%s: no state for shard %d", label, j)
					}
				}
			}
			arrive("first deployment", tc.first)
			for i, m := range tc.moves {
				if m.kill == local {
					mustRescale(t, h.set, loc(m.to))
					checkpointed(fmt.Sprintf("rescale %d", i+1), nil)
				} else {
					h.checkpointAll() // restore from state, not just a full replay
					workers[m.kill].Close()
				}
				arrive(fmt.Sprintf("move %d", i+1), m.to)
			}
			for _, ev := range h.failovers() {
				if ev.Err != nil {
					t.Fatalf("failover abandoned shards: %+v", ev)
				}
			}

			// One consistency point: every shard's state plus the result sink.
			var matState []byte
			states, err := h.set.CheckpointAll(func() (err error) {
				matState, err = EncodeCheckpoint([]Checkpointer{h.mat})
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			checkpointed("CheckpointAll", states)
			_, fresh := startFoWorkers(t, 1)
			twins := map[string]*foHarness{
				"in-process":     deployFo(t, ShardConfig{LocalDeploy: foDeploy}, []string{"", ""}, states),
				"a fresh worker": deployFo(t, ShardConfig{}, []string{fresh[0], fresh[0]}, states),
			}
			h.feed(evs)
			h.check("after the checkpoint")
			for where, twin := range twins {
				if err := RestoreCheckpoint([]Checkpointer{twin.mat}, matState); err != nil {
					t.Fatal(err)
				}
				twin.feed(evs)
				twin.set.Flush()
				requireSameMat(t, "checkpoint restored at first deployment "+where, twin.mat, h.mat)
			}
		})
	}
}

// TestCoordinatorSpineCheckpointRoundTrip covers the checkpoint kinds a
// coordinator snapshot adds over worker checkpoints: the FinalMerge on
// the two-phase spine and the Materialize result sink. Restored
// instances must continue exactly where the originals left off,
// multiplicities included.
func TestCoordinatorSpineCheckpointRoundTrip(t *testing.T) {
	specs := []AggSpec{
		{Kind: AggCount, Alias: "n"},
		{Kind: AggSum, Arg: expr.C("temp"), Alias: "s"},
	}
	out, err := AggOutSchema(tempSchema(), []string{"room"}, specs)
	if err != nil {
		t.Fatal(err)
	}
	build := func(col Operator) (*PartialAggregate, []Checkpointer) {
		t.Helper()
		fm, err := NewFinalMerge(col, tempSchema(), []string{"room"}, specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := NewPartialAggregate(fm, tempSchema(), []string{"room"}, specs)
		if err != nil {
			t.Fatal(err)
		}
		return pa, []Checkpointer{pa, fm}
	}
	prefix := ckWorkload(13, 40)
	suffix := ckWorkload(14, 40)

	colA := NewCollector(out)
	paA, cksA := build(colA)
	for _, tu := range prefix {
		paA.Push(tu.Clone())
	}
	state, err := EncodeCheckpoint(cksA)
	if err != nil {
		t.Fatal(err)
	}
	colB := NewCollector(out)
	paB, cksB := build(colB)
	if err := RestoreCheckpoint(cksB, state); err != nil {
		t.Fatal(err)
	}
	colA.Reset()
	for _, tu := range suffix {
		paA.Push(tu.Clone())
		paB.Push(tu.Clone())
	}
	got, want := colB.Snapshot(), colA.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("restored spine emitted %d deltas, original %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || !got[i].EqualVals(want[i]) {
			t.Fatalf("delta %d: restored %v, original %v", i, got[i], want[i])
		}
	}
}

func TestMaterializeCheckpointRoundTrip(t *testing.T) {
	matA := NewMaterialize(tempSchema())
	// Duplicates drive multiplicity > 1; the restore must carry counts,
	// not just distinct rows.
	rows := []data.Tuple{temp(1, "L1", 20), temp(1, "L1", 20), temp(2, "L2", 21), temp(3, "L3", 22)}
	for _, r := range rows {
		matA.Push(r.Clone())
	}
	state, err := EncodeCheckpoint([]Checkpointer{matA})
	if err != nil {
		t.Fatal(err)
	}
	matB := NewMaterialize(tempSchema())
	if err := RestoreCheckpoint([]Checkpointer{matB}, state); err != nil {
		t.Fatal(err)
	}
	compare := func(label string) {
		t.Helper()
		got := matB.MustSnapshot(nil, -1)
		want := matA.MustSnapshot(nil, -1)
		sortByKey(got)
		sortByKey(want)
		if len(got) != len(want) {
			t.Fatalf("%s: restored %d rows, original %d", label, len(got), len(want))
		}
		for i := range want {
			if !got[i].EqualVals(want[i]) {
				t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
			}
		}
	}
	compare("after restore")
	// One retraction of the duplicated row: both must drop one count, not
	// the whole row — proof the multiplicity survived the round-trip.
	del := temp(1, "L1", 20).Negate()
	matA.Push(del.Clone())
	matB.Push(del.Clone())
	compare("after retracting one duplicate")

	// Kind and shape mismatches must error, never corrupt.
	fm, err := NewFinalMerge(NewCollector(tempSchema()), tempSchema(), nil,
		[]AggSpec{{Kind: AggCount, Alias: "n"}}, nil)
	if err == nil {
		if err := RestoreCheckpoint([]Checkpointer{fm}, state); err == nil {
			t.Fatal("materialize state must not restore into a FinalMerge")
		}
	}
	bad := matA.CheckpointState()
	bad.Rows = &RowsState{Tuples: bad.Rows.Tuples, Counts: bad.Rows.Counts[:1]}
	if err := matB.RestoreState(bad); err == nil {
		t.Fatal("tuple/count length mismatch must fail")
	}
}

// TestDistinctAddrs covers the placement→candidate-list derivation.
func TestDistinctAddrs(t *testing.T) {
	got := distinctAddrs([]string{"", "b", "a", "b", "", "a"})
	want := []string{"b", "a"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("distinctAddrs = %v, want %v", got, want)
	}
	if out := distinctAddrs([]string{"", ""}); out != nil {
		t.Fatalf("all-local placement must derive no candidates, got %v", out)
	}
}
