package stream

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// This file is the shard-failover chaos matrix: checkpoint/restore
// round-trips per operator kind, and kill scenarios (during flush, during
// a failover's own deploy, double failure, kill-then-rejoin, a wedged but
// connected worker) driven against real loopback workers, always compared
// against a serial reference pipeline fed in lockstep.

// ---- checkpoint/restore round-trips per operator kind ----

// ckFeeder routes one deterministic workload tuple into an operator under
// test (joins alternate sides, everything else has one input head).
type ckFeeder func(i int, t data.Tuple)

// ckBuild constructs one operator kind in front of next and returns its
// feeder, its checkpointer, and its advancer (nil when timeless).
type ckBuild func(t *testing.T, next Operator) (ckFeeder, Checkpointer, Advancer)

func ckWorkload(seed int64, n int) []data.Tuple {
	rng := rand.New(rand.NewSource(seed))
	var out []data.Tuple
	var live []data.Tuple
	for i := 0; i < n; i++ {
		if len(live) > 0 && rng.Intn(4) == 0 {
			k := rng.Intn(len(live))
			del := live[k].Negate()
			del.TS = vtime.Time(i) * vtime.Second
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			out = append(out, del)
			continue
		}
		tu := temp(int64(i), fmt.Sprintf("L%d", rng.Intn(3)), float64(rng.Intn(5)))
		live = append(live, tu)
		out = append(out, tu)
	}
	return out
}

// TestCheckpointRestoreRoundTrip: for every stateful operator kind, feed a
// prefix workload into instance A, checkpoint it, restore into a fresh
// instance B, then feed the identical suffix to both — their emissions
// must match tuple for tuple, or the restored state diverged.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	aggSpecs := []AggSpec{
		{Kind: AggCount, Alias: "n"},
		{Kind: AggSum, Arg: expr.C("temp"), Alias: "s"},
		{Kind: AggMin, Arg: expr.C("temp"), Alias: "lo"},
		{Kind: AggMax, Arg: expr.C("temp"), Alias: "hi"},
		{Kind: AggAvg, Arg: expr.C("temp"), Alias: "m"},
	}
	outSchema := func(t *testing.T, partial bool) *data.Schema {
		t.Helper()
		var s *data.Schema
		var err error
		if partial {
			s, err = AggPartialSchema(tempSchema(), []string{"room"}, aggSpecs)
		} else {
			s, err = AggOutSchema(tempSchema(), []string{"room"}, aggSpecs)
		}
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	single := func(op Operator) ckFeeder { return func(_ int, t data.Tuple) { op.Push(t) } }
	cases := []struct {
		name   string
		schema func(t *testing.T) *data.Schema // collector schema
		build  ckBuild
	}{
		{"time-window", func(*testing.T) *data.Schema { return tempSchema() },
			func(t *testing.T, next Operator) (ckFeeder, Checkpointer, Advancer) {
				w := NewTimeWindow(next, 8*time.Second, 0)
				return single(w), w, w
			}},
		{"slide-window", func(*testing.T) *data.Schema { return tempSchema() },
			func(t *testing.T, next Operator) (ckFeeder, Checkpointer, Advancer) {
				w := NewTimeWindow(next, 8*time.Second, 2*time.Second)
				return single(w), w, w
			}},
		{"rows-window", func(*testing.T) *data.Schema { return tempSchema() },
			func(t *testing.T, next Operator) (ckFeeder, Checkpointer, Advancer) {
				w := NewRowsWindow(next, 5)
				return single(w), w, nil
			}},
		{"join", func(*testing.T) *data.Schema { return tempSchema().Concat(tempSchema()) },
			func(t *testing.T, next Operator) (ckFeeder, Checkpointer, Advancer) {
				j, err := NewJoin(next, tempSchema(), tempSchema(), []string{"room"}, []string{"room"}, nil)
				if err != nil {
					t.Fatal(err)
				}
				return func(i int, tu data.Tuple) {
					if i%2 == 0 {
						j.Left().Push(tu)
					} else {
						j.Right().Push(tu)
					}
				}, j, nil
			}},
		{"aggregate", func(t *testing.T) *data.Schema { return outSchema(t, false) },
			func(t *testing.T, next Operator) (ckFeeder, Checkpointer, Advancer) {
				a, err := NewAggregate(next, tempSchema(), []string{"room"}, aggSpecs,
					nil)
				if err != nil {
					t.Fatal(err)
				}
				return single(a), a, nil
			}},
		{"distinct", func(*testing.T) *data.Schema { return tempSchema() },
			func(t *testing.T, next Operator) (ckFeeder, Checkpointer, Advancer) {
				d := NewDistinct(next)
				return single(d), d, nil
			}},
		{"partial-aggregate", func(t *testing.T) *data.Schema { return outSchema(t, true) },
			func(t *testing.T, next Operator) (ckFeeder, Checkpointer, Advancer) {
				a, err := NewPartialAggregate(next, tempSchema(), []string{"room"}, aggSpecs)
				if err != nil {
					t.Fatal(err)
				}
				return single(a), a, nil
			}},
	}
	for _, tc := range cases {
		for _, masked := range []bool{false, true} {
			name := tc.name
			if masked {
				name += "/forced-collisions"
			}
			t.Run(name, func(t *testing.T) {
				if masked {
					old := SetTestHashMask(0)
					t.Cleanup(func() { SetTestHashMask(old) })
				}
				prefix := ckWorkload(3, 40)
				suffix := ckWorkload(4, 40)
				colA := NewCollector(tc.schema(t))
				feedA, ckA, advA := tc.build(t, colA)
				for i, tu := range prefix {
					feedA(i, tu.Clone())
				}
				if advA != nil {
					advA.Advance(20 * vtime.Second)
				}
				state, err := EncodeCheckpoint([]Checkpointer{ckA})
				if err != nil {
					t.Fatal(err)
				}
				colB := NewCollector(tc.schema(t))
				feedB, ckB, advB := tc.build(t, colB)
				if err := RestoreCheckpoint([]Checkpointer{ckB}, state); err != nil {
					t.Fatal(err)
				}
				colA.Reset()
				for i, tu := range suffix {
					feedA(i, tu.Clone())
					feedB(i, tu.Clone())
				}
				if advA != nil {
					advA.Advance(100 * vtime.Second)
					advB.Advance(100 * vtime.Second)
				}
				got, want := colB.Snapshot(), colA.Snapshot()
				if len(got) != len(want) {
					t.Fatalf("restored instance emitted %d deltas, original %d\ngot:  %v\nwant: %v",
						len(got), len(want), got, want)
				}
				for i := range want {
					if got[i].Op != want[i].Op || !got[i].EqualVals(want[i]) {
						t.Fatalf("delta %d: restored %v, original %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestCheckpointRestoreMismatches: restoring the wrong kind or a
// wrong-shape payload must error, not corrupt.
func TestCheckpointRestoreMismatches(t *testing.T) {
	w := NewTimeWindow(NewCollector(tempSchema()), time.Second, 0)
	d := NewDistinct(NewCollector(tempSchema()))
	state, err := EncodeCheckpoint([]Checkpointer{w})
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreCheckpoint([]Checkpointer{d}, state); err == nil {
		t.Fatal("window state must not restore into a distinct")
	}
	if err := RestoreCheckpoint([]Checkpointer{w, d}, state); err == nil {
		t.Fatal("operator count mismatch must fail")
	}
	if err := RestoreCheckpoint([]Checkpointer{w}, []byte{0x1, 0x2}); err == nil {
		t.Fatal("garbage payload must fail")
	}
	if err := RestoreCheckpoint([]Checkpointer{w}, nil); err != nil {
		t.Fatalf("empty checkpoint is the fresh state: %v", err)
	}
}

// ---- kill scenarios against loopback workers ----

// foSpecs is the aggregate shape of the failover harness pipeline.
func foSpecs() []AggSpec {
	return []AggSpec{
		{Kind: AggCount, Alias: "n"},
		{Kind: AggSum, Arg: expr.C("temp"), Alias: "s"},
	}
}

func foOutSchema(t *testing.T) *data.Schema {
	t.Helper()
	s, err := AggOutSchema(tempSchema(), []string{"room"}, foSpecs())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// foDeploy builds the harness replica: a 10s time window into a grouped
// aggregate, results shipping back through send. The checkpointer order
// (aggregate, then window) is fixed — both sides of a failover run this
// same builder.
func foDeploy(spec []byte, shard int, state []byte, send ResultSender) (map[string]Operator, []Advancer, []Checkpointer, error) {
	out, err := AggOutSchema(tempSchema(), []string{"room"}, foSpecs())
	if err != nil {
		return nil, nil, nil, err
	}
	agg, err := NewAggregate(&sendSink{schema: out, send: send}, tempSchema(), []string{"room"}, foSpecs(), nil)
	if err != nil {
		return nil, nil, nil, err
	}
	win := NewTimeWindow(agg, 10*time.Second, 0)
	cks := []Checkpointer{agg, win}
	if err := RestoreCheckpoint(cks, state); err != nil {
		return nil, nil, nil, err
	}
	return map[string]Operator{"s0": win}, []Advancer{win}, cks, nil
}

// foEvent is one harness workload step: a tuple or a clock tick.
type foEvent struct {
	t    data.Tuple
	tick vtime.Time
}

func foEvents(seed int64, n int) []foEvent {
	rng := rand.New(rand.NewSource(seed))
	var evs []foEvent
	var live []data.Tuple
	for i := 0; i < n; i++ {
		ts := vtime.Time(i) * vtime.Second
		if i%10 == 9 {
			evs = append(evs, foEvent{tick: ts})
			continue
		}
		if len(live) > 0 && rng.Intn(5) == 0 {
			k := rng.Intn(len(live))
			del := live[k].Negate()
			del.TS = ts
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			evs = append(evs, foEvent{t: del})
			continue
		}
		tu := temp(int64(i), fmt.Sprintf("L%d", rng.Intn(5)), float64(rng.Intn(7)))
		live = append(live, tu)
		evs = append(evs, foEvent{t: tu})
	}
	return evs
}

// foHarness is one failover scenario: P shards over loopback workers with
// failover armed, compared in lockstep against a serial reference of the
// same pipeline.
type foHarness struct {
	t       *testing.T
	mat     *Materialize
	set     *ShardSet
	sh      *Sharder
	addrs   []string
	workers []*ShardWorker // by index; nil once killed

	refMat *Materialize
	refWin *Window

	mu     sync.Mutex
	events []FailoverEvent
}

// deployFo builds one harness scenario: the foDeploy pipeline behind one
// exchange, deployed at loc under cfg (the harness supplies the sink and
// records failovers), with states seeding the replicas when non-nil.
func deployFo(t *testing.T, cfg ShardConfig, loc []string, states map[int][]byte) *foHarness {
	t.Helper()
	h := &foHarness{t: t}
	h.mat = NewMaterialize(foOutSchema(t))
	h.refMat = NewMaterialize(foOutSchema(t))
	refAgg, err := NewAggregate(h.refMat, tempSchema(), []string{"room"}, foSpecs(), nil)
	if err != nil {
		t.Fatal(err)
	}
	h.refWin = NewTimeWindow(refAgg, 10*time.Second, 0)

	cfg.Sink = NewMerge(h.mat)
	cfg.OnFailover = func(ev FailoverEvent) {
		h.mu.Lock()
		h.events = append(h.events, ev)
		h.mu.Unlock()
	}
	h.set = NewShardSet(len(loc))
	if h.sh, err = NewSharder(h.set, "s0", tempSchema(), []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := h.set.Deploy(cfg, loc, states); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.set.Close)
	return h
}

// startFoWorkers starts n loopback workers hosting foDeploy replicas.
func startFoWorkers(t *testing.T, n int) (workers []*ShardWorker, addrs []string) {
	t.Helper()
	for i := 0; i < n; i++ {
		w, err := NewShardWorker("127.0.0.1:0", foDeploy)
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
		t.Cleanup(func() { w.Close() })
	}
	return workers, addrs
}

// newFoHarness is the standard scenario: p shards round-robined over
// nWorkers loopback workers, failover armed with every worker a candidate
// and in-process the last resort.
func newFoHarness(t *testing.T, p, nWorkers int, stall time.Duration) *foHarness {
	t.Helper()
	workers, addrs := startFoWorkers(t, nWorkers)
	loc := make([]string, p)
	for j := range loc {
		loc[j] = addrs[j%nWorkers]
	}
	h := deployFo(t, ShardConfig{Nodes: addrs, LocalDeploy: foDeploy,
		Recovery: Recovery{Failover: true, CheckpointEvery: 2, StallTimeout: stall}}, loc, nil)
	h.workers, h.addrs = workers, addrs
	return h
}

// feed drives a workload slice into the sharded set and the serial
// reference in lockstep.
func (h *foHarness) feed(evs []foEvent) {
	for _, ev := range evs {
		if ev.tick != 0 {
			h.set.Advance(ev.tick)
			h.refWin.Advance(ev.tick)
			continue
		}
		h.sh.Push(ev.t.Clone())
		h.refWin.Push(ev.t.Clone())
	}
}

// conns lists the set's current worker streams.
func (h *foHarness) conns() []*ShardConn {
	h.set.mu.RLock()
	defer h.set.mu.RUnlock()
	return append([]*ShardConn(nil), h.set.uconns...)
}

// kill severs a worker like a SIGKILL: every replica it hosts dies with
// its connections.
func (h *foHarness) kill(i int) {
	h.workers[i].Close()
	h.workers[i] = nil
}

// restart brings a fresh worker back up on a killed worker's address.
func (h *foHarness) restart(i int) {
	h.t.Helper()
	w, err := NewShardWorker(h.addrs[i], foDeploy)
	if err != nil {
		h.t.Fatal(err)
	}
	h.workers[i] = w
	h.t.Cleanup(func() { w.Close() })
}

// checkpointAll forces a committed checkpoint on every live connection, so
// a subsequent kill exercises restore-from-state rather than full replay.
func (h *foHarness) checkpointAll() {
	for _, c := range h.conns() {
		c.checkpoint()
	}
}

// check flushes (the barrier must be exact whatever failovers ran) and
// compares the merged materialized result against the serial reference.
func (h *foHarness) check(label string) {
	h.t.Helper()
	h.set.Flush()
	requireSameMat(h.t, label, h.mat, h.refMat)
}

// requireSameMat compares two materialized results as multisets.
func requireSameMat(t *testing.T, label string, gotMat, wantMat *Materialize) {
	t.Helper()
	got := gotMat.MustSnapshot(nil, -1)
	want := wantMat.MustSnapshot(nil, -1)
	SortTuples(got)
	SortTuples(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if !got[i].EqualVals(want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func (h *foHarness) failovers() []FailoverEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]FailoverEvent(nil), h.events...)
}

// TestFailoverKillDuringFlush kills a worker while a flush barrier is in
// flight: the flush must absorb the failover and still return an exact
// barrier.
func TestFailoverKillDuringFlush(t *testing.T) {
	h := newFoHarness(t, 2, 2, 2*time.Second)
	evs := foEvents(21, 200)
	h.feed(evs[:120])
	h.checkpointAll()
	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(2 * time.Millisecond)
		h.kill(1)
	}()
	h.set.Flush()
	<-done
	h.check("mid-run flush across a kill")
	h.feed(evs[120:])
	h.check("final")
	evts := h.failovers()
	if len(evts) != 1 || evts[0].Err != nil {
		t.Fatalf("failovers = %+v, want exactly one clean failover", evts)
	}
	if evts[0].To != h.addrs[0] {
		t.Fatalf("failover landed on %q, want the surviving worker %q", evts[0].To, h.addrs[0])
	}
}

// TestFailoverDoubleKill kills both workers at different epochs: the
// second failover must land in-process and the result must stay exact.
func TestFailoverDoubleKill(t *testing.T) {
	h := newFoHarness(t, 4, 2, 2*time.Second)
	evs := foEvents(22, 300)
	h.feed(evs[:100])
	h.checkpointAll()
	h.kill(0)
	h.feed(evs[100:200])
	h.check("after first kill")
	h.kill(1)
	h.feed(evs[200:])
	h.check("after second kill")
	evts := h.failovers()
	if len(evts) < 2 {
		t.Fatalf("failovers = %+v, want two", evts)
	}
	for _, ev := range evts {
		if ev.Err != nil {
			t.Fatalf("failover abandoned shards: %+v", ev)
		}
	}
	if last := evts[len(evts)-1]; last.To != "" {
		t.Fatalf("second failover landed on %q, want in-process", last.To)
	}
}

// TestFailoverKillDuringDeploy kills both workers at the same instant: the
// first failover's deploy onto the "surviving" worker fails mid-failover
// and it must fall through — fresh dial refused, then in-process — without
// losing exactness.
func TestFailoverKillDuringDeploy(t *testing.T) {
	h := newFoHarness(t, 2, 2, time.Second)
	evs := foEvents(23, 200)
	h.feed(evs[:80])
	h.checkpointAll()
	h.kill(0)
	h.kill(1)
	h.feed(evs[80:])
	h.check("after simultaneous kills")
	for _, ev := range h.failovers() {
		if ev.Err != nil {
			t.Fatalf("failover abandoned shards: %+v", ev)
		}
	}
	// The first failover may win the race against the second kill and land
	// on the worker about to die; wherever it went first, both shards must
	// end up in-process.
	if got := h.set.Placement(); fmt.Sprint(got) != fmt.Sprint([]string{"", ""}) {
		t.Fatalf("placement %v after both workers died, want in-process", got)
	}
}

// TestFailoverKillThenRejoin: after the first worker dies and its shards
// move to the survivor, a fresh worker rejoins on the dead address; when
// the survivor then dies too, the failover must redeploy onto the rejoined
// worker rather than in-process.
func TestFailoverKillThenRejoin(t *testing.T) {
	h := newFoHarness(t, 2, 2, 2*time.Second)
	evs := foEvents(24, 300)
	h.feed(evs[:100])
	h.checkpointAll()
	h.kill(1)
	h.feed(evs[100:180])
	h.check("after first kill")
	h.restart(1)
	h.kill(0)
	h.feed(evs[180:])
	h.check("after kill with rejoined worker")
	evts := h.failovers()
	if len(evts) != 2 {
		t.Fatalf("failovers = %+v, want two", evts)
	}
	if evts[0].To != h.addrs[0] {
		t.Fatalf("first failover landed on %q, want %q", evts[0].To, h.addrs[0])
	}
	if evts[1].To != h.addrs[1] {
		t.Fatalf("second failover landed on %q, want the rejoined worker %q", evts[1].To, h.addrs[1])
	}
}

// wedgeDeploy is foDeploy behind a gate operator: while the gate is shut,
// processing a data frame blocks the worker's frame loop — the worker
// stays connected but stops acking, the stalled-but-alive failure mode.
func wedgeDeploy(gate chan struct{}) DeployFunc {
	return func(spec []byte, shard int, state []byte, send ResultSender) (map[string]Operator, []Advancer, []Checkpointer, error) {
		heads, advs, cks, err := foDeploy(spec, shard, state, send)
		if err != nil {
			return nil, nil, nil, err
		}
		return map[string]Operator{"s0": &gateOp{next: heads["s0"], gate: gate}}, advs, cks, nil
	}
}

type gateOp struct {
	next Operator
	gate chan struct{}
}

func (g *gateOp) Schema() *data.Schema { return g.next.Schema() }
func (g *gateOp) Push(t data.Tuple)    { g.PushBatch([]data.Tuple{t}) }
func (g *gateOp) PushBatch(ts []data.Tuple) {
	<-g.gate
	g.next.PushBatch(ts)
}

// TestFailoverWedgedWorkerFlushDeadline is the regression test for the
// stalled-but-connected worker: its TCP session stays up but it stops
// acking, so a flush barrier would wait forever without the configured
// ack deadline. The deadline must convert the hang into a detected
// failure, and failover (no other worker: in-process) must keep the
// result exact — the flush returns an exact barrier instead of hanging.
func TestFailoverWedgedWorkerFlushDeadline(t *testing.T) {
	gate := make(chan struct{})
	w, err := NewShardWorker("127.0.0.1:0", wedgeDeploy(gate))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	// Registered after the worker's Close, so it runs first (LIFO):
	// releasing the gate lets the wedged frame loop drain and Close return.
	t.Cleanup(func() { close(gate) })

	const stall = 300 * time.Millisecond
	// No checkpoint cadence and fewer sends than the credit window below:
	// the flush-ack deadline itself must detect the stall.
	h := deployFo(t, ShardConfig{Nodes: []string{w.Addr()}, LocalDeploy: foDeploy,
		Recovery: Recovery{Failover: true, CheckpointEvery: 1 << 20, StallTimeout: stall}}, []string{w.Addr(), w.Addr()}, nil)
	c := h.conns()[0]

	evs := foEvents(25, 120)
	h.feed(evs[:20]) // the first data frame wedges the worker's frame loop
	if err := c.Err(); err != nil {
		t.Fatalf("stall detected before the flush barrier ran: %v", err)
	}
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.set.Flush()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("flush on a wedged worker hung: the ack deadline did not fire")
	}
	if waited := time.Since(start); waited < stall/2 {
		t.Fatalf("flush returned in %v, before the %v ack deadline could have detected the stall", waited, stall)
	}
	h.check("after wedged-worker failover")
	h.feed(evs[20:])
	h.check("final")
	evts := h.failovers()
	if len(evts) != 1 || evts[0].Err != nil || evts[0].To != "" {
		t.Fatalf("failovers = %+v, want one clean in-process failover", evts)
	}
}

// TestFailoverAbandonWithoutCandidates: a single worker, no local builder
// — when it dies there is nowhere to go. The failover must report the
// abandonment through OnFailover (fail-stop semantics), later sends must
// drop without accumulating, and Flush must still return.
func TestFailoverAbandonWithoutCandidates(t *testing.T) {
	w, err := NewShardWorker("127.0.0.1:0", foDeploy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	// LocalDeploy nil: no last resort.
	h := deployFo(t, ShardConfig{Nodes: []string{w.Addr()},
		Recovery: Recovery{Failover: true, StallTimeout: 500 * time.Millisecond}}, []string{w.Addr(), w.Addr()}, nil)
	set, sh, mat, c := h.set, h.sh, h.mat, h.conns()[0]

	sh.Push(temp(1, "L1", 20))
	set.Flush()
	if mat.Len() == 0 {
		t.Fatal("no rows before the kill")
	}
	w.Close()
	sh.Push(temp(2, "L2", 21))
	set.Flush() // must absorb the abandonment, not hang
	evts := h.failovers()
	if len(evts) != 1 || evts[0].Err == nil {
		t.Fatalf("events = %+v, want one abandonment", evts)
	}
	// Dropped-log conn: further traffic must not accumulate anywhere.
	sh.Push(temp(3, "L3", 22))
	set.Advance(vtime.Time(time.Hour))
	set.Flush()
	c.flog.mu.Lock()
	n := len(c.flog.in)
	c.flog.mu.Unlock()
	if n != 0 {
		t.Fatalf("abandoned connection accumulated %d log entries", n)
	}
}

// TestFailoverAbandonAllCandidatesFail drives the abandonment branch the
// hard way: candidates exist but every one of them fails — the only other
// configured worker address refuses connections, and the in-process last
// resort errors out of its builder. The failover must walk the full
// candidate ladder, report abandonment with the failed worker's shards,
// drop the replay log, and leave the deployment fail-stopped: later input
// to the abandoned shards drops without accumulating anywhere, and
// Advance/Flush/Close stay non-blocking.
func TestFailoverAbandonAllCandidatesFail(t *testing.T) {
	w, err := NewShardWorker("127.0.0.1:0", foDeploy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	// A worker address that is configured but refuses connections: bind a
	// listener to reserve a port, then close it before the test begins.
	dead, err := NewShardWorker("127.0.0.1:0", foDeploy)
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	dead.Close()

	var mu sync.Mutex
	localTried := 0
	// The first placement is all-remote, so the failing local builder below
	// is reached only as the failover's last resort.
	h := deployFo(t, ShardConfig{
		Nodes: []string{w.Addr(), deadAddr},
		LocalDeploy: func(spec []byte, shard int, state []byte, send ResultSender) (map[string]Operator, []Advancer, []Checkpointer, error) {
			mu.Lock()
			localTried++
			mu.Unlock()
			return nil, nil, nil, fmt.Errorf("no replica capacity on the coordinator")
		},
		Recovery: Recovery{Failover: true, CheckpointEvery: 1, StallTimeout: 500 * time.Millisecond},
	}, []string{w.Addr(), w.Addr()}, nil)
	set, sh, mat, c := h.set, h.sh, h.mat, h.conns()[0]
	c.ckMaxLog = 1 // checkpoint behind every send (nothing has been sent yet)

	sh.Push(temp(1, "L1", 20))
	sh.Push(temp(2, "L2", 21))
	set.Flush()
	if mat.Len() == 0 {
		t.Fatal("no rows before the kill")
	}

	w.Close()
	sh.Push(temp(3, "L3", 22))
	set.Flush() // detects the dead link, runs the failover to abandonment

	evts := h.failovers()
	mu.Lock()
	tried := localTried
	mu.Unlock()
	if len(evts) != 1 || evts[0].Err == nil || evts[0].To != "" {
		t.Fatalf("events = %+v, want one abandonment", evts)
	}
	if len(evts[0].Shards) != 2 {
		t.Fatalf("abandonment reported shards %v, want both", evts[0].Shards)
	}
	if tried == 0 {
		t.Fatal("failover never reached the in-process last resort")
	}

	// Replay log dropped: nothing retained, and fail-stopped traffic must
	// not start accumulating again.
	if undo := c.flog.takeOut(); len(undo) != 0 {
		t.Fatalf("abandoned connection retained %d undo batches", len(undo))
	}
	rows := mat.Len()
	for i := 0; i < 4; i++ {
		sh.Push(temp(int64(10+i), fmt.Sprintf("L%d", i), 25))
	}
	set.Advance(vtime.Time(time.Hour))
	set.Flush()
	c.flog.mu.Lock()
	n := len(c.flog.in)
	c.flog.mu.Unlock()
	if n != 0 {
		t.Fatalf("fail-stopped deployment accumulated %d replay entries", n)
	}
	if got := mat.Len(); got != rows {
		t.Fatalf("fail-stopped deployment emitted rows: %d -> %d", rows, got)
	}
	if extra := len(h.failovers()); extra != 1 {
		t.Fatalf("fail-stop must not re-run failovers, got %d events", extra)
	}
}

// TestFailoverTargetRejectsDeploy: the failover's first candidate accepts
// the connection but rejects the redeploy; the failover must discard it
// and land in-process instead, still exactly.
func TestFailoverTargetRejectsDeploy(t *testing.T) {
	deploys := 0
	var dmu sync.Mutex
	picky := func(spec []byte, shard int, state []byte, send ResultSender) (map[string]Operator, []Advancer, []Checkpointer, error) {
		dmu.Lock()
		deploys++
		n := deploys
		dmu.Unlock()
		if n > 1 {
			return nil, nil, nil, fmt.Errorf("replica quota exhausted")
		}
		return foDeploy(spec, shard, state, send)
	}
	wa, err := NewShardWorker("127.0.0.1:0", foDeploy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wa.Close() })
	wb, err := NewShardWorker("127.0.0.1:0", picky)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wb.Close() })

	h := deployFo(t, ShardConfig{Nodes: []string{wa.Addr(), wb.Addr()}, LocalDeploy: foDeploy,
		Recovery: Recovery{Failover: true, CheckpointEvery: 2, StallTimeout: 2 * time.Second}}, []string{wa.Addr(), wb.Addr()}, nil)

	evs := foEvents(26, 200)
	h.feed(evs[:100])
	h.checkpointAll()
	wa.Close() // shard 0's worker dies; candidate wb rejects the redeploy
	h.feed(evs[100:])
	h.check("after deploy-rejecting candidate")
	evts := h.failovers()
	if len(evts) != 1 || evts[0].Err != nil {
		t.Fatalf("events = %+v, want one clean failover", evts)
	}
	if evts[0].To != "" {
		t.Fatalf("failover landed on %q, want in-process after the rejected deploy", evts[0].To)
	}
}
