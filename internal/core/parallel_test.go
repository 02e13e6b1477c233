package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/plan"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// newParallelRuntime assembles an all-stream runtime with the given plan
// parallelism (and optional shard-worker topology) and one registered
// reading stream.
func newParallelRuntime(t *testing.T, par int, nodes ...string) (*Runtime, *vtime.Scheduler) {
	t.Helper()
	sched := vtime.NewScheduler()
	rt := New(Config{Scheduler: sched, Topology: plan.Topology{Parallelism: par, Nodes: nodes}})
	t.Cleanup(rt.Close)
	schema := data.NewSchema("Readings",
		data.Col("room", data.TString), data.Col("value", data.TFloat))
	schema.IsStream = true
	if _, err := rt.RegisterStream("Readings", schema, 50); err != nil {
		t.Fatal(err)
	}
	return rt, sched
}

// TestRuntimeParallelismShardsDeployedPlans runs the same windowed
// aggregation serially and with Config.Parallelism, drives identical
// batches through both engines (including tick-driven expiry), and
// compares results.
func TestRuntimeParallelismShardsDeployedPlans(t *testing.T) {
	const src = `SELECT r.room, count(*) AS n FROM Readings r [RANGE 5 SECONDS]
		GROUP BY r.room ORDER BY r.room`
	feed := func(rt *Runtime, sched *vtime.Scheduler) {
		in, ok := rt.Stream.Input("Readings")
		if !ok {
			t.Fatal("Readings input missing")
		}
		for i := 0; i < 40; i++ {
			batch := make([]data.Tuple, 0, 8)
			for k := 0; k < 8; k++ {
				batch = append(batch, data.NewTuple(sched.Now(),
					data.Str(fmt.Sprintf("L%d", (i+k)%6)), data.Float(float64(i+k))))
			}
			in.PushBatch(batch)
			sched.RunFor(300 * time.Millisecond) // ticks expire the window mid-run
		}
	}

	srt, ssched := newParallelRuntime(t, 0)
	sq, err := srt.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	feed(srt, ssched)
	want, err := sq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("serial reference is empty")
	}

	prt, psched := newParallelRuntime(t, 4)
	pq, err := prt.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if pq.Deployment.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", pq.Deployment.Shards)
	}
	feed(prt, psched)
	got, err := pq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("sharded rows %v, want %v", got, want)
	}
	for i := range want {
		if !want[i].EqualVals(got[i]) {
			t.Fatalf("row %d: sharded %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRuntimeParallelismGlobalAggregateTwoPhase deploys a building-wide
// rollup — a global aggregate with no GROUP BY, the query PR 2 had to run
// serially — through Config.Parallelism and checks it shards two-phase
// with results identical to serial.
func TestRuntimeParallelismGlobalAggregateTwoPhase(t *testing.T) {
	const src = `SELECT count(*) AS n, avg(r.value) AS v FROM Readings r [RANGE 5 SECONDS]`
	feed := func(rt *Runtime, sched *vtime.Scheduler) {
		in, ok := rt.Stream.Input("Readings")
		if !ok {
			t.Fatal("Readings input missing")
		}
		for i := 0; i < 40; i++ {
			batch := make([]data.Tuple, 0, 8)
			for k := 0; k < 8; k++ {
				batch = append(batch, data.NewTuple(sched.Now(),
					data.Str(fmt.Sprintf("L%d", (i+k)%6)), data.Float(float64((i*k)%11))))
			}
			in.PushBatch(batch)
			sched.RunFor(300 * time.Millisecond)
		}
	}

	srt, ssched := newParallelRuntime(t, 0)
	sq, err := srt.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	feed(srt, ssched)
	want, err := sq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 {
		t.Fatalf("serial global aggregate rows = %v", want)
	}

	prt, psched := newParallelRuntime(t, 4)
	pq, err := prt.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if pq.Deployment.Shards != 4 || !pq.Deployment.TwoPhase {
		t.Fatalf("Shards=%d TwoPhase=%v, want a 4-way two-phase deployment",
			pq.Deployment.Shards, pq.Deployment.TwoPhase)
	}
	feed(prt, psched)
	got, err := pq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pq.Stop()
	if len(got) != 1 || !got[0].EqualVals(want[0]) {
		t.Fatalf("sharded global aggregate %v, want %v", got, want)
	}
}

// TestRuntimeParallelismMultiNode deploys the same windowed grouped
// aggregation with its shard replicas spread over two loopback shard
// workers (Config.Nodes) — the paper's replicas-on-different-PCs
// deployment — and checks the distributed result against serial.
func TestRuntimeParallelismMultiNode(t *testing.T) {
	const src = `SELECT r.room, count(*) AS n, avg(r.value) AS v
		FROM Readings r [RANGE 5 SECONDS] GROUP BY r.room ORDER BY r.room`
	feed := func(rt *Runtime, sched *vtime.Scheduler) {
		in, ok := rt.Stream.Input("Readings")
		if !ok {
			t.Fatal("Readings input missing")
		}
		for i := 0; i < 40; i++ {
			batch := make([]data.Tuple, 0, 8)
			for k := 0; k < 8; k++ {
				batch = append(batch, data.NewTuple(sched.Now(),
					data.Str(fmt.Sprintf("L%d", (i+k)%6)), data.Float(float64((i*k)%13))))
			}
			in.PushBatch(batch)
			sched.RunFor(300 * time.Millisecond)
		}
	}

	srt, ssched := newParallelRuntime(t, 0)
	sq, err := srt.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	feed(srt, ssched)
	want, err := sq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("serial reference is empty")
	}

	var nodes []string
	for i := 0; i < 2; i++ {
		w, err := plan.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		nodes = append(nodes, w.Addr())
	}
	prt, psched := newParallelRuntime(t, 4, nodes...)
	pq, err := prt.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if loc := pq.Deployment.Placement(); pq.Deployment.Shards != 4 ||
		!slices.Equal(loc, []string{nodes[0], nodes[1], nodes[0], nodes[1]}) {
		t.Fatalf("Shards=%d Placement=%v, want a 4-way deployment round-robin over %v",
			pq.Deployment.Shards, loc, nodes)
	}
	feed(prt, psched)
	got, err := pq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pq.Stop() // closes the worker connections with the shard set
	if len(got) != len(want) {
		t.Fatalf("distributed rows %v, want %v", got, want)
	}
	for i := range want {
		if !want[i].EqualVals(got[i]) {
			t.Fatalf("row %d: distributed %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRuntimeFailoverSurvivesWorkerLoss runs the multi-node deployment
// with Config.Failover and kills one of the two workers mid-feed: the
// dead worker's shards must redeploy from their checkpoints onto the
// survivor and the final result must still match serial execution.
func TestRuntimeFailoverSurvivesWorkerLoss(t *testing.T) {
	const src = `SELECT r.room, count(*) AS n, avg(r.value) AS v
		FROM Readings r [RANGE 5 SECONDS] GROUP BY r.room ORDER BY r.room`
	feed := func(rt *Runtime, sched *vtime.Scheduler, mid func()) {
		in, ok := rt.Stream.Input("Readings")
		if !ok {
			t.Fatal("Readings input missing")
		}
		for i := 0; i < 40; i++ {
			if i == 23 && mid != nil {
				mid()
			}
			batch := make([]data.Tuple, 0, 8)
			for k := 0; k < 8; k++ {
				batch = append(batch, data.NewTuple(sched.Now(),
					data.Str(fmt.Sprintf("L%d", (i+k)%6)), data.Float(float64((i*k)%13))))
			}
			in.PushBatch(batch)
			sched.RunFor(300 * time.Millisecond)
		}
	}

	srt, ssched := newParallelRuntime(t, 0)
	sq, err := srt.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	feed(srt, ssched, nil)
	want, err := sq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("serial reference is empty")
	}

	var workers []*stream.ShardWorker
	var nodes []string
	for i := 0; i < 2; i++ {
		w, err := plan.NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers = append(workers, w)
		nodes = append(nodes, w.Addr())
	}
	sched := vtime.NewScheduler()
	rt := New(Config{Scheduler: sched, Topology: failoverTopology(4, nodes)})
	t.Cleanup(rt.Close)
	schema := data.NewSchema("Readings",
		data.Col("room", data.TString), data.Col("value", data.TFloat))
	schema.IsStream = true
	if _, err := rt.RegisterStream("Readings", schema, 50); err != nil {
		t.Fatal(err)
	}
	pq, err := rt.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if pq.Deployment.Shards != 4 {
		t.Fatalf("Shards=%d, want a 4-way deployment", pq.Deployment.Shards)
	}
	feed(rt, sched, func() { workers[1].Close() })
	got, err := pq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Failover-armed: the dead worker's shards were redeployed elsewhere.
	if loc := pq.Deployment.Placement(); slices.Contains(loc, workers[1].Addr()) {
		t.Fatalf("placement %v still names the killed worker %s", loc, workers[1].Addr())
	}
	pq.Stop()
	if len(got) != len(want) {
		t.Fatalf("post-failover rows %v, want %v", got, want)
	}
	for i := range want {
		if !want[i].EqualVals(got[i]) {
			t.Fatalf("row %d: post-failover %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRuntimeRescale covers Runtime.Rescale on a runtime without a
// SnapshotPath: every deployed SELECT is tracked, so an empty list pulls a
// P=2 query's shards off its loopback worker (at the parent commit Rescale
// without a durable coordinator moved nothing and still reported success),
// and a list the next deploy would reject is refused before it replaces the
// topology — later queries keep deploying onto the old one.
func TestRuntimeRescale(t *testing.T) {
	const src = `SELECT r.room, count(*) AS n FROM Readings r [RANGE 5 SECONDS] GROUP BY r.room`
	w, err := plan.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	rt, _ := newParallelRuntime(t, 2, w.Addr())
	q, err := rt.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	onWorker := []string{w.Addr(), w.Addr()}
	if got := q.Deployment.Placement(); !slices.Equal(got, onWorker) {
		t.Fatalf("placement %v, want both shards on the worker", got)
	}

	for _, bad := range [][]string{{"w:1", "w:1"}, {"=readings"}} {
		if err := rt.Rescale(bad); err == nil {
			t.Fatalf("Rescale(%v) accepted a list every later deploy rejects", bad)
		}
	}
	if got := q.Deployment.Placement(); !slices.Equal(got, onWorker) {
		t.Fatalf("a rejected Rescale moved shards: %v", got)
	}
	q2, err := rt.Run(src)
	if err != nil {
		t.Fatalf("deploy after a rejected Rescale: %v", err)
	}
	defer q2.Stop()
	if got := q2.Deployment.Placement(); !slices.Equal(got, onWorker) {
		t.Fatalf("deploy after a rejected Rescale placed %v, want the old topology", got)
	}

	if err := rt.Rescale(nil); err != nil {
		t.Fatal(err)
	}
	for _, dep := range []*plan.Deployment{q.Deployment, q2.Deployment} {
		if got := dep.Placement(); !slices.Equal(got, []string{"", ""}) {
			t.Fatalf("after Rescale(nil) placement is %v, want every shard in-process", got)
		}
	}
	if _, err := rt.SaveSnapshot(); err == nil {
		t.Fatal("SaveSnapshot without a SnapshotPath must fail")
	}
	if _, _, err := rt.RestoreSnapshot(); err == nil {
		t.Fatal("RestoreSnapshot without a SnapshotPath must fail")
	}
}
