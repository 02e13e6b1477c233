package plan

import (
	"math/rand"
	"os/exec"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/stream"
	"aspen/internal/testproc"
	"aspen/internal/vtime"
)

// TestDistributedWorkerProcesses is the full multi-PC deployment: two real
// shardworker processes on loopback TCP host the replicas of sharded
// deployments, and the differential harness holds their results
// multiset-identical to serial execution. The workers are built from
// cmd/shardworker (with -race when this test runs under the detector), so
// the wire protocol crosses genuine process and codec boundaries.
func TestDistributedWorkerProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches worker processes")
	}
	bin := buildWorker(t)
	addrs := []string{startWorkerProcess(t, bin), startWorkerProcess(t, bin)}
	runShardDifferential(t, *fuzzSeed+5000, 10, addrs)
}

// buildWorker compiles cmd/shardworker into a scratch dir.
func buildWorker(t *testing.T) string {
	return testproc.Build(t, "aspen/cmd/shardworker")
}

// startWorkerProcess launches one worker on an ephemeral port and returns
// the address it advertises.
func startWorkerProcess(t *testing.T, bin string) string {
	addr, _ := testproc.StartWorker(t, bin)
	return addr
}

// TestChaosWorkerProcessKill is the full-fidelity chaos run: two real
// shardworker processes host the replicas and one of them is SIGKILLed at
// a random epoch mid-run. Checkpointed failover onto the surviving process
// (state restored across a genuine process and codec boundary) must keep
// every result multiset-identical to serial execution.
func TestChaosWorkerProcessKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and launches worker processes")
	}
	if *fuzzKill <= 0 {
		t.Skip("chaos mode disabled (-fuzzshard.kill=0)")
	}
	bin := buildWorker(t)
	n := *fuzzKill / 2
	if n < 3 {
		n = 3
	}
	runChaosDifferential(t, *fuzzSeed+9000, n, func(t *testing.T) chaosCluster {
		procs := make([]*exec.Cmd, 2)
		addrs := make([]string, 2)
		for i := range procs {
			addrs[i], procs[i] = testproc.StartWorker(t, bin)
		}
		return chaosCluster{addrs: addrs, kill: func(i int) {
			procs[i].Process.Kill() // SIGKILL: no teardown, no goodbyes
			procs[i].Wait()
		}}
	})
}

// TestCompileShardedDialRefused: an unreachable worker fails the compile
// cleanly — error out, nothing subscribed, no goroutines left behind.
func TestCompileShardedDialRefused(t *testing.T) {
	b := fuzzBuiltPlan(t)
	eng := stream.NewEngine("refused", vtime.NewScheduler())
	_, err := CompileStreamOpts(b, Host{Engine: eng}, CompileOptions{
		Topology: Topology{Parallelism: 2, Nodes: []string{"127.0.0.1:1"}},
	})
	if err == nil {
		t.Fatal("compile against a refused worker address must fail")
	}
	for _, src := range fuzzSources() {
		if _, ok := eng.Input(src.name); ok {
			t.Fatalf("failed compile left input %s registered", src.name)
		}
	}
}

// TestCompileShardedDeadWorker: a worker that stops between dial and
// deploy fails the deploy barrier rather than hanging.
func TestCompileShardedDeadWorker(t *testing.T) {
	w, err := NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := w.Addr()
	w.Close()

	b := fuzzBuiltPlan(t)
	eng := stream.NewEngine("dead", vtime.NewScheduler())
	done := make(chan error, 1)
	go func() {
		_, err := CompileStreamOpts(b, Host{Engine: eng}, CompileOptions{Topology: Topology{Parallelism: 2, Nodes: []string{addr}}})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("compile against a dead worker must fail")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("compile against a dead worker hung")
	}
}

// TestCompileNodesWithoutParallelism: naming workers while compiling
// serial is a configuration error, not a silently ignored topology.
func TestCompileNodesWithoutParallelism(t *testing.T) {
	b := fuzzBuiltPlan(t)
	eng := stream.NewEngine("misconfig", vtime.NewScheduler())
	if _, err := CompileStreamOpts(b, Host{Engine: eng}, CompileOptions{
		Topology: Topology{Nodes: []string{"127.0.0.1:7070"}},
	}); err == nil {
		t.Fatal("Nodes without Parallelism must fail the compile")
	}
}

// TestDeployReplicaGarbageSpec: a corrupt wire spec is a deploy error, not
// a worker panic.
func TestDeployReplicaGarbageSpec(t *testing.T) {
	if _, _, _, err := (*SensorHosts)(nil).DeployReplica([]byte{0x01, 0x02, 0x03}, 0, nil,
		func([]data.Tuple) error { return nil }); err == nil {
		t.Fatal("garbage spec must fail to deploy")
	}
}

// fuzzBuiltPlan generates one deterministic partitionable plan.
func fuzzBuiltPlan(t *testing.T) *Built {
	t.Helper()
	sources := fuzzSources()
	for seed := int64(1); seed < 20; seed++ {
		g := &fuzzGen{rng: rand.New(rand.NewSource(seed)), sources: sources}
		root := g.genPlan()
		if _, ok := analyzeShard(root); ok {
			return &Built{Root: root, Limit: -1}
		}
	}
	t.Fatal("no partitionable plan found")
	return nil
}

// TestMultiplexedConnAccounting: every deployment between this
// coordinator and a worker shares one pooled physical connection, so N
// deployments over W workers hold O(W) sockets — not O(N×W) — and the
// last teardown releases them.
func TestMultiplexedConnAccounting(t *testing.T) {
	before := stream.WorkerConnCount()
	nodes := make([]string, 2)
	for i := range nodes {
		w, err := NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		nodes[i] = w.Addr()
	}

	const n = 8
	deps := make([]*Deployment, 0, n)
	for i := 0; i < n; i++ {
		eng := stream.NewEngine("mux", vtime.NewScheduler())
		dep, err := CompileStreamOpts(fuzzBuiltPlan(t), Host{Engine: eng}, CompileOptions{
			Topology: Topology{Parallelism: 2, Nodes: nodes},
		})
		if err != nil {
			t.Fatal(err)
		}
		deps = append(deps, dep)
	}
	if got := stream.WorkerConnCount() - before; got != len(nodes) {
		t.Fatalf("%d deployments over %d workers hold %d connections, want %d",
			n, len(nodes), got, len(nodes))
	}
	for _, dep := range deps {
		dep.Close()
	}
	if got := stream.WorkerConnCount() - before; got != 0 {
		t.Fatalf("%d connections still pooled after every deployment closed", got)
	}
}
