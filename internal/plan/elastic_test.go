package plan

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"aspen/internal/data"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// Elastic membership + durable coordinator tests: live re-sharding when
// workers join and leave, heal-back after failover, coordinator snapshot/
// restore, and the combined join/leave/kill/restart chaos differential.

var fuzzElastic = flag.Int("fuzzshard.elastic", 6,
	"random plans per elastic differential run: workers join and leave via live rescales at random epochs "+
		"(and in the restart mode the coordinator itself restarts from its snapshot mid-run); "+
		"results must stay multiset-equal to serial (0 disables)")

// failoverTopology is p shards over nodes with checkpointed failover armed
// at the given tick cadence.
func failoverTopology(p int, nodes []string, ckEvery int) Topology {
	return Topology{Parallelism: p, Nodes: nodes,
		Recovery: stream.Recovery{Failover: true, CheckpointEvery: ckEvery}}
}

// pushEvents replays evs[lo:hi] into eng without snapshotting.
func pushEvents(eng *stream.Engine, evs []fuzzEvent, lo, hi int) {
	for _, ev := range evs[lo:hi] {
		if ev.tick != 0 {
			eng.Advance(ev.tick)
			continue
		}
		if in, ok := eng.Input(ev.input); ok {
			in.Push(ev.t.Clone())
		}
	}
}

// sortByKey sorts ts in the value order (data.CompareRows), the order
// snapshots keep.
func sortByKey(ts []data.Tuple) {
	slices.SortFunc(ts, func(a, b data.Tuple) int { return data.CompareRows(a.Vals, b.Vals) })
}

// snapshotSorted flushes and returns the deployment's rows sorted.
func snapshotSorted(t *testing.T, dep *Deployment) []data.Tuple {
	t.Helper()
	rows, err := dep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sortByKey(rows)
	return rows
}

// sameRows reports whether two sorted snapshots hold the same rows.
func sameRows(a, b []data.Tuple) bool { return slices.EqualFunc(a, b, data.Tuple.EqualVals) }

func requireEqualRows(t *testing.T, ctx string, got, want []data.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d\ngot:  %v\nwant: %v", ctx, len(got), len(want), got, want)
	}
	for i := range want {
		if !got[i].EqualVals(want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", ctx, i, got[i], want[i])
		}
	}
}

// TestRescaleLiveDeployment: a deployment compiled all-in-process (no
// worker topology at all) rescales onto a worker that joins mid-run, then
// heals back home after the worker leaves — with pushes before, between,
// and after the moves — and stays multiset-identical to serial.
func TestRescaleLiveDeployment(t *testing.T) {
	sources := fuzzSources()
	rng := rand.New(rand.NewSource(*fuzzSeed))
	b := fuzzBuiltPlan(t)
	evs := genWorkload(rng, sources, 300)

	seng := stream.NewEngine("rescale-serial", vtime.NewScheduler())
	sdep, err := CompileStreamOpts(b, Host{Engine: seng}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pushEvents(seng, evs, 0, len(evs))
	want := snapshotSorted(t, sdep)

	eng := stream.NewEngine("rescale-elastic", vtime.NewScheduler())
	dep, err := CompileStreamOpts(b, Host{Engine: eng}, CompileOptions{Topology: Topology{Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if dep.Shards != 2 {
		t.Fatalf("plan did not shard (shards=%d)", dep.Shards)
	}
	for _, loc := range dep.Placement() {
		if loc != "" {
			t.Fatalf("expected all-in-process placement, got %v", dep.Placement())
		}
	}

	third := len(evs) / 3
	pushEvents(eng, evs, 0, third)

	// A worker joins: push every shard out to it.
	addrs := startWorkers(t, 1)
	if err := dep.Rescale(addrs); err != nil {
		t.Fatalf("rescale out: %v", err)
	}
	for j, loc := range dep.Placement() {
		if loc != addrs[0] {
			t.Fatalf("shard %d still at %q after rescale to %s", j, loc, addrs[0])
		}
	}
	pushEvents(eng, evs, third, 2*third)

	// The worker leaves: heal every shard back home.
	if err := dep.Rescale(nil); err != nil {
		t.Fatalf("rescale home: %v", err)
	}
	for j, loc := range dep.Placement() {
		if loc != "" {
			t.Fatalf("shard %d still at %q after rescale home", j, loc)
		}
	}
	if n := stream.WorkerConnCount(); n != 0 {
		t.Fatalf("%d worker connections still pooled after every shard left", n)
	}
	pushEvents(eng, evs, 2*third, len(evs))

	requireEqualRows(t, "rescale out+home", snapshotSorted(t, dep), want)
}

// TestRescaleHealBackAfterFailover: a worker dies mid-run and failover
// strands its shards on the survivor; a replacement worker joins and
// Rescale heals the deployment back onto two workers. Results stay
// multiset-identical to serial across the kill and the heal.
func TestRescaleHealBackAfterFailover(t *testing.T) {
	sources := fuzzSources()
	rng := rand.New(rand.NewSource(*fuzzSeed))
	b := fuzzBuiltPlan(t)
	evs := genWorkload(rng, sources, 300)

	seng := stream.NewEngine("heal-serial", vtime.NewScheduler())
	sdep, err := CompileStreamOpts(b, Host{Engine: seng}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pushEvents(seng, evs, 0, len(evs))
	want := snapshotSorted(t, sdep)

	cl := startKillableWorkers(t, 2)
	var failovers int
	eng := stream.NewEngine("heal-elastic", vtime.NewScheduler())
	dep, err := CompileStreamOpts(b, Host{Engine: eng}, CompileOptions{
		Topology: failoverTopology(2, cl.addrs, 2),
		OnFailover: func(ev stream.FailoverEvent) {
			if ev.Err != nil {
				t.Errorf("failover abandoned shards %v: %v", ev.Shards, ev.Err)
			}
			failovers++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if dep.Shards != 2 {
		t.Fatalf("plan did not shard (shards=%d)", dep.Shards)
	}

	third := len(evs) / 3
	pushEvents(eng, evs, 0, third)
	cl.kill(0)
	pushEvents(eng, evs, third, 2*third)
	dep.Flush()
	if failovers == 0 {
		t.Fatal("killed worker 0 but no failover ran")
	}
	for j, loc := range dep.Placement() {
		if loc == cl.addrs[0] {
			t.Fatalf("shard %d still placed on the dead worker %s", j, loc)
		}
	}

	// A replacement joins; heal back to a two-worker topology.
	repl := startWorkers(t, 1)
	target := []string{cl.addrs[1], repl[0]}
	if err := dep.Rescale(target); err != nil {
		t.Fatalf("heal-back rescale: %v", err)
	}
	onRepl := false
	for j, loc := range dep.Placement() {
		if loc != target[j%2] {
			t.Fatalf("shard %d at %q after heal-back, want %q", j, loc, target[j%2])
		}
		onRepl = onRepl || loc == repl[0]
	}
	if !onRepl {
		t.Fatal("no shard healed onto the replacement worker")
	}
	pushEvents(eng, evs, 2*third, len(evs))

	requireEqualRows(t, "kill+heal-back", snapshotSorted(t, dep), want)
}

// TestCoordinatorSnapshotRestore: standing queries — one serial, one
// sharded over a worker+local mix — survive a coordinator restart: Save at
// mid-run, tear the coordinator down, Restore into a fresh engine, replay
// the rest, and both results stay multiset-identical to serial.
func TestCoordinatorSnapshotRestore(t *testing.T) {
	sources := fuzzSources()
	rng := rand.New(rand.NewSource(*fuzzSeed))
	b := fuzzBuiltPlan(t)
	evs := genWorkload(rng, sources, 300)

	seng := stream.NewEngine("snap-serial", vtime.NewScheduler())
	sdep, err := CompileStreamOpts(b, Host{Engine: seng}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pushEvents(seng, evs, 0, len(evs))
	want := snapshotSorted(t, sdep)

	addrs := startWorkers(t, 1)
	path := filepath.Join(t.TempDir(), "coord.snap")

	engA := stream.NewEngine("snap-a", vtime.NewScheduler())
	coordA := NewCoordinator(Host{Engine: engA}, path)
	if _, err := coordA.Deploy("serial", b, CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := coordA.Deploy("sharded", b, CompileOptions{
		Topology: failoverTopology(2, []string{"", addrs[0]}, 2),
	}); err != nil {
		t.Fatal(err)
	}
	half := len(evs) / 2
	pushEvents(engA, evs, 0, half)
	if _, err := coordA.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	coordA.Close() // the restart: old deployments die with the old process

	engB := stream.NewEngine("snap-b", vtime.NewScheduler())
	coordB := NewCoordinator(Host{Engine: engB}, path)
	if _, err := coordB.Restore(); err != nil {
		t.Fatalf("restore: %v", err)
	}
	names := coordB.Names()
	if len(names) != 2 || names[0] != "serial" || names[1] != "sharded" {
		t.Fatalf("restored deployments %v, want [serial sharded]", names)
	}
	defer coordB.Close()
	pushEvents(engB, evs, half, len(evs))

	for _, name := range names {
		dep, ok := coordB.Deployment(name)
		if !ok {
			t.Fatalf("restored deployment %q missing", name)
		}
		requireEqualRows(t, "restored "+name, snapshotSorted(t, dep), want)
	}
	// The sharded deployment must have come back on its snapshotted
	// placement, not a fresh round-robin.
	dep, _ := coordB.Deployment("sharded")
	if got := dep.Placement(); got[0] != "" || got[1] != addrs[0] {
		t.Fatalf("restored placement %v, want [ %s]", got, addrs[0])
	}
}

// TestCoordinatorLifecycle: the bookkeeping surface around the snapshot
// machinery — name uniqueness, lookup, drop, and the errors for unknown
// deployments.
func TestCoordinatorLifecycle(t *testing.T) {
	b := fuzzBuiltPlan(t)
	eng := stream.NewEngine("lifecycle", vtime.NewScheduler())
	coord := NewCoordinator(Host{Engine: eng}, filepath.Join(t.TempDir(), "coord.snap"))
	defer coord.Close()

	if _, err := coord.Deploy("a", b, CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Deploy("b", b, CompileOptions{Topology: Topology{Parallelism: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Deploy("a", b, CompileOptions{}); err == nil {
		t.Fatal("duplicate deployment name must be rejected")
	}
	if got := coord.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Names() = %v, want [a b]", got)
	}
	if got, ok := coord.Built("a"); !ok || got != b {
		t.Fatalf("Built(a) = %v, %v", got, ok)
	}
	if _, ok := coord.Built("nope"); ok {
		t.Fatal("Built of an unknown deployment must report absence")
	}
	if _, ok := coord.Deployment("nope"); ok {
		t.Fatal("Deployment of an unknown name must report absence")
	}
	if err := coord.Rescale("nope", nil); err == nil {
		t.Fatal("Rescale of an unknown deployment must error")
	}
	if err := coord.Rescale("a", []string{"x"}); err == nil {
		t.Fatal("Rescale of a serial deployment must error")
	}
	if err := coord.Drop("a"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if err := coord.Drop("a"); err == nil {
		t.Fatal("double drop must error")
	}
	if got := coord.Names(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Names() after drop = %v, want [b]", got)
	}
}

// TestSnapshotLoadFaults: a truncated, corrupted, garbage, or
// stale-version snapshot file is a clean Restore error that leaves the
// coordinator empty but alive — never a panic, never a partial
// rehydration.
func TestSnapshotLoadFaults(t *testing.T) {
	b := fuzzBuiltPlan(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "coord.snap")

	// Build one valid snapshot image to mutate.
	engA := stream.NewEngine("faults-a", vtime.NewScheduler())
	coordA := NewCoordinator(Host{Engine: engA}, path)
	if _, err := coordA.Deploy("q", b, CompileOptions{Topology: Topology{Parallelism: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := coordA.Save(); err != nil {
		t.Fatal(err)
	}
	coordA.Close()
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0xFF
	badMagic := append([]byte(nil), valid...)
	copy(badMagic, "NOTASNAP")
	staleVer := append([]byte(nil), valid...)
	staleVer[8] = 99
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated-header", valid[:10]},
		{"truncated-body", valid[:len(valid)-7]},
		{"garbage", []byte("complete nonsense, not a snapshot at all")},
		{"bad-magic", badMagic},
		{"stale-version", staleVer},
		{"corrupted-body", corrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, tc.name+".snap")
			if err := os.WriteFile(p, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			eng := stream.NewEngine("faults-"+tc.name, vtime.NewScheduler())
			coord := NewCoordinator(Host{Engine: eng}, p)
			if _, err := coord.Restore(); err == nil {
				t.Fatal("Restore of a damaged snapshot must fail")
			}
			if n := coord.Names(); len(n) != 0 {
				t.Fatalf("damaged snapshot partially rehydrated: %v", n)
			}
			// Empty but alive: the coordinator still deploys and saves.
			if _, err := coord.Deploy("fresh", b, CompileOptions{}); err != nil {
				t.Fatalf("coordinator unusable after failed restore: %v", err)
			}
			if _, err := coord.Save(); err != nil {
				t.Fatalf("save after failed restore: %v", err)
			}
			coord.Close()
		})
	}

	// A missing file is a fresh start, not an error.
	eng := stream.NewEngine("faults-missing", vtime.NewScheduler())
	coord := NewCoordinator(Host{Engine: eng}, filepath.Join(dir, "does-not-exist.snap"))
	if _, err := coord.Restore(); err != nil {
		t.Fatalf("missing snapshot must be a fresh start: %v", err)
	}
	// Restore onto a non-empty coordinator is refused.
	if _, err := coord.Deploy("q", b, CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := coord.Restore(); err == nil {
		t.Fatal("Restore over live deployments must fail")
	}
}

// randTopo draws a random placement for a rescale: nil (everything
// in-process) or 1–3 slots over the alive workers, possibly mixing ""
// (in-process) entries. Workers are sampled without replacement —
// ParseNodes rejects duplicate addresses as a config error.
func randTopo(rng *rand.Rand, alive []string) []string {
	if len(alive) == 0 || rng.Intn(4) == 0 {
		return nil
	}
	perm := rng.Perm(len(alive))
	n := 1 + rng.Intn(3)
	topo := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(4) == 0 || len(perm) == 0 {
			topo = append(topo, "") // "" keeps that slot in-process
			continue
		}
		topo = append(topo, alive[perm[0]])
		perm = perm[1:]
	}
	return topo
}

// runElasticDifferential is the elastic chaos differential: each random
// plan runs serially for the reference, then sharded through a
// plan.Coordinator with failover armed while workers join and leave via
// live rescales at random epochs, one worker is killed outright, and — in
// restart mode — the coordinator itself is torn down at a random epoch and
// rehydrated from its durable snapshot into a fresh engine. The final
// materialized output must stay multiset-equal to the serial run.
func runElasticDifferential(t *testing.T, seed int64, nPlans int, restart bool) {
	sources := fuzzSources()
	sharded, rescales, failovers, restarts := 0, 0, 0, 0
	for pi := 0; pi < nPlans; pi++ {
		rng := rand.New(rand.NewSource(seed + int64(pi)))
		g := &fuzzGen{rng: rng, sources: sources}
		root := g.genPlan()
		b := &Built{Root: root, Limit: -1}
		evs := genWorkload(rng, sources, 300)

		seng := stream.NewEngine(fmt.Sprintf("el%d-serial", pi), vtime.NewScheduler())
		sdep, err := CompileStreamOpts(b, Host{Engine: seng}, CompileOptions{})
		if err != nil {
			t.Fatalf("seed %d plan %d: serial compile: %v", seed, pi, err)
		}
		pushEvents(seng, evs, 0, len(evs))
		want := snapshotSorted(t, sdep)

		for _, p := range []int{2, 4} {
			cl := startKillableWorkers(t, 3)
			alive := append([]string(nil), cl.addrs...)
			path := filepath.Join(t.TempDir(), "coord.snap")
			eng := stream.NewEngine(fmt.Sprintf("el%d-p%d", pi, p), vtime.NewScheduler())
			coord := NewCoordinator(Host{Engine: eng, Sharing: NewSharing(eng)}, path)
			dep, err := coord.Deploy("q", b, CompileOptions{
				Topology: failoverTopology(p, alive[:2], 1+rng.Intn(3)),
				OnFailover: func(ev stream.FailoverEvent) {
					if ev.Err != nil {
						t.Errorf("seed %d plan %d P=%d: failover abandoned shards %v: %v",
							seed, pi, p, ev.Shards, ev.Err)
					}
					failovers++
				},
			})
			if err != nil {
				t.Fatalf("seed %d plan %d: elastic compile P=%d: %v\nplan: %s", seed, pi, p, err, root)
			}
			if dep.Shards != p {
				coord.Close()
				continue // serial fallback: nothing elastic to exercise
			}
			sharded++
			// Two serial deployments of the same plan ride along: with
			// sharing enabled they run one prefix chain whenever the plan
			// has a shareable prefix, so the restart also proves shared
			// window state survives the snapshot (warm rebuild, no cold
			// re-attach).
			for _, sname := range []string{"s1", "s2"} {
				if _, err := coord.Deploy(sname, b, CompileOptions{}); err != nil {
					t.Fatalf("seed %d plan %d P=%d: serial ride-along %s: %v", seed, pi, p, sname, err)
				}
			}

			// Random schedule: a handful of rescales, one kill, and (in
			// restart mode) one coordinator restart, at distinct epochs.
			schedule := map[int]string{}
			for i := 0; i < 2+rng.Intn(2); i++ {
				schedule[rng.Intn(len(evs))] = "rescale"
			}
			schedule[rng.Intn(len(evs))] = "kill"
			if restart {
				schedule[rng.Intn(len(evs))] = "restart"
			}
			victim := rng.Intn(len(cl.addrs))

			for i, ev := range evs {
				switch schedule[i] {
				case "rescale":
					if err := coord.Rescale("q", randTopo(rng, alive)); err != nil {
						t.Fatalf("seed %d plan %d P=%d: rescale at event %d: %v", seed, pi, p, i, err)
					}
					rescales++
				case "kill":
					if len(alive) == len(cl.addrs) { // not killed yet
						cl.kill(victim)
						alive = append(alive[:victim], alive[victim+1:]...)
					}
				case "restart":
					if _, err := coord.Save(); err != nil {
						t.Fatalf("seed %d plan %d P=%d: save at event %d: %v", seed, pi, p, i, err)
					}
					coord.Close() // the old coordinator process dies
					eng = stream.NewEngine(fmt.Sprintf("el%d-p%d-r", pi, p), vtime.NewScheduler())
					coord = NewCoordinator(Host{Engine: eng, Sharing: NewSharing(eng)}, path)
					if skipped, err := coord.Restore(); err != nil {
						t.Fatalf("seed %d plan %d P=%d: restore at event %d: %v", seed, pi, p, i, err)
					} else if len(skipped) != 0 {
						t.Fatalf("seed %d plan %d P=%d: restore reported skipped deployments %v", seed, pi, p, skipped)
					}
					var ok bool
					if dep, ok = coord.Deployment("q"); !ok {
						t.Fatalf("seed %d plan %d P=%d: deployment lost across restart", seed, pi, p)
					}
					restarts++
				}
				if ev.tick != 0 {
					eng.Advance(ev.tick)
					continue
				}
				if in, ok := eng.Input(ev.input); ok {
					in.Push(ev.t.Clone())
				}
			}
			got := snapshotSorted(t, dep)
			for _, sname := range []string{"s1", "s2"} {
				sd, ok := coord.Deployment(sname)
				if !ok {
					t.Fatalf("seed %d plan %d P=%d: serial ride-along %s lost", seed, pi, p, sname)
				}
				requireEqualRows(t,
					fmt.Sprintf("seed %d plan %d P=%d shared %s (restart=%v)\nplan: %s", seed, pi, p, sname, restart, root),
					snapshotSorted(t, sd), want)
			}
			coord.Close()
			requireEqualRows(t,
				fmt.Sprintf("seed %d plan %d P=%d (restart=%v)\nplan: %s", seed, pi, p, restart, root),
				got, want)
		}
	}
	t.Logf("seed %d: %d plans, %d sharded elastic runs, %d rescales, %d failovers, %d restarts",
		seed, nPlans, sharded, rescales, failovers, restarts)
	if sharded == 0 {
		t.Fatal("no generated plan sharded; the elastic mode ran vacuously")
	}
	if rescales == 0 {
		t.Fatal("no rescale executed; the elastic mode ran vacuously")
	}
	if restart && restarts == 0 {
		t.Fatal("no coordinator restart executed; the restart mode ran vacuously")
	}
}

// TestShardDifferentialElastic: workers join and leave via live rescales
// (plus one kill) at random epochs; results stay multiset-equal to serial.
func TestShardDifferentialElastic(t *testing.T) {
	if *fuzzElastic <= 0 {
		t.Skip("elastic mode disabled (-fuzzshard.elastic=0)")
	}
	runElasticDifferential(t, *fuzzSeed+10000, *fuzzElastic, false)
}

// TestShardDifferentialJoinLeaveRestart is the full survivability
// differential: workers join, leave, and get killed mid-run AND the
// coordinator restarts from its durable snapshot at a random epoch — the
// combined proof that elastic membership and coordinator rehydration
// compose without losing or duplicating a single tuple.
func TestShardDifferentialJoinLeaveRestart(t *testing.T) {
	if *fuzzElastic <= 0 {
		t.Skip("elastic mode disabled (-fuzzshard.elastic=0)")
	}
	runElasticDifferential(t, *fuzzSeed+11000, *fuzzElastic, true)
}

// TestShardDifferentialJoinLeaveRestartForcedCollisions reruns the
// join/leave/restart differential with every operator hash forced into a
// single collision bucket, so snapshot restore rebuilds collision chains
// in every rehydrated operator.
func TestShardDifferentialJoinLeaveRestartForcedCollisions(t *testing.T) {
	if *fuzzElastic <= 0 {
		t.Skip("elastic mode disabled (-fuzzshard.elastic=0)")
	}
	old := stream.SetTestHashMask(0)
	t.Cleanup(func() { stream.SetTestHashMask(old) })
	n := *fuzzElastic / 2
	if n < 3 {
		n = 3
	}
	runElasticDifferential(t, *fuzzSeed+12000, n, true)
}
