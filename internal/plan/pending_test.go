package plan

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// The pending-batch differential. An exchange keeps a worker-hosted shard's
// batch across PushBatch calls and ships it at the set's next tick,
// barrier, checkpoint, close or full batch; an in-process shard's ships at
// the end of each call (stream.Sharder.PushBatch). These runs push the
// workload as several batches between ticks, and stop at random points
// where batches were pushed since the last tick to flush, save and restore
// the coordinator, rescale and kill a worker; the run ends with batches
// pushed since the last tick and closes the deployment. After every tick,
// every flush, every restore and the close, the result must be
// multiset-equal to serial.
//
// Every tuple pushed between two ticks carries the time of the tick before
// it. A time window expires what a newer tuple pushes out as well as what a
// tick does, and a sharded window sees only its shard's tuples, so with
// later stamps a shard would expire less than serial between ticks. Stamped
// this way, a tuple expires nothing the tick did not, and the comparison
// holds at every point, not only at ticks.

// pendingStep is one step of a batched workload: a batch for one input, or
// (tick set) a clock advance.
type pendingStep struct {
	input string
	batch []data.Tuple
	tick  vtime.Time
}

// pendingSteps turns evs into steps. The workload's idle-gap ticks advance
// the clock 3 s, and a 1 s tick falls before about one event in ten; each
// run of 1–12 events between ticks becomes one batch per input, in order of
// first appearance, stamped with the last tick's time. The final drain tick
// is dropped, so the steps after the last tick are pushed and left pending.
func pendingSteps(rng *rand.Rand, evs []fuzzEvent) []pendingStep {
	var steps []pendingStep
	now := vtime.Time(vtime.Second)
	tick := func(d vtime.Time) {
		now += d
		steps = append(steps, pendingStep{tick: now})
	}
	evs = evs[:len(evs)-1]
	for i := 0; i < len(evs); {
		if evs[i].tick != 0 {
			tick(3 * vtime.Second)
			i++
			continue
		}
		if rng.Intn(10) == 0 {
			tick(vtime.Second)
		}
		at := map[string]int{}
		for end := i + 1 + rng.Intn(12); i < len(evs) && i < end && evs[i].tick == 0; i++ {
			ev := evs[i]
			k, ok := at[ev.input]
			if !ok {
				k = len(steps)
				at[ev.input] = k
				steps = append(steps, pendingStep{input: ev.input})
			}
			tu := ev.t.Clone()
			tu.TS = now
			steps[k].batch = append(steps[k].batch, tu)
		}
	}
	return steps
}

// push applies one batch step to eng (cloning: operators keep pushed Vals)
// and reports whether the deployment scans its input.
func (s pendingStep) push(eng *stream.Engine) bool {
	in, ok := eng.Input(s.input)
	if !ok {
		return false
	}
	b := make([]data.Tuple, len(s.batch))
	for i, t := range s.batch {
		b[i] = t.Clone()
	}
	in.PushBatch(b)
	return true
}

// runPendingDifferential runs nPlans random plans from seed serially and
// sharded at P∈{2,4} through a Coordinator, in-process or (remote) with
// every shard on one of two loopback workers and checkpointed failover
// armed. Each sharded run takes its control actions at batch steps before
// the last tick: in-process a flush and a save+restore, remote also a
// rescale and a worker kill. It fails if no action found a batch pushed
// since the last tick, which would make the run vacuous.
func runPendingDifferential(t *testing.T, seed int64, nPlans int, remote bool) {
	sources := fuzzSources()
	sharded, held := 0, 0
	for pi := 0; pi < nPlans; pi++ {
		rng := rand.New(rand.NewSource(seed + int64(pi)))
		g := &fuzzGen{rng: rng, sources: sources}
		root := g.genPlan()
		b := &Built{Root: root, Limit: -1}
		steps := pendingSteps(rng, genWorkload(rng, sources, 300))
		lastTick := 0
		for i, s := range steps {
			if s.tick != 0 {
				lastTick = i
			}
		}

		for _, p := range []int{2, 4} {
			ctx := fmt.Sprintf("seed %d plan %d P=%d remote=%t", seed, pi, p, remote)
			seng := stream.NewEngine(fmt.Sprintf("pend%d-serial", pi), vtime.NewScheduler())
			sdep, err := CompileStreamOpts(b, Host{Engine: seng}, CompileOptions{})
			if err != nil {
				t.Fatalf("%s: serial compile: %v", ctx, err)
			}
			topo := Topology{Parallelism: p}
			actions := []string{"flush", "save"}
			var cl chaosCluster
			var alive []string
			if remote {
				cl = startKillableWorkers(t, 2)
				alive = append(alive, cl.addrs...)
				topo = failoverTopology(p, alive[:1], 1+rng.Intn(3))
				actions = append(actions, "rescale", "kill")
			}
			path := filepath.Join(t.TempDir(), "coord.snap")
			eng := stream.NewEngine(fmt.Sprintf("pend%d-p%d", pi, p), vtime.NewScheduler())
			coord := NewCoordinator(Host{Engine: eng}, path)
			dep, err := coord.Deploy("q", b, CompileOptions{Topology: topo})
			if err != nil {
				t.Fatalf("%s: compile: %v\nplan: %s", ctx, err, root)
			}
			if dep.Shards != p {
				coord.Close()
				continue // serial fallback: nothing is pending anywhere
			}
			sharded++
			schedule := map[int]string{}
			for _, a := range actions {
				for tries := 0; tries < 100; tries++ {
					if i := rng.Intn(lastTick + 1); steps[i].tick == 0 && schedule[i] == "" {
						schedule[i] = a
						break
					}
				}
			}
			compare := func(at string) {
				t.Helper()
				requireEqualRows(t, fmt.Sprintf("%s: %s\nplan: %s", ctx, at, root),
					snapshotSorted(t, dep), snapshotSorted(t, sdep))
			}
			pushed := false // a scanned input was pushed since the last tick
			for i, s := range steps {
				if s.tick != 0 {
					seng.Advance(s.tick)
					eng.Advance(s.tick)
					pushed = false
					compare(fmt.Sprintf("tick at step %d", i))
					continue
				}
				s.push(seng)
				pushed = s.push(eng) || pushed
				a := schedule[i]
				if a != "" && pushed {
					held++
				}
				switch a {
				case "flush":
					compare(fmt.Sprintf("flush at step %d", i))
				case "save":
					if _, err := coord.Save(); err != nil {
						t.Fatalf("%s: save at step %d: %v", ctx, i, err)
					}
					coord.Close()
					eng = stream.NewEngine(fmt.Sprintf("pend%d-p%d-r", pi, p), vtime.NewScheduler())
					coord = NewCoordinator(Host{Engine: eng}, path)
					if _, err := coord.Restore(); err != nil {
						t.Fatalf("%s: restore at step %d: %v", ctx, i, err)
					}
					var ok bool
					if dep, ok = coord.Deployment("q"); !ok {
						t.Fatalf("%s: deployment lost across restore", ctx)
					}
					pushed = false
					compare(fmt.Sprintf("restore at step %d", i))
				case "rescale":
					if err := coord.Rescale("q", randTopo(rng, alive)); err != nil {
						t.Fatalf("%s: rescale at step %d: %v", ctx, i, err)
					}
				case "kill":
					victim := rng.Intn(len(alive))
					for k, a := range cl.addrs {
						if a == alive[victim] {
							cl.kill(k)
						}
					}
					alive = append(alive[:victim:victim], alive[victim+1:]...)
				}
			}
			// The run ends with batches pushed since the last tick: Close
			// must ship them before it tears the shards down.
			if pushed {
				held++
			}
			dep.Close()
			got, err := dep.Result.Snapshot(dep.OrderBy, dep.Limit)
			if err != nil {
				t.Fatal(err)
			}
			stream.SortTuples(got)
			requireEqualRows(t, fmt.Sprintf("%s: after close\nplan: %s", ctx, root), got, snapshotSorted(t, sdep))
			coord.Close()
		}
	}
	t.Logf("seed %d: %d plans, %d sharded runs, %d actions and closes with batches pending", seed, nPlans, sharded, held)
	if sharded == 0 || held == 0 {
		t.Fatalf("%d sharded runs, %d actions with batches pending: the differential ran vacuously", sharded, held)
	}
}

// TestShardDifferentialPendingBatches runs the pending-batch differential
// with every shard in-process, where nothing stays pending past a call: it
// checks that several calls between ticks match serial there too; tune with
// -fuzzshard.seed / -fuzzshard.n.
func TestShardDifferentialPendingBatches(t *testing.T) {
	runPendingDifferential(t, *fuzzSeed+13000, max(*fuzzN/5, 4), false)
}

// TestShardDifferentialPendingBatchesRemote runs it with every shard on a
// loopback worker, failover armed, adding a rescale and a worker kill.
func TestShardDifferentialPendingBatchesRemote(t *testing.T) {
	runPendingDifferential(t, *fuzzSeed+14000, max(*fuzzN/5, 4), true)
}

// TestShardedChangesReachResultWithoutFlush pins when a sharded result
// changes for a consumer that never ticks or flushes — a display's
// OnChange hook. In process, a push's change arrives on its own; on a
// worker, once the shard's batch fills (the exchange writes a full batch at
// once), and otherwise at the next tick.
func TestShardedChangesReachResultWithoutFlush(t *testing.T) {
	wk, err := NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wk.Close() })
	for _, c := range []struct {
		name  string
		nodes []string
	}{{"in-process", nil}, {"worker", []string{wk.Addr()}}} {
		t.Run(c.name, func(t *testing.T) {
			p := compileRemoteJoinAgg(t, 2, c.nodes, false)
			changed := make(chan struct{}, 1)
			p.dep.Result.ChainOnChange(func() {
				select {
				case changed <- struct{}{}:
				default:
				}
			})
			await := func(what string, within time.Duration, want bool) {
				t.Helper()
				select {
				case <-changed:
					if !want {
						t.Fatalf("%s: the result changed", what)
					}
				case <-time.After(within):
					if want {
						t.Fatalf("%s: the result did not change in %v", what, within)
					}
				}
			}
			var g epochGen
			g.feed(p.l, p.r)
			if c.nodes == nil {
				await("one push, in process", 10*time.Second, true)
				return
			}
			await("one push, on a worker", 100*time.Millisecond, false)
			p.eng.Advance(g.ts)
			await("the tick after one push", 10*time.Second, true)
			p.dep.Flush()
			select {
			case <-changed:
			default:
			}
			// 24 epochs route at least 768 tuples per input to the shard
			// that owns half the keys or more: full batches on both sides.
			for range 24 {
				g.feed(p.l, p.r)
			}
			await("full batches, on a worker", 10*time.Second, true)
		})
	}
}
