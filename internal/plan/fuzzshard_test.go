package plan

import (
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// Randomized serial-vs-sharded differential harness: generate random
// logical plans (select / project / join / aggregate / distinct over
// random key sets), drive them with identical insert+delete workloads at
// P=1 and P∈{2,4}, and require multiset-equal materialized results. Every
// run is reproducible from the seed:
//
//	go test ./internal/plan -run ShardDifferential -fuzzshard.seed=42 -fuzzshard.n=100
//
// Numeric columns stay small integers (and projections stay in integer
// arithmetic) so SUM/AVG accumulate exactly in float64 — two-phase
// aggregation reassociates additions, which must not introduce rounding
// differences the comparison would flag.
var (
	fuzzSeed  = flag.Int64("fuzzshard.seed", 1, "base PRNG seed for the shard differential harness")
	fuzzN     = flag.Int("fuzzshard.n", 40, "random plans per shard differential run")
	fuzzNodes = flag.Int("fuzzshard.nodes", 2, "loopback shard workers for the multi-node differential mode (0 disables)")
	fuzzKill  = flag.Int("fuzzshard.kill", 8, "random plans per chaos differential run: a worker is killed at a random epoch mid-run and failover must keep the result multiset-equal to serial (0 disables)")
)

// fuzzSource is one generated stream source.
type fuzzSource struct {
	name   string
	schema *data.Schema
}

func fuzzSources() []fuzzSource {
	s1 := data.NewSchema("S1",
		data.Col("a", data.TInt), data.Col("b", data.TInt), data.Col("s", data.TString))
	s1.IsStream = true
	s2 := data.NewSchema("S2",
		data.Col("x", data.TInt), data.Col("y", data.TInt))
	s2.IsStream = true
	return []fuzzSource{{"S1", s1}, {"S2", s2}}
}

// fuzzGen builds random plans bottom-up, tracking which scans it created.
type fuzzGen struct {
	rng     *rand.Rand
	sources []fuzzSource
	nscans  int
	nals    int // computed-column alias counter (aliases must stay unique plan-wide)
	// every also draws the shapes the shard analysis need not take but the
	// compiler must lower exactly: NOW and ROWS windows, selections over
	// most scans, projections that drop columns, residual joins, and
	// SELECT-order reprojections over aggregates.
	every bool
}

// genScan emits a scan over a random source with a random window.
func (g *fuzzGen) genScan() Node {
	src := g.sources[g.rng.Intn(len(g.sources))]
	g.nscans++
	alias := fmt.Sprintf("t%d", g.nscans)
	var w *sql.WindowSpec
	kinds := 3
	if g.every {
		kinds = 5
	}
	switch g.rng.Intn(kinds) {
	case 0: // unwindowed: tuples accumulate
	case 1:
		w = &sql.WindowSpec{Kind: sql.WindowRange, Range: 2 * time.Second}
	case 2:
		w = &sql.WindowSpec{Kind: sql.WindowRange, Range: 5 * time.Second, Slide: time.Second}
	case 3:
		w = &sql.WindowSpec{Kind: sql.WindowNow}
	case 4:
		w = &sql.WindowSpec{Kind: sql.WindowRows, Rows: 1 + g.rng.Intn(6)}
	}
	return NewScan(src.name, alias, src.schema, w, 10, false)
}

// intCols lists the integer columns of a node's schema.
func intCols(n Node) []string {
	var out []string
	for _, c := range n.Schema().Cols {
		if c.Type == data.TInt {
			out = append(out, c.QName())
		}
	}
	return out
}

// genScalar returns a random deterministic integer expression over col.
func (g *fuzzGen) genScalar(col string) expr.Expr {
	c := expr.C(col)
	switch g.rng.Intn(4) {
	case 0:
		return expr.Bin{Op: expr.OpAdd, L: c, R: expr.L(g.rng.Intn(3) + 1)}
	case 1:
		return expr.Bin{Op: expr.OpMul, L: c, R: expr.L(2)}
	case 2:
		return expr.Bin{Op: expr.OpMod, L: c, R: expr.L(g.rng.Intn(3) + 2)}
	default:
		return expr.Call{Name: "abs", Args: []expr.Expr{c}}
	}
}

// genUnary maybe wraps n in selects / projects.
func (g *fuzzGen) genUnary(n Node) Node {
	if ints := intCols(n); len(ints) > 0 && (g.rng.Intn(3) == 0 || g.every && g.rng.Intn(2) == 0) {
		pred := expr.Bin{Op: expr.OpGe, L: expr.C(ints[g.rng.Intn(len(ints))]),
			R: expr.L(g.rng.Intn(3) - 1)}
		n = &Select{In: n, Pred: pred}
	}
	if g.rng.Intn(3) == 0 {
		var items []stream.ProjectItem
		for _, c := range n.Schema().Cols {
			ref := c.QName()
			if c.Type == data.TInt && g.rng.Intn(3) == 0 {
				g.nals++
				items = append(items, stream.ProjectItem{
					Expr: g.genScalar(ref), Alias: fmt.Sprintf("e%d", g.nals)})
			} else if !g.every || g.rng.Intn(3) > 0 {
				items = append(items, stream.ProjectItem{Expr: expr.C(ref)})
			}
		}
		if len(items) == 0 {
			items = append(items, stream.ProjectItem{Expr: expr.C(n.Schema().Cols[0].QName())})
		}
		p, err := NewProject(n, items)
		if err == nil {
			n = p
		}
	}
	return n
}

// genTree builds the select/project/join layer.
func (g *fuzzGen) genTree(depth int) Node {
	if depth <= 0 || g.rng.Intn(3) > 0 && (!g.every || g.rng.Intn(2) == 0) {
		return g.genUnary(g.genScan())
	}
	l := g.genTree(depth - 1)
	r := g.genTree(depth - 1)
	li, ri := intCols(l), intCols(r)
	if len(li) == 0 || len(ri) == 0 {
		return g.genUnary(l)
	}
	lk, rk := []string{li[g.rng.Intn(len(li))]}, []string{ri[g.rng.Intn(len(ri))]}
	var residual expr.Expr
	if g.every && g.rng.Intn(2) == 0 {
		op := []expr.BinOp{expr.OpLe, expr.OpNe, expr.OpGt}[g.rng.Intn(3)]
		residual = expr.Bin{Op: op, L: expr.C(li[g.rng.Intn(len(li))]), R: expr.C(ri[g.rng.Intn(len(ri))])}
	}
	return g.genUnary(NewJoin(l, r, lk, rk, residual))
}

// genPlan builds a full random plan: tree, then optionally an aggregate
// (random key set, possibly empty = global; random spec mix), then
// optionally DISTINCT over a projection.
func (g *fuzzGen) genPlan() Node {
	n := g.genTree(2)
	if g.rng.Intn(2) == 0 {
		cols := n.Schema().Cols
		var groupBy []string
		for _, c := range cols {
			if len(groupBy) < 2 && g.rng.Intn(3) == 0 {
				groupBy = append(groupBy, c.QName())
			}
		}
		var specs []stream.AggSpec
		specs = append(specs, stream.AggSpec{Kind: stream.AggCount, Alias: "cnt"})
		if ints := intCols(n); len(ints) > 0 {
			kinds := []stream.AggKind{stream.AggSum, stream.AggAvg, stream.AggMin, stream.AggMax}
			for i := 0; i < 1+g.rng.Intn(2); i++ {
				specs = append(specs, stream.AggSpec{
					Kind:  kinds[g.rng.Intn(len(kinds))],
					Arg:   expr.C(ints[g.rng.Intn(len(ints))]),
					Alias: fmt.Sprintf("agg%d", i),
				})
			}
		}
		agg, err := NewAggregate(n, groupBy, specs, nil)
		if err == nil {
			n = agg
		}
		if g.every && err == nil && g.rng.Intn(2) == 0 {
			// buildFlat's reprojection to SELECT order, already that order
			var items []stream.ProjectItem
			for _, c := range agg.Schema().Cols {
				items = append(items, stream.ProjectItem{Expr: expr.C(c.QName())})
			}
			if p, err := NewProject(agg, items); err == nil {
				n = p
			}
		}
	}
	if g.rng.Intn(3) == 0 {
		n = g.genUnary(n)
		n = &Distinct{In: n}
	}
	return n
}

// fuzzWorkload generates one deterministic insert+delete tuple sequence
// per source; every engine replays the same sequence.
type fuzzEvent struct {
	input string
	t     data.Tuple
	tick  vtime.Time // when non-zero, advance the engine clock instead
}

func genWorkload(rng *rand.Rand, sources []fuzzSource, n int) []fuzzEvent {
	var evs []fuzzEvent
	live := map[string][]data.Tuple{}
	val := func() data.Value {
		if rng.Intn(10) == 0 {
			return data.Null
		}
		return data.Int(int64(rng.Intn(5)))
	}
	ts := vtime.Time(0)
	for i := 0; i < n; i++ {
		ts += vtime.Time(50 * time.Millisecond)
		if rng.Intn(40) == 0 {
			// occasional idle gap: tick-driven window expiry
			ts += vtime.Time(3 * time.Second)
			evs = append(evs, fuzzEvent{tick: ts})
			continue
		}
		src := sources[rng.Intn(len(sources))]
		if lv := live[src.name]; len(lv) > 0 && rng.Intn(4) == 0 {
			k := rng.Intn(len(lv))
			del := lv[k].Negate()
			del.TS = ts
			lv[k] = lv[len(lv)-1]
			live[src.name] = lv[:len(lv)-1]
			evs = append(evs, fuzzEvent{input: src.name, t: del})
			continue
		}
		vals := make([]data.Value, src.schema.Arity())
		for j, c := range src.schema.Cols {
			if c.Type == data.TString {
				vals[j] = data.Str(fmt.Sprintf("s%d", rng.Intn(3)))
			} else {
				vals[j] = val()
			}
		}
		tu := data.Tuple{Vals: vals, TS: ts}
		live[src.name] = append(live[src.name], tu)
		evs = append(evs, fuzzEvent{input: src.name, t: tu})
	}
	// final drain tick so every window empties identically
	evs = append(evs, fuzzEvent{tick: ts + vtime.Time(10*time.Second)})
	return evs
}

// replay drives the workload into one engine (cloning tuples: operators
// retain pushed Vals) and snapshots the deployment.
func replay(t *testing.T, dep *Deployment, eng *stream.Engine, evs []fuzzEvent) []data.Tuple {
	t.Helper()
	for _, ev := range evs {
		if ev.tick != 0 {
			eng.Advance(ev.tick)
			continue
		}
		in, ok := eng.Input(ev.input)
		if !ok {
			continue // plan does not scan this source
		}
		in.Push(ev.t.Clone())
	}
	rows, err := dep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	stream.SortTuples(rows)
	return rows
}

// runShardDifferential generates nPlans random plans from seed and checks
// sharded P∈{2,4} against serial on each. With a node list, the sharded
// deployments distribute their replicas over those shard workers — the
// multi-node differential mode. It reports how many plans actually
// sharded / two-phased so a regression to pervasive serial fallback fails
// loudly rather than passing vacuously.
func runShardDifferential(t *testing.T, seed int64, nPlans int, nodes []string) {
	sources := fuzzSources()
	sharded, twoPhase := 0, 0
	for pi := 0; pi < nPlans; pi++ {
		rng := rand.New(rand.NewSource(seed + int64(pi)))
		g := &fuzzGen{rng: rng, sources: sources}
		root := g.genPlan()
		b := &Built{Root: root, Limit: -1}
		evs := genWorkload(rng, sources, 300)

		deploy := func(par int) (*Deployment, *stream.Engine) {
			eng := stream.NewEngine(fmt.Sprintf("fz%d-p%d", pi, par), vtime.NewScheduler())
			opts := CompileOptions{Topology: Topology{Parallelism: par}}
			if par > 0 {
				opts.Nodes = nodes
			}
			dep, err := CompileStreamOpts(b, Host{Engine: eng}, opts)
			if err != nil {
				t.Fatalf("seed %d plan %d: compile P=%d: %v\nplan: %s", seed, pi, par, err, root)
			}
			return dep, eng
		}

		sdep, seng := deploy(0)
		want := replay(t, sdep, seng, evs)
		for _, p := range []int{2, 4} {
			dep, eng := deploy(p)
			got := replay(t, dep, eng, evs)
			if dep.Shards == p {
				sharded++
				if dep.TwoPhase {
					twoPhase++
				}
			}
			dep.Close()
			if len(got) != len(want) {
				t.Fatalf("seed %d plan %d P=%d (shards=%d twophase=%v): %d rows, want %d\nplan: %s\ngot:  %v\nwant: %v",
					seed, pi, p, dep.Shards, dep.TwoPhase, len(got), len(want), root, got, want)
			}
			for i := range want {
				if !got[i].EqualVals(want[i]) {
					t.Fatalf("seed %d plan %d P=%d (shards=%d twophase=%v): row %d = %v, want %v\nplan: %s",
						seed, pi, p, dep.Shards, dep.TwoPhase, i, got[i], want[i], root)
				}
			}
		}
	}
	t.Logf("seed %d: %d plans, %d/%d sharded deployments (%d two-phase)",
		seed, nPlans, sharded, 2*nPlans, twoPhase)
	if sharded < nPlans/2 {
		t.Fatalf("only %d of %d deployments sharded; the generator or analysis regressed", sharded, 2*nPlans)
	}
	if twoPhase == 0 {
		t.Fatal("no generated plan exercised the two-phase path")
	}
}

// TestShardDifferentialRandomPlans is the main randomized differential
// run; tune with -fuzzshard.seed / -fuzzshard.n.
func TestShardDifferentialRandomPlans(t *testing.T) {
	runShardDifferential(t, *fuzzSeed, *fuzzN, nil)
}

// TestShardDifferentialForcedCollisions reruns a slice of the differential
// harness with every operator hash forced into one collision bucket
// (testHashMask = 0), covering bucket-verification paths in the sharded
// and two-phase operators.
func TestShardDifferentialForcedCollisions(t *testing.T) {
	old := stream.SetTestHashMask(0)
	t.Cleanup(func() { stream.SetTestHashMask(old) })
	n := *fuzzN / 4
	if n < 5 {
		n = 5
	}
	runShardDifferential(t, *fuzzSeed+1000, n, nil)
}

// startWorkers launches n in-process shard workers on loopback TCP and
// returns their addresses. In-process workers keep the whole protocol —
// coordinator and replicas — under one race detector and one test hash
// mask; TestDistributedWorkerProcesses covers real worker processes.
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		w, err := NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
	}
	return addrs
}

// TestShardDifferentialMultiNode is the multi-node differential mode:
// random plans deploy their shard replicas across -fuzzshard.nodes
// loopback workers and must stay multiset-identical to serial execution.
func TestShardDifferentialMultiNode(t *testing.T) {
	if *fuzzNodes <= 0 {
		t.Skip("multi-node mode disabled (-fuzzshard.nodes=0)")
	}
	n := *fuzzN / 2
	if n < 10 {
		n = 10
	}
	runShardDifferential(t, *fuzzSeed+2000, n, startWorkers(t, *fuzzNodes))
}

// TestShardDifferentialMultiNodeForcedCollisions is the multi-node mode
// under the forced collision mask; in-process workers share the mask, so
// the remote replicas' bucket-verification paths are exercised too.
func TestShardDifferentialMultiNodeForcedCollisions(t *testing.T) {
	if *fuzzNodes <= 0 {
		t.Skip("multi-node mode disabled (-fuzzshard.nodes=0)")
	}
	old := stream.SetTestHashMask(0)
	t.Cleanup(func() { stream.SetTestHashMask(old) })
	n := *fuzzN / 4
	if n < 10 {
		n = 10 // enough plans that the two-phase guard cannot trip vacuously
	}
	runShardDifferential(t, *fuzzSeed+3000, n, startWorkers(t, *fuzzNodes))
}

// TestShardDifferentialMixedLocalRemote pins one replica in-process and
// the rest on a worker ("" entries in the topology mix local and remote
// shards in one deployment).
func TestShardDifferentialMixedLocalRemote(t *testing.T) {
	if *fuzzNodes <= 0 {
		t.Skip("multi-node mode disabled (-fuzzshard.nodes=0)")
	}
	addrs := startWorkers(t, 1)
	runShardDifferential(t, *fuzzSeed+4000, 10, []string{"", addrs[0]})
}

// ---- chaos mode: kill a worker mid-run, failover must keep exactness ----

// chaosCluster is one disposable set of shard workers the chaos harness
// can kill mid-run: in-process loopback workers (Close severs every
// replica, the in-process equivalent of SIGKILL) or real shardworker
// processes killed with the actual signal.
type chaosCluster struct {
	addrs []string
	kill  func(i int)
	// settle, when set, runs after the replay, before the final snapshot: a
	// kill that only arms a cut makes sure by then that the link is down.
	settle func(dep *Deployment)
}

func startKillableWorkers(t *testing.T, n int) chaosCluster {
	t.Helper()
	ws := make([]*stream.ShardWorker, n)
	addrs := make([]string, n)
	for i := range ws {
		w, err := NewWorker("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ws[i] = w
		addrs[i] = w.Addr()
		t.Cleanup(func() { w.Close() })
	}
	return chaosCluster{addrs: addrs, kill: func(i int) { ws[i].Close() }}
}

// runChaosDifferential is the chaos differential: each random plan runs
// serially for the reference result, then sharded at P∈{2,4} with every
// replica on a cluster worker and failover armed; at a random event index
// mid-replay one random worker is killed. The final materialized output
// must stay multiset-equal to the serial run and Deployment.Flush (inside
// Snapshot) must still be an exact barrier. The run fails if no deployment
// actually failed over (the chaos would be vacuous) or if any failover
// abandoned its shards.
func runChaosDifferential(t *testing.T, seed int64, nPlans int, cluster func(t *testing.T) chaosCluster) {
	sources := fuzzSources()
	sharded, failovers := 0, 0
	for pi := 0; pi < nPlans; pi++ {
		rng := rand.New(rand.NewSource(seed + int64(pi)))
		g := &fuzzGen{rng: rng, sources: sources}
		root := g.genPlan()
		b := &Built{Root: root, Limit: -1}
		evs := genWorkload(rng, sources, 300)

		seng := stream.NewEngine(fmt.Sprintf("chaos%d-serial", pi), vtime.NewScheduler())
		sdep, err := CompileStreamOpts(b, Host{Engine: seng}, CompileOptions{})
		if err != nil {
			t.Fatalf("seed %d plan %d: serial compile: %v", seed, pi, err)
		}
		want := replay(t, sdep, seng, evs)

		for _, p := range []int{2, 4} {
			// A fresh cluster per run: previous runs killed their workers.
			cl := cluster(t)
			var events []stream.FailoverEvent
			var emu sync.Mutex
			eng := stream.NewEngine(fmt.Sprintf("chaos%d-p%d", pi, p), vtime.NewScheduler())
			dep, err := CompileStreamOpts(b, Host{Engine: eng}, CompileOptions{
				Topology: failoverTopology(p, cl.addrs, 1+rng.Intn(3)),
				OnFailover: func(ev stream.FailoverEvent) {
					emu.Lock()
					events = append(events, ev)
					emu.Unlock()
				},
			})
			if err != nil {
				t.Fatalf("seed %d plan %d: chaos compile P=%d: %v\nplan: %s", seed, pi, p, err, root)
			}
			if dep.Shards != p {
				dep.Close() // serial fallback: nothing to kill
				continue
			}
			sharded++
			killAt := rng.Intn(len(evs))
			victim := rng.Intn(len(cl.addrs))
			for i, ev := range evs {
				if i == killAt {
					cl.kill(victim)
				}
				if ev.tick != 0 {
					eng.Advance(ev.tick)
					continue
				}
				if in, ok := eng.Input(ev.input); ok {
					in.Push(ev.t.Clone())
				}
			}
			if cl.settle != nil {
				cl.settle(dep)
			}
			got, err := dep.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			stream.SortTuples(got)
			emu.Lock()
			evCopy := append([]stream.FailoverEvent(nil), events...)
			emu.Unlock()
			for _, ev := range evCopy {
				failovers++
				if ev.Err != nil {
					t.Fatalf("seed %d plan %d P=%d: failover abandoned shards %v: %v",
						seed, pi, p, ev.Shards, ev.Err)
				}
			}
			if len(evCopy) == 0 {
				t.Fatalf("seed %d plan %d P=%d: worker killed at event %d but no failover ran",
					seed, pi, p, killAt)
			}
			dep.Close()
			if len(got) != len(want) {
				t.Fatalf("seed %d plan %d P=%d (kill@%d, %d failovers): %d rows, want %d\nplan: %s\ngot:  %v\nwant: %v",
					seed, pi, p, killAt, len(evCopy), len(got), len(want), root, got, want)
			}
			for i := range want {
				if !got[i].EqualVals(want[i]) {
					t.Fatalf("seed %d plan %d P=%d (kill@%d): row %d = %v, want %v\nplan: %s",
						seed, pi, p, killAt, i, got[i], want[i], root)
				}
			}
		}
	}
	t.Logf("seed %d: %d plans, %d sharded chaos runs, %d failovers", seed, nPlans, sharded, failovers)
	if sharded == 0 {
		t.Fatal("no generated plan sharded; the chaos mode ran vacuously")
	}
}

// TestShardDifferentialChaosKill is the chaos differential over two
// workers: the surviving worker (or the coordinator process) must absorb
// the killed worker's shards from their last checkpoint.
func TestShardDifferentialChaosKill(t *testing.T) {
	if *fuzzKill <= 0 {
		t.Skip("chaos mode disabled (-fuzzshard.kill=0)")
	}
	runChaosDifferential(t, *fuzzSeed+6000, *fuzzKill,
		func(t *testing.T) chaosCluster { return startKillableWorkers(t, 2) })
}

// TestShardDifferentialChaosKillLastWorker runs the chaos differential
// with a single worker: killing it leaves no remote candidate, so every
// shard must fail over in-process (the last-resort path).
func TestShardDifferentialChaosKillLastWorker(t *testing.T) {
	if *fuzzKill <= 0 {
		t.Skip("chaos mode disabled (-fuzzshard.kill=0)")
	}
	n := *fuzzKill / 2
	if n < 4 {
		n = 4
	}
	runChaosDifferential(t, *fuzzSeed+7000, n,
		func(t *testing.T) chaosCluster { return startKillableWorkers(t, 1) })
}

// TestShardDifferentialChaosCoalescedFrameCut runs the chaos differential
// with each worker behind a frame relay, and the kill cuts a link right
// after a result frame that carries several rows — one replica call's
// coalesced output — before the credit ack written behind it arrives. The
// coordinator holds that frame's rows in its undo log but never learns that
// the data frame producing them was processed; failover must retract them
// and replay the frame. The exchange ships data only at a tick, a barrier
// or a full batch, so the replay's last tick may still have its result
// frames in flight when the replay ends: settling flushes the deployment
// first, which lets them pass the armed relay, and a cut still armed after
// that (no such frame followed the kill) severs the link there.
func TestShardDifferentialChaosCoalescedFrameCut(t *testing.T) {
	if *fuzzKill <= 0 {
		t.Skip("chaos mode disabled (-fuzzshard.kill=0)")
	}
	var relays []*frameRelay
	runChaosDifferential(t, *fuzzSeed+11000, *fuzzKill, func(t *testing.T) chaosCluster {
		cl := startKillableWorkers(t, 2)
		rs := make([]*frameRelay, len(cl.addrs))
		addrs := make([]string, len(cl.addrs))
		for i, a := range cl.addrs {
			rs[i] = startRelay(t, a)
			addrs[i] = rs[i].addr()
		}
		relays = append(relays, rs...)
		return chaosCluster{addrs: addrs,
			kill: func(i int) { rs[i].armCut(2) },
			settle: func(dep *Deployment) {
				dep.Flush()
				for _, r := range rs {
					if r.cutAt.Load() > 0 {
						r.sever()
					}
				}
			}}
	})
	cuts := int64(0)
	for _, r := range relays {
		cuts += r.cuts.Load()
	}
	t.Logf("%d cuts between a coalesced result frame and its ack", cuts)
	if cuts == 0 {
		t.Fatal("no kill landed between a coalesced result frame and its ack")
	}
}

// TestShardDifferentialChaosKillForcedCollisions reruns the chaos
// differential with every operator hash forced into one collision bucket,
// so checkpoint restore rebuilds collision buckets too.
func TestShardDifferentialChaosKillForcedCollisions(t *testing.T) {
	if *fuzzKill <= 0 {
		t.Skip("chaos mode disabled (-fuzzshard.kill=0)")
	}
	old := stream.SetTestHashMask(0)
	t.Cleanup(func() { stream.SetTestHashMask(old) })
	n := *fuzzKill / 2
	if n < 4 {
		n = 4
	}
	runChaosDifferential(t, *fuzzSeed+8000, n,
		func(t *testing.T) chaosCluster { return startKillableWorkers(t, 2) })
}
