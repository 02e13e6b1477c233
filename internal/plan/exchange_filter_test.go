package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// shipCounter counts the tuples a shard worker's replica heads are pushed,
// by head name — what the coordinator's exchanges shipped.
type shipCounter struct {
	mu sync.Mutex
	n  map[string]*atomic.Int64
}

func (c *shipCounter) of(name string) *atomic.Int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n[name] == nil {
		c.n[name] = new(atomic.Int64)
	}
	return c.n[name]
}

// countingHead counts what it forwards.
type countingHead struct {
	stream.Operator
	n *atomic.Int64
}

func (h *countingHead) PushBatch(ts []data.Tuple) {
	h.n.Add(int64(len(ts)))
	h.Operator.PushBatch(ts)
}

// startCountingWorker starts a loopback shard worker that runs plan's own
// replicas and counts the tuples arriving at each replica head.
func startCountingWorker(t *testing.T) (*stream.ShardWorker, *shipCounter) {
	t.Helper()
	counts := &shipCounter{n: map[string]*atomic.Int64{}}
	w, err := stream.NewShardWorker("127.0.0.1:0", func(spec []byte, shard int, state []byte, send stream.ResultSender) (map[string]stream.Operator, []stream.Advancer, []stream.Checkpointer, error) {
		heads, advs, cks, err := (*SensorHosts)(nil).DeployReplica(spec, shard, state, send)
		for name, h := range heads {
			heads[name] = &countingHead{Operator: h, n: counts.of(name)}
		}
		return heads, advs, cks, err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, counts
}

func kvSchema(name string) *data.Schema {
	s := data.NewSchema(name, data.Col("k", data.TInt), data.Col("v", data.TInt))
	s.IsStream = true
	return s
}

// A sharded deployment over a worker ships only the tuples a selection
// directly over their scan admits — over a RANGE, a NOW or no window — and
// everything of a scan with no selection over it, and of a table. Close
// unsubscribes the filters it subscribed.
func TestShardedSelectionRoutesOnlyAdmitted(t *testing.T) {
	rng := &sql.WindowSpec{Kind: sql.WindowRange, Range: 10 * time.Second}
	now := &sql.WindowSpec{Kind: sql.WindowNow}
	for _, c := range []struct {
		name    string
		left    *Scan // a selection a.v < 2 sits over it; the right side has none
		admitIn bool  // whether the left exchange ships only admitted tuples
	}{
		{"range", NewScan("A", "a", kvSchema("A"), rng, 10, false), true},
		{"now", NewScan("A", "a", kvSchema("A"), now, 10, false), true},
		{"unwindowed", NewScan("A", "a", kvSchema("A"), nil, 10, false), true},
		{"table", NewScan("A", "a", kvSchema("A"), nil, 10, true), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			w, shipped := startCountingWorker(t)
			left := &Select{In: c.left, Pred: expr.Bin{Op: expr.OpLt, L: expr.C("a.v"), R: expr.L(2)}}
			right := NewScan("B", "b", kvSchema("B"), rng, 10, false)
			root := NewJoin(left, right, []string{"a.k"}, []string{"b.k"}, nil)
			eng := stream.NewEngine("routes", vtime.NewScheduler())
			dep, err := CompileStreamOpts(&Built{Root: root, Limit: -1}, Host{Engine: eng},
				CompileOptions{Topology: Topology{Parallelism: 2, Nodes: []string{w.Addr()}}})
			if err != nil {
				t.Fatal(err)
			}
			if dep.Shards != 2 {
				t.Fatalf("deployed %d shards, want 2", dep.Shards)
			}
			a, _ := eng.Input("A")
			b, _ := eng.Input("B")
			var as, bs []data.Tuple
			admitted := 0
			for i := range 100 {
				v := i % 8
				if v < 2 {
					admitted++
				}
				ts := vtime.Time(i) * vtime.Time(time.Millisecond)
				as = append(as, data.NewTuple(ts, data.Int(int64(i%5)), data.Int(int64(v))))
				bs = append(bs, data.NewTuple(ts, data.Int(int64(i%5)), data.Int(int64(v))))
			}
			a.PushBatch(as)
			b.PushBatch(bs)
			dep.Flush()
			want := int64(len(as))
			if c.admitIn {
				want = int64(admitted)
			}
			if got := shipped.of(scanName(0)).Load(); got != want {
				t.Errorf("the selected scan's exchange shipped %d of %d tuples, want %d", got, len(as), want)
			}
			if got := shipped.of(scanName(1)).Load(); got != int64(len(bs)) {
				t.Errorf("the unselected scan's exchange shipped %d of %d tuples, want all", got, len(bs))
			}
			// A NOW window retracts what it admits at once, so only the others
			// leave rows to see.
			if rows, err := dep.Snapshot(); err != nil || len(rows) == 0 != (c.left.Window == now) {
				t.Fatalf("the join materialized %d rows (%v)", len(rows), err)
			}
			dep.Close()
			if n := a.Subscribers() + b.Subscribers(); n != 0 {
				t.Errorf("after Close the inputs keep %d subscribers", n)
			}
		})
	}
}

// Only a selection directly over a stream scan with a time window, or none,
// runs ahead of the exchange: never over a ROWS window (whose last-n the
// filter would change — such a plan does not shard at all), a table, a scan
// a sensor fragment feeds, or a scan under another operator.
func TestShardedSelectionFiltersAhead(t *testing.T) {
	pred := expr.Bin{Op: expr.OpLt, L: expr.C("a.v"), R: expr.L(2)}
	for _, c := range []struct {
		name string
		w    *sql.WindowSpec
		tbl  bool
		want bool
	}{
		{"range", &sql.WindowSpec{Kind: sql.WindowRange, Range: time.Second}, false, true},
		{"slide", &sql.WindowSpec{Kind: sql.WindowRange, Range: 5 * time.Second, Slide: time.Second}, false, true},
		{"now", &sql.WindowSpec{Kind: sql.WindowNow}, false, true},
		{"unwindowed", nil, false, true},
		{"rows", &sql.WindowSpec{Kind: sql.WindowRows, Rows: 4}, false, false},
		{"table", nil, true, false},
	} {
		scan := NewScan("A", "a", kvSchema("A"), c.w, 10, c.tbl)
		if got := filtersAhead(scan); got != c.want {
			t.Errorf("%s: filtersAhead = %t, want %t", c.name, got, c.want)
		}
		preds, err := exchangePreds(&Select{In: scan, Pred: pred}, []*Scan{scan}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if (preds[0] != nil) != c.want {
			t.Errorf("%s: exchange predicate %v, want one: %t", c.name, preds[0], c.want)
		}
	}
	rows := NewScan("A", "a", kvSchema("A"), &sql.WindowSpec{Kind: sql.WindowRows, Rows: 4}, 10, false)
	if _, ok := analyzeShard(&Select{In: rows, Pred: pred}); ok {
		t.Error("a selection over a ROWS window shards")
	}

	scan := NewScan("A", "a", kvSchema("A"), nil, 10, false)
	inner := &Select{In: scan, Pred: pred}
	outer := &Select{In: inner, Pred: expr.Bin{Op: expr.OpGt, L: expr.C("a.k"), R: expr.L(0)}}
	preds, err := exchangePreds(outer, []*Scan{scan}, nil)
	if err != nil || preds[0] == nil {
		t.Fatalf("stacked selections: %v, %v", preds, err)
	}
	if pass := preds[0].EvalBool(data.NewTuple(0, data.Int(0), data.Int(1))); !pass {
		t.Error("the exchange runs the outer selection, not the one directly over the scan")
	}
	frag := map[*Scan]*SensorFragment{scan: {Name: "A"}}
	if preds, _ := exchangePreds(inner, []*Scan{scan}, frag); preds[0] != nil {
		t.Error("a fragment-fed scan's exchange filters")
	}
	proj, err := NewProject(scan, []stream.ProjectItem{{Expr: expr.C("a.v")}})
	if err != nil {
		t.Fatal(err)
	}
	if preds, _ := exchangePreds(&Select{In: proj, Pred: expr.Bin{Op: expr.OpLt, L: expr.C("a.v"), R: expr.L(2)}},
		[]*Scan{scan}, nil); preds[0] != nil {
		t.Error("a selection over a projection runs ahead of the exchange")
	}
}

// The sharded-selection differential: random plans, most with selections
// over their scans, run serially and sharded over two loopback workers with
// failover armed, and must hold the same multiset after every tick — through
// a live rescale (the moved shards restore from a checkpoint and replay) and
// a worker kill (failover undoes and replays) along the way. The exchange's
// selection means a shard's window no longer sees the tuples it rejects, so
// between ticks its expiry may lag serial's; after a tick it may not.
func TestShardedSelectionDifferential(t *testing.T) {
	sources := fuzzSources()
	seed := *fuzzSeed + 9000
	n := *fuzzN / 2
	prefiltered := 0
	for pi := range n {
		rng := rand.New(rand.NewSource(seed + int64(pi)))
		g := &fuzzGen{rng: rng, sources: sources, every: true}
		root := g.genPlan()
		strat, ok := analyzeShard(root)
		if !ok {
			continue
		}
		parRoot := root
		if strat.Split != nil {
			parRoot = strat.Split.In
		}
		preds, err := exchangePreds(parRoot, Scans(parRoot), nil)
		if err != nil {
			t.Fatal(err)
		}
		hasPre := false
		for _, p := range preds {
			hasPre = hasPre || p != nil
		}
		if !hasPre {
			continue
		}
		prefiltered++
		b := &Built{Root: root, Limit: -1}
		evs := genWorkload(rng, sources, 300)

		seng := stream.NewEngine(fmt.Sprintf("sel%d-serial", pi), vtime.NewScheduler())
		sdep, err := CompileStreamOpts(b, Host{Engine: seng}, CompileOptions{})
		if err != nil {
			t.Fatalf("seed %d plan %d: serial compile: %v", seed, pi, err)
		}
		cl := startKillableWorkers(t, 2)
		eng := stream.NewEngine(fmt.Sprintf("sel%d-p2", pi), vtime.NewScheduler())
		failovers := 0
		var fmu sync.Mutex
		dep, err := CompileStreamOpts(b, Host{Engine: eng}, CompileOptions{
			Topology: failoverTopology(2, cl.addrs, 1+rng.Intn(3)),
			OnFailover: func(ev stream.FailoverEvent) {
				fmu.Lock()
				if ev.Err == nil {
					failovers++
				}
				fmu.Unlock()
			},
		})
		if err != nil {
			t.Fatalf("seed %d plan %d: sharded compile: %v\nplan: %s", seed, pi, err, root)
		}
		rescaleAt, killAt := len(evs)/3, 2*len(evs)/3
		for i, ev := range evs {
			switch i {
			case rescaleAt:
				if err := dep.Rescale([]string{"", cl.addrs[0]}); err != nil {
					t.Fatalf("seed %d plan %d: rescale: %v", seed, pi, err)
				}
			case killAt:
				cl.kill(0)
			}
			if ev.tick == 0 {
				if in, ok := seng.Input(ev.input); ok {
					in.Push(ev.t.Clone())
				}
				if in, ok := eng.Input(ev.input); ok {
					in.Push(ev.t.Clone())
				}
				continue
			}
			seng.Advance(ev.tick)
			eng.Advance(ev.tick)
			want, err := sdep.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got, err := dep.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sortByKey(want)
			sortByKey(got)
			if !slices.EqualFunc(got, want, data.Tuple.EqualVals) {
				t.Fatalf("seed %d plan %d, tick at event %d (rescale@%d, kill@%d): %d rows, want %d\nplan: %s\ngot:  %v\nwant: %v",
					seed, pi, i, rescaleAt, killAt, len(got), len(want), root, got, want)
			}
		}
		fmu.Lock()
		if failovers == 0 {
			t.Fatalf("seed %d plan %d: worker killed at event %d but no failover completed", seed, pi, killAt)
		}
		fmu.Unlock()
		dep.Close()
		sdep.Close()
	}
	t.Logf("seed %d: %d of %d plans shard with a selection ahead of an exchange", seed, prefiltered, n)
	if prefiltered < n/4 {
		t.Fatalf("only %d of %d plans put a selection ahead of an exchange; the generator or the compile regressed", prefiltered, n)
	}
}
