package plan

import (
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

// replayEvents drives a workload into one engine without snapshotting —
// the multi-deployment variant of replay.
func replayEvents(eng *stream.Engine, evs []fuzzEvent) {
	for _, ev := range evs {
		if ev.tick != 0 {
			eng.Advance(ev.tick)
			continue
		}
		if in, ok := eng.Input(ev.input); ok {
			in.Push(ev.t.Clone())
		}
	}
}

// snapshotSorted and requireEqualRows live in elastic_test.go.

// TestShareCanonicalization pins the canonical-key rules: aliases don't
// matter (keys are positional), tables and non-prefix shapes don't share.
func TestShareCanonicalization(t *testing.T) {
	src := fuzzSources()[0]
	w := &sql.WindowSpec{Kind: sql.WindowRange, Range: 2 * time.Second}
	s1 := NewScan(src.name, "t1", src.schema, w, 10, false)
	s2 := NewScan(src.name, "t2", src.schema, w, 10, false)
	if canonScanKey(s1) != canonScanKey(s2) {
		t.Fatalf("alias changed the scan key: %q vs %q", canonScanKey(s1), canonScanKey(s2))
	}
	p1 := expr.Bin{Op: expr.OpGe, L: expr.C("t1.a"), R: expr.L(1)}
	p2 := expr.Bin{Op: expr.OpGe, L: expr.C("t2.a"), R: expr.L(1)}
	c1, ok1 := canonExpr(p1, s1.Schema())
	c2, ok2 := canonExpr(p2, s2.Schema())
	if !ok1 || !ok2 || c1 != c2 {
		t.Fatalf("aliased predicates canonicalize differently: %q vs %q", c1, c2)
	}
	// Different constants must not collide.
	p3 := expr.Bin{Op: expr.OpGe, L: expr.C("t1.a"), R: expr.L(2)}
	if c3, _ := canonExpr(p3, s1.Schema()); c3 == c1 {
		t.Fatalf("distinct predicates canonicalize identically: %q", c3)
	}
	// Different windows must not collide.
	s3 := NewScan(src.name, "t1", src.schema, nil, 10, false)
	if canonScanKey(s3) == canonScanKey(s1) {
		t.Fatal("windowed and unwindowed scans share a key")
	}

	if _, _, ok := shareablePrefix(&Select{In: s1, Pred: p1}); !ok {
		t.Fatal("select-over-scan not recognized as shareable")
	}
	tbl := NewScan("T", "t", src.schema, nil, 10, true)
	if _, _, ok := shareablePrefix(tbl); ok {
		t.Fatal("table scan must not share")
	}
	if _, _, ok := shareablePrefix(NewJoin(s1, s2, []string{"t1.a"}, []string{"t2.a"}, nil)); ok {
		t.Fatal("join must not be a shareable prefix")
	}
}

// sharePlan builds SELECT <alias>.* FROM S1 <alias> [window] WHERE stack
// of preds — the canonical shareable shape.
func sharePlan(alias string, w *sql.WindowSpec, preds func(scan *Scan) []expr.Expr) *Built {
	src := fuzzSources()[0]
	var n Node = NewScan(src.name, alias, src.schema, w, 10, false)
	if preds != nil {
		for _, p := range preds(n.(*Scan)) {
			n = &Select{In: n, Pred: p}
		}
	}
	return &Built{Root: n, Limit: -1}
}

// TestSharedPrefixLifecycle proves the refcounted chain lifecycle: two
// queries with the same prefix run one physical chain (one input
// subscriber, one tracked window), a divergent predicate stacks a derived
// layer on the same base, and the last Close detaches everything.
func TestSharedPrefixLifecycle(t *testing.T) {
	eng := stream.NewEngine("share", vtime.NewScheduler())
	s := NewSharing(eng)
	w := &sql.WindowSpec{Kind: sql.WindowRange, Range: 5 * time.Second}
	host := Host{Engine: eng, Sharing: s}

	ge := func(col string, v int) func(*Scan) []expr.Expr {
		return func(sc *Scan) []expr.Expr {
			return []expr.Expr{expr.Bin{Op: expr.OpGe, L: expr.C(sc.Alias + "." + col), R: expr.L(v)}}
		}
	}
	d1, err := CompileStreamOpts(sharePlan("t1", w, ge("a", 1)), host, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := CompileStreamOpts(sharePlan("t2", w, ge("a", 1)), host, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := eng.Input("S1")
	// One base chain + one predicate layer, both queries on the layer: the
	// engine sees ONE subscriber and ONE tracked window regardless of Q.
	if got := in.Subscribers(); got != 1 {
		t.Fatalf("input subscribers = %d, want 1 shared chain", got)
	}
	if got := eng.Advancers(); got != 1 {
		t.Fatalf("advancers = %d, want 1 shared window", got)
	}
	if chains, attached := s.Stats(); chains != 2 || attached != 2 {
		t.Fatalf("chains=%d attached=%d, want 2 chains (base+layer) and 2 attachments", chains, attached)
	}

	// A divergent predicate adds one derived layer, still one base window.
	d3, err := CompileStreamOpts(sharePlan("t3", w, ge("a", 3)), host, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Advancers(); got != 1 {
		t.Fatalf("advancers = %d after divergent query, want 1", got)
	}
	if chains, _ := s.Stats(); chains != 3 {
		t.Fatalf("chains = %d, want base + two predicate layers", chains)
	}

	// All three see data filtered by their own predicate stack.
	push := func(ts int64, a int64) {
		in.Push(data.Tuple{Vals: []data.Value{data.Int(a), data.Int(0), data.Str("s")},
			TS: vtime.Time(ts) * vtime.Time(time.Millisecond)})
	}
	push(100, 0)
	push(200, 2)
	push(300, 4)
	if r1 := snapshotSorted(t, d1); len(r1) != 2 {
		t.Fatalf("q1 rows = %v, want a in {2,4}", r1)
	}
	if r3 := snapshotSorted(t, d3); len(r3) != 1 {
		t.Fatalf("q3 rows = %v, want a in {4}", r3)
	}

	// Close peels layers off as refcounts drain; last Close detaches all.
	d3.Close()
	if chains, _ := s.Stats(); chains != 2 {
		t.Fatalf("chains = %d after divergent close, want 2", chains)
	}
	d1.Close()
	d1.Close() // idempotent
	if chains, attached := s.Stats(); chains != 2 || attached != 1 {
		t.Fatalf("chains=%d attached=%d after first close, want 2/1", chains, attached)
	}
	// The survivor keeps receiving.
	push(400, 5)
	if r2 := snapshotSorted(t, d2); len(r2) != 3 {
		t.Fatalf("survivor rows = %v, want 3", r2)
	}
	d2.Close()
	if chains, attached := s.Stats(); chains != 0 || attached != 0 {
		t.Fatalf("chains=%d attached=%d after last close, want 0/0", chains, attached)
	}
	if in.Subscribers() != 0 || eng.Advancers() != 0 {
		t.Fatalf("engine not clean: %d subscribers, %d advancers",
			in.Subscribers(), eng.Advancers())
	}
}

// TestSharedWarmStartAttach pins the attach semantics: a query joining an
// already-populated shared window immediately sees the window's current
// contents (so the shared window's future expiry deletions match), and
// after those rows expire it is indistinguishable from a private query.
func TestSharedWarmStartAttach(t *testing.T) {
	eng := stream.NewEngine("warm", vtime.NewScheduler())
	s := NewSharing(eng)
	w := &sql.WindowSpec{Kind: sql.WindowRange, Range: 5 * time.Second}
	host := Host{Engine: eng, Sharing: s}
	ge1 := func(sc *Scan) []expr.Expr {
		return []expr.Expr{expr.Bin{Op: expr.OpGe, L: expr.C(sc.Alias + ".a"), R: expr.L(1)}}
	}

	d1, err := CompileStreamOpts(sharePlan("t1", w, ge1), host, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := eng.Input("S1")
	push := func(sec int64, a int64) {
		in.Push(data.Tuple{Vals: []data.Value{data.Int(a), data.Int(0), data.Str("s")},
			TS: vtime.Time(sec) * vtime.Time(time.Second)})
	}
	push(1, 0) // filtered by the predicate
	push(2, 7)
	push(3, 8)

	// Late attach: warm-starts from the live window, filtered.
	d2, err := CompileStreamOpts(sharePlan("t2", w, ge1), host, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireEqualRows(t, "warm-started query vs original", snapshotSorted(t, d2), snapshotSorted(t, d1))
	if len(snapshotSorted(t, d2)) != 2 {
		t.Fatalf("warm start delivered %v, want the 2 live passing rows", snapshotSorted(t, d2))
	}

	// Expiry deletions retract exactly what the late query saw: both drain
	// to the post-expiry rows, never negative or stuck.
	push(4, 9)
	eng.Advance(8 * vtime.Second) // expires ts 1..3, keeps ts 4
	r1, r2 := snapshotSorted(t, d1), snapshotSorted(t, d2)
	requireEqualRows(t, "post-expiry convergence", r2, r1)
	if len(r2) != 1 || r2[0].Vals[0].AsInt() != 9 {
		t.Fatalf("post-expiry rows = %v, want just a=9", r2)
	}
	d1.Close()
	d2.Close()
	if chains, _ := s.Stats(); chains != 0 {
		t.Fatalf("chains = %d after close, want 0", chains)
	}
}

// genSharePlan builds one random query whose prefix is forced to overlap
// with its siblings: the window comes from a small shared pool and the
// predicate stack from a shared predicate pool, while the divergent
// suffix (projections, aggregates) is fully random. alias varies per
// query so the differential also exercises alias-independent keys.
func genSharePlan(g *fuzzGen, rng *rand.Rand, alias string, w *sql.WindowSpec) Node {
	src := g.sources[0]
	var n Node = NewScan(src.name, alias, src.schema, w, 10, false)
	// 0–2 predicates from a 3-entry pool: collisions across queries are
	// frequent, so base chains, shared layers, and divergent layers all
	// occur.
	pool := []expr.Expr{
		expr.Bin{Op: expr.OpGe, L: expr.C(alias + ".a"), R: expr.L(0)},
		expr.Bin{Op: expr.OpGe, L: expr.C(alias + ".b"), R: expr.L(1)},
		expr.Bin{Op: expr.OpLt, L: expr.C(alias + ".a"), R: expr.L(4)},
	}
	for _, p := range pool {
		if rng.Intn(3) == 0 {
			n = &Select{In: n, Pred: p}
		}
	}
	// Random divergent suffix: maybe projection, maybe aggregate.
	n = g.genUnary(n)
	if rng.Intn(2) == 0 {
		var groupBy []string
		for _, c := range n.Schema().Cols {
			if len(groupBy) < 1 && rng.Intn(3) == 0 {
				groupBy = append(groupBy, c.QName())
			}
		}
		specs := []stream.AggSpec{{Kind: stream.AggCount, Alias: "cnt"}}
		if ints := intCols(n); len(ints) > 0 {
			specs = append(specs, stream.AggSpec{Kind: stream.AggSum,
				Arg: expr.C(ints[rng.Intn(len(ints))]), Alias: "s"})
		}
		if agg, err := NewAggregate(n, groupBy, specs, nil); err == nil {
			n = agg
		}
	}
	return n
}

// TestSharedPrefixDifferential is the serial-vs-shared differential: Q
// queries with overlapping prefixes deploy twice — privately on one
// engine, through one Sharing registry on another — replay an identical
// workload, and every query's materialized result must be multiset-equal.
// The run fails if no chain ever shared (vacuous) and requires full
// engine-registry teardown after the shared deployments close.
func TestSharedPrefixDifferential(t *testing.T) {
	sources := fuzzSources()
	nPlans := *fuzzN / 2
	if nPlans < 10 {
		nPlans = 10
	}
	const Q = 4
	sharedAny := false
	windows := []*sql.WindowSpec{
		nil,
		{Kind: sql.WindowRange, Range: 2 * time.Second},
		{Kind: sql.WindowRange, Range: 5 * time.Second, Slide: time.Second},
	}
	for pi := 0; pi < nPlans; pi++ {
		rng := rand.New(rand.NewSource(*fuzzSeed + 5000 + int64(pi)))
		g := &fuzzGen{rng: rng, sources: sources}
		w := windows[rng.Intn(len(windows))]
		builts := make([]*Built, Q)
		for qi := range builts {
			builts[qi] = &Built{Root: genSharePlan(g, rng, fmt.Sprintf("t%d", qi+1), w), Limit: -1}
		}
		evs := genWorkload(rng, sources, 300)

		peng := stream.NewEngine(fmt.Sprintf("priv%d", pi), vtime.NewScheduler())
		seng := stream.NewEngine(fmt.Sprintf("shared%d", pi), vtime.NewScheduler())
		sharing := NewSharing(seng)
		pdeps := make([]*Deployment, Q)
		sdeps := make([]*Deployment, Q)
		for qi, b := range builts {
			var err error
			if pdeps[qi], err = CompileStreamOpts(b, Host{Engine: peng}, CompileOptions{}); err != nil {
				t.Fatalf("plan %d q%d private compile: %v\nplan: %s", pi, qi, err, b.Root)
			}
			if sdeps[qi], err = CompileStreamOpts(b, Host{Engine: seng, Sharing: sharing}, CompileOptions{}); err != nil {
				t.Fatalf("plan %d q%d shared compile: %v\nplan: %s", pi, qi, err, b.Root)
			}
		}
		pin, _ := peng.Input("S1")
		sin, _ := seng.Input("S1")
		if sin.Subscribers() < pin.Subscribers() {
			sharedAny = true
		}
		replayEvents(peng, evs)
		replayEvents(seng, evs)
		for qi := range builts {
			requireEqualRows(t, fmt.Sprintf("plan %d q%d (plan: %s)", pi, qi, builts[qi].Root),
				snapshotSorted(t, sdeps[qi]), snapshotSorted(t, pdeps[qi]))
		}
		for _, d := range sdeps {
			d.Close()
		}
		if chains, attached := sharing.Stats(); chains != 0 || attached != 0 {
			t.Fatalf("plan %d: chains=%d attached=%d after closing all queries", pi, chains, attached)
		}
		if sin.Subscribers() != 0 || seng.Advancers() != 0 {
			t.Fatalf("plan %d: engine not clean after close: %d subscribers, %d advancers",
				pi, sin.Subscribers(), seng.Advancers())
		}
	}
	if !sharedAny {
		t.Fatal("no run ever shared a chain; the differential ran vacuously")
	}
}

// TestSharedConjunctOrder: the order a WHERE's factors were written in is
// not part of a chain's identity. Two queries whose selections are
// permutations of the same conjuncts end on one chain and read the same
// rows; a third with a different constant does not join them.
func TestSharedConjunctOrder(t *testing.T) {
	eng := stream.NewEngine("conjuncts", vtime.NewScheduler())
	s := NewSharing(eng)
	host := Host{Engine: eng, Sharing: s}
	w := &sql.WindowSpec{Kind: sql.WindowRange, Range: 5 * time.Second}
	ge := func(col string, v int) expr.Expr { return expr.Bin{Op: expr.OpGe, L: expr.C(col), R: expr.L(v)} }
	isS1 := expr.Bin{Op: expr.OpEq, L: expr.C("s"), R: expr.L("s1")}
	deploy := func(alias string, pred expr.Expr) *Deployment {
		t.Helper()
		preds := func(*Scan) []expr.Expr { return []expr.Expr{pred} }
		d, err := CompileStreamOpts(sharePlan(alias, w, preds), host, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d1 := deploy("t1", expr.Bin{Op: expr.OpAnd, L: expr.Bin{Op: expr.OpAnd, L: ge("a", 2), R: ge("b", 1)}, R: isS1})
	d2 := deploy("t2", expr.Bin{Op: expr.OpAnd, L: isS1, R: expr.Bin{Op: expr.OpAnd, L: ge("b", 1), R: ge("a", 2)}})
	if chains, attached := s.Stats(); chains != 2 || attached != 2 {
		t.Fatalf("chains=%d attached=%d, want the base and one selection layer under both queries", chains, attached)
	}
	d3 := deploy("t3", expr.Bin{Op: expr.OpAnd, L: ge("b", 1), R: ge("a", 3)})
	if chains, attached := s.Stats(); chains != 3 || attached != 3 {
		t.Fatalf("chains=%d attached=%d, want a layer of its own for the different selection", chains, attached)
	}
	// All but the workload's last event, the tick that drains every window.
	replayEvents(eng, genWorkload(rand.New(rand.NewSource(*fuzzSeed)), fuzzSources(), 120)[:120])
	rows := snapshotSorted(t, d1)
	if len(rows) == 0 {
		t.Fatal("no row passed the selection; the comparison is vacuous")
	}
	requireEqualRows(t, "permuted conjuncts", snapshotSorted(t, d2), rows)
	for _, d := range []*Deployment{d1, d2, d3} {
		d.Close()
	}
	if chains, attached := s.Stats(); chains != 0 || attached != 0 {
		t.Fatalf("chains=%d attached=%d after close", chains, attached)
	}
}

// genShareJoin builds one query whose suffix is a join over two shareable
// prefixes: S1 against itself (both join tables retain the very Vals one
// shared window hands them) or against S2, each side under 0–2 selections
// from a pool shared by every query so chains collide.
func genShareJoin(rng *rand.Rand, tag string, w *sql.WindowSpec) *Built {
	sources := fuzzSources()
	side := func(src fuzzSource, alias string, cols [2]string) Node {
		var n Node = NewScan(src.name, alias, src.schema, w, 10, false)
		pool := []expr.Expr{
			expr.Bin{Op: expr.OpGe, L: expr.C(alias + "." + cols[0]), R: expr.L(1)},
			expr.Bin{Op: expr.OpAnd,
				L: expr.Bin{Op: expr.OpLt, L: expr.C(alias + "." + cols[1]), R: expr.L(4)},
				R: expr.Bin{Op: expr.OpGe, L: expr.C(alias + "." + cols[1]), R: expr.L(0)}},
		}
		for _, p := range pool {
			if rng.Intn(3) == 0 {
				n = &Select{In: n, Pred: p}
			}
		}
		return n
	}
	l := side(sources[0], "l"+tag, [2]string{"a", "b"})
	if rng.Intn(3) == 0 {
		r := side(sources[1], "r"+tag, [2]string{"x", "y"})
		return &Built{Root: NewJoin(l, r, []string{"l" + tag + ".a"}, []string{"r" + tag + ".x"}, nil), Limit: -1}
	}
	r := side(sources[0], "r"+tag, [2]string{"a", "b"})
	return &Built{Root: NewJoin(l, r, []string{"l" + tag + ".b"}, []string{"r" + tag + ".a"}, nil), Limit: -1}
}

// TestSharedJoinSuffixDifferential is the differential for tuples that are
// shared, not copied: queries whose suffixes are joins — so several join
// tables, in two engines, retain the same Vals — run privately on one engine
// and on shared chains on another, fed the very same tuples, while other
// join queries attach to and stop on the shared chains mid-stream. The
// queries there from the start must read the same rows as their private
// twins at every checkpoint; one attached a third of the way in (cold on the
// private engine, warm-started from the live shared window on the other)
// must agree with its twin once the rows it was warm-started with have left
// the window.
func TestSharedJoinSuffixDifferential(t *testing.T) {
	sources := fuzzSources()
	nPlans := *fuzzN / 2
	if nPlans < 10 {
		nPlans = 10
	}
	windows := []*sql.WindowSpec{
		nil,
		{Kind: sql.WindowRange, Range: 2 * time.Second},
		{Kind: sql.WindowRange, Range: 5 * time.Second, Slide: time.Second},
	}
	const Q, churners = 3, 4
	sharedAny, rowsAny := false, false
	for pi := 0; pi < nPlans; pi++ {
		rng := rand.New(rand.NewSource(*fuzzSeed + 13000 + int64(pi)))
		w := windows[pi%len(windows)]
		evs := genWorkload(rng, sources, 360)
		peng := stream.NewEngine(fmt.Sprintf("priv%d", pi), vtime.NewScheduler())
		seng := stream.NewEngine(fmt.Sprintf("shared%d", pi), vtime.NewScheduler())
		phost, shost := Host{Engine: peng}, Host{Engine: seng, Sharing: NewSharing(seng)}
		type twin struct {
			name string
			p, s *Deployment
		}
		deploy := func(name string, b *Built) twin {
			t.Helper()
			tw := twin{name: fmt.Sprintf("plan %d %s (%s)", pi, name, b.Root)}
			var err error
			if tw.p, err = CompileStreamOpts(b, phost, CompileOptions{}); err != nil {
				t.Fatalf("%s: private compile: %v", tw.name, err)
			}
			if tw.s, err = CompileStreamOpts(b, shost, CompileOptions{}); err != nil {
				t.Fatalf("%s: shared compile: %v", tw.name, err)
			}
			return tw
		}
		var twins []twin
		for qi := 0; qi < Q; qi++ {
			twins = append(twins, deploy(fmt.Sprintf("q%d", qi), genShareJoin(rng, fmt.Sprint(qi), w)))
		}
		pin, _ := peng.Input("S1")
		sin, _ := seng.Input("S1")
		if sin.Subscribers() < pin.Subscribers() {
			sharedAny = true
		}
		// Churn on the shared engine only: attach at one event, stop at a
		// later one.
		type churner struct {
			b        *Built
			from, to int
			dep      *Deployment
		}
		var churn []*churner
		for ci := 0; ci < churners; ci++ {
			from := rng.Intn(len(evs) - 1)
			churn = append(churn, &churner{b: genShareJoin(rng, fmt.Sprintf("c%d", ci), w),
				from: from, to: from + 1 + rng.Intn(len(evs)-from-1)})
		}
		lateAt := len(evs) / 3
		lateOK := vtime.Time(0) // event time from which the late twin must agree
		late := genShareJoin(rng, "late", w)

		now := vtime.Time(0)
		for i, ev := range evs {
			for _, c := range churn {
				if i == c.from {
					var err error
					if c.dep, err = CompileStreamOpts(c.b, shost, CompileOptions{}); err != nil {
						t.Fatalf("plan %d: churn compile: %v\nplan: %s", pi, err, c.b.Root)
					}
				}
				if i == c.to {
					c.dep.Close()
				}
			}
			if i == lateAt {
				twins = append(twins, deploy("late", late))
				lateOK = now.Add(7 * time.Second) // past the widest window and its slide
			}
			if ev.tick != 0 {
				now = ev.tick
				peng.Advance(ev.tick)
				seng.Advance(ev.tick)
			} else {
				now = ev.t.TS
				for _, eng := range []*stream.Engine{peng, seng} {
					if in, ok := eng.Input(ev.input); ok {
						in.Push(ev.t) // the same Vals into both engines: nobody may write to them
					}
				}
			}
			if i%40 != 39 && i < len(evs)-2 {
				continue
			}
			for qi, tw := range twins {
				if qi == Q && (w == nil || now < lateOK) {
					// Unwindowed, the rows a late twin missed never expire on
					// either side, and the chain (like a private scan) has no
					// window to warm-start it from: only check it converges
					// when there is a window.
					continue
				}
				got := snapshotSorted(t, tw.s)
				rowsAny = rowsAny || len(got) > 0
				requireEqualRows(t, fmt.Sprintf("%s at event %d", tw.name, i), got, snapshotSorted(t, tw.p))
			}
		}
		for _, tw := range twins {
			tw.s.Close()
			tw.p.Close()
		}
		if chains, attached := shost.Sharing.Stats(); chains != 0 || attached != 0 {
			t.Fatalf("plan %d: chains=%d attached=%d after closing all queries", pi, chains, attached)
		}
		if sin.Subscribers() != 0 || seng.Advancers() != 0 {
			t.Fatalf("plan %d: engine not clean after close: %d subscribers, %d advancers",
				pi, sin.Subscribers(), seng.Advancers())
		}
	}
	if !sharedAny || !rowsAny {
		t.Fatalf("vacuous run: shared a chain %v, compared a non-empty result %v", sharedAny, rowsAny)
	}
}

// TestStopMidStreamSurvivors is the fuzzshard stop-mid-stream mode: three
// random queries run on one engine, one is stopped at a random event
// mid-replay, and the survivors' final results must be identical to a run
// where the victim never existed — with sharing off and on (where the
// victim may share chains with the survivors, and its Stop must release
// references without tearing live chains down).
func TestStopMidStreamSurvivors(t *testing.T) {
	sources := fuzzSources()
	nPlans := *fuzzN / 2
	if nPlans < 10 {
		nPlans = 10
	}
	for _, mode := range []struct {
		name   string
		shared bool
	}{{"private", false}, {"shared", true}} {
		t.Run(mode.name, func(t *testing.T) {
			for pi := 0; pi < nPlans; pi++ {
				rng := rand.New(rand.NewSource(*fuzzSeed + 9000 + int64(pi)))
				g := &fuzzGen{rng: rng, sources: sources}
				var builts []*Built
				for qi := 0; qi < 3; qi++ {
					builts = append(builts, &Built{Root: g.genPlan(), Limit: -1})
				}
				evs := genWorkload(rng, sources, 300)
				victim := rng.Intn(len(builts))
				stopAt := rng.Intn(len(evs))

				newHost := func(eng *stream.Engine) Host {
					if mode.shared {
						return Host{Engine: eng, Sharing: NewSharing(eng)}
					}
					return Host{Engine: eng}
				}
				// Reference: survivors only, full replay.
				reng := stream.NewEngine(fmt.Sprintf("ref%d", pi), vtime.NewScheduler())
				rhost := newHost(reng)
				want := map[int][]data.Tuple{}
				rdeps := map[int]*Deployment{}
				for qi, b := range builts {
					if qi == victim {
						continue
					}
					dep, err := CompileStreamOpts(b, rhost, CompileOptions{})
					if err != nil {
						t.Fatalf("plan %d q%d compile: %v\nplan: %s", pi, qi, err, b.Root)
					}
					rdeps[qi] = dep
				}
				replayEvents(reng, evs)
				for qi, dep := range rdeps {
					want[qi] = snapshotSorted(t, dep)
				}

				// Test run: all three, victim stopped mid-stream.
				teng := stream.NewEngine(fmt.Sprintf("stop%d", pi), vtime.NewScheduler())
				thost := newHost(teng)
				tdeps := make([]*Deployment, len(builts))
				for qi, b := range builts {
					dep, err := CompileStreamOpts(b, thost, CompileOptions{})
					if err != nil {
						t.Fatalf("plan %d q%d compile: %v\nplan: %s", pi, qi, err, b.Root)
					}
					tdeps[qi] = dep
				}
				for i, ev := range evs {
					if i == stopAt {
						tdeps[victim].Close()
					}
					if ev.tick != 0 {
						teng.Advance(ev.tick)
						continue
					}
					if in, ok := teng.Input(ev.input); ok {
						in.Push(ev.t.Clone())
					}
				}
				for qi := range builts {
					if qi == victim {
						continue
					}
					requireEqualRows(t,
						fmt.Sprintf("%s plan %d survivor q%d (victim %d stopped at %d)",
							mode.name, pi, qi, victim, stopAt),
						snapshotSorted(t, tdeps[qi]), want[qi])
				}
				// The stopped victim's result froze: later events never reached it.
				if thost.Sharing != nil {
					for _, d := range tdeps {
						d.Close()
					}
					if chains, attached := thost.Sharing.Stats(); chains != 0 || attached != 0 {
						t.Fatalf("plan %d: chains=%d attached=%d after closing all", pi, chains, attached)
					}
				}
			}
		})
	}
}

// TestQueryChurnRegistriesReturnToBaseline is the churn test: deploy and
// stop random queries — serial private, shared, and sharded — in a loop
// on one live engine, pushing data between, and require every registry
// (input subscribers, engine advancers, sharing chains) back at baseline
// after each stop. Run under -race via `make race`.
func TestQueryChurnRegistriesReturnToBaseline(t *testing.T) {
	sources := fuzzSources()
	eng := stream.NewEngine("churn", vtime.NewScheduler())
	sharing := NewSharing(eng)
	for _, src := range sources {
		if _, err := eng.Register(src.name, src.schema); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(*fuzzSeed + 12000))
	g := &fuzzGen{rng: rng, sources: sources}
	for i := 0; i < 30; i++ {
		host, opts := Host{Engine: eng}, CompileOptions{}
		switch i % 3 {
		case 1:
			host.Sharing = sharing
		case 2:
			opts.Parallelism = 2
		}
		b := &Built{Root: g.genPlan(), Limit: -1}
		dep, err := CompileStreamOpts(b, host, opts)
		if err != nil {
			t.Fatalf("churn %d: %v\nplan: %s", i, err, b.Root)
		}
		replayEvents(eng, genWorkload(rng, sources, 40))
		dep.Close()
		dep.Close() // idempotent
		for _, src := range sources {
			in, _ := eng.Input(src.name)
			if n := in.Subscribers(); n != 0 {
				t.Fatalf("churn %d: input %s has %d subscribers after Close", i, src.name, n)
			}
		}
		if n := eng.Advancers(); n != 0 {
			t.Fatalf("churn %d: %d advancers after Close", i, n)
		}
		if chains, attached := sharing.Stats(); chains != 0 || attached != 0 {
			t.Fatalf("churn %d: chains=%d attached=%d after Close", i, chains, attached)
		}
	}
}

// TestQueryChurnConcurrentPush churns deployments while another goroutine
// pushes into the same input continuously: the copy-on-write seam that
// Subscribe/Unsubscribe and Push share is exactly what -race must vet.
// (Shared chains are excluded — warm-start attach requires a quiet
// producer, the documented contract.)
func TestQueryChurnConcurrentPush(t *testing.T) {
	eng := stream.NewEngine("churn-push", vtime.NewScheduler())
	src := fuzzSources()[0]
	in, err := eng.Register(src.name, src.schema)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ts := vtime.Time(0)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ts += vtime.Time(time.Millisecond)
			in.Push(data.Tuple{TS: ts,
				Vals: []data.Value{data.Int(int64(i % 5)), data.Int(1), data.Str("s")}})
		}
	}()
	w := &sql.WindowSpec{Kind: sql.WindowRange, Range: time.Second}
	for i := 0; i < 100; i++ {
		dep, err := CompileStreamOpts(sharePlan(fmt.Sprintf("t%d", i), w, nil), Host{Engine: eng}, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dep.Close()
	}
	close(stop)
	wg.Wait()
	if n := in.Subscribers(); n != 0 {
		t.Fatalf("%d subscribers after churn", n)
	}
	if n := eng.Advancers(); n != 0 {
		t.Fatalf("%d advancers after churn", n)
	}
}

// TestCanonExprForms pins the canonical rendering of every expression kind
// and the refusal paths (unresolvable references) that force a private
// compile instead of a bogus shared key.
func TestCanonExprForms(t *testing.T) {
	src := fuzzSources()[0]
	sc := NewScan(src.name, "t", src.schema, nil, 10, false)
	s := sc.Schema()
	forms := []expr.Expr{
		expr.IsNull{X: expr.C("t.a")},
		expr.IsNull{X: expr.C("t.a"), Neg: true},
		expr.Un{Op: expr.OpNot, X: expr.C("t.a")},
		expr.Un{Op: expr.OpNeg, X: expr.C("t.a")},
		expr.Call{Name: "abs", Args: []expr.Expr{expr.C("t.a")}},
		expr.L("x'y"),
		expr.L(1),
		expr.Bin{Op: expr.OpGe, L: expr.C("t.a"), R: expr.L(1)},
	}
	seen := map[string]bool{}
	for _, e := range forms {
		c, ok := canonExpr(e, s)
		if !ok {
			t.Fatalf("canonExpr(%v) refused", e)
		}
		if seen[c] {
			t.Fatalf("distinct forms canonicalize identically: %q (%v)", c, e)
		}
		seen[c] = true
	}
	bad := expr.C("t.nosuch")
	refusals := []expr.Expr{
		bad,
		expr.Bin{Op: expr.OpGe, L: bad, R: expr.L(1)},
		expr.Bin{Op: expr.OpGe, L: expr.L(1), R: bad},
		expr.Un{Op: expr.OpNot, X: bad},
		expr.IsNull{X: bad},
		expr.Call{Name: "abs", Args: []expr.Expr{bad}},
	}
	for _, e := range refusals {
		if c, ok := canonExpr(e, s); ok {
			t.Fatalf("canonExpr(%v) accepted an unresolvable reference: %q", e, c)
		}
	}
	// Window shapes are part of the scan key: ROWS, NOW, RANGE, and
	// unwindowed must all be distinct.
	shapes := []*sql.WindowSpec{
		nil,
		{Kind: sql.WindowRows, Rows: 5},
		{Kind: sql.WindowNow},
		{Kind: sql.WindowRange, Range: 2 * time.Second},
	}
	keys := map[string]bool{}
	for _, w := range shapes {
		k := canonScanKey(NewScan(src.name, "t", src.schema, w, 10, false))
		if keys[k] {
			t.Fatalf("window shapes collide on key %q", k)
		}
		keys[k] = true
	}
}

// TestSharedAttachFailureCleanup proves a tryAttach that fails mid-way
// leaves no orphan chains subscribed to the engine: ensureBase failure
// (input arity conflict) fails before any chain exists, and an ensureLayer
// failure (predicate that canonicalizes but does not bind) must sweep the
// layers it already built back out of the engine.
func TestSharedAttachFailureCleanup(t *testing.T) {
	eng := stream.NewEngine("share", vtime.NewScheduler())
	s := NewSharing(eng)
	host := Host{Engine: eng, Sharing: s}
	w := &sql.WindowSpec{Kind: sql.WindowRange, Range: 2 * time.Second}
	src := fuzzSources()[0]

	// Pre-register S1 with a conflicting arity: ensureBase fails.
	narrow := data.NewSchema("S1", data.Col("a", data.TInt))
	narrow.IsStream = true
	if _, err := eng.Register(src.name, narrow); err != nil {
		t.Fatal(err)
	}
	good := expr.Bin{Op: expr.OpGe, L: expr.C("t.a"), R: expr.L(0)}
	mismatched := &Built{Root: &Select{
		In:   NewScan(src.name, "t", src.schema, w, 10, false),
		Pred: good,
	}, Limit: -1}
	if _, err := CompileStreamOpts(mismatched, host, CompileOptions{}); err == nil {
		t.Fatal("arity-conflicting shared compile succeeded")
	}
	if chains, attached := s.Stats(); chains != 0 || attached != 0 {
		t.Fatalf("chains leaked past ensureBase failure: %d/%d", chains, attached)
	}

	// Fresh engine: a good predicate layer under a bad one. The base chain
	// and the good layer are built before the bad layer's bind fails; the
	// gc sweep must cascade both back out (layer first, then the base it
	// holds a ref on).
	eng = stream.NewEngine("share2", vtime.NewScheduler())
	s = NewSharing(eng)
	host = Host{Engine: eng, Sharing: s}
	badcall := expr.Call{Name: "nosuchfn", Args: []expr.Expr{expr.C("t.a")}}
	layered := &Built{Root: &Select{
		In: &Select{
			In:   NewScan(src.name, "t", src.schema, w, 10, false),
			Pred: good,
		},
		Pred: badcall,
	}, Limit: -1}
	if _, err := CompileStreamOpts(layered, host, CompileOptions{}); err == nil {
		t.Fatal("unknown function bound through the shared path")
	}
	if chains, attached := s.Stats(); chains != 0 || attached != 0 {
		t.Fatalf("chains leaked past ensureLayer failure: %d/%d", chains, attached)
	}
	if chains, _ := s.Stats(); chains != 0 {
		t.Fatalf("%d chains after failed attach", chains)
	}
	if in, ok := eng.Input(src.name); ok && in.Subscribers() != 0 {
		t.Fatalf("orphan chain still subscribed: %d heads", in.Subscribers())
	}
	if eng.Advancers() != 0 {
		t.Fatalf("orphan window still ticked: %d advancers", eng.Advancers())
	}

	// The registry stays usable after failed attaches.
	ok1, err := CompileStreamOpts(&Built{Root: &Select{
		In:   NewScan(src.name, "t", src.schema, w, 10, false),
		Pred: good,
	}, Limit: -1}, host, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ok1.Close()
	if chains, attached := s.Stats(); chains != 2 || attached != 1 {
		t.Fatalf("post-failure attach: chains=%d attached=%d", chains, attached)
	}
}

// TestCoordinatorSharing proves the host's registry reaches every
// coordinator deploy: two tracked queries with one prefix share a chain,
// and dropping both tears it down.
func TestCoordinatorSharing(t *testing.T) {
	eng := stream.NewEngine("coord", vtime.NewScheduler())
	s := NewSharing(eng)
	c := NewCoordinator(Host{Engine: eng, Sharing: s}, "")
	w := &sql.WindowSpec{Kind: sql.WindowRange, Range: 5 * time.Second}
	ge := func(sc *Scan) []expr.Expr {
		return []expr.Expr{expr.Bin{Op: expr.OpGe, L: expr.C(sc.Alias + ".a"), R: expr.L(1)}}
	}
	if _, err := c.Deploy("q1", sharePlan("t1", w, ge), CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("q2", sharePlan("t2", w, ge), CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	if chains, attached := s.Stats(); chains != 2 || attached != 2 {
		t.Fatalf("coordinator deploys did not share: chains=%d attached=%d", chains, attached)
	}
	if err := c.Drop("q1"); err != nil {
		t.Fatal(err)
	}
	if chains, attached := s.Stats(); chains != 2 || attached != 1 {
		t.Fatalf("drop released too much: chains=%d attached=%d", chains, attached)
	}
	if err := c.Drop("q2"); err != nil {
		t.Fatal(err)
	}
	if chains, attached := s.Stats(); chains != 0 || attached != 0 {
		t.Fatalf("last drop left chains: chains=%d attached=%d", chains, attached)
	}
}
