package plan

import (
	"fmt"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/testproc"
	"aspen/internal/vtime"
)

// remoteJoinAgg is the compiled counterpart of stream's join+aggregate
// pipeline: A [RANGE 10 s] ⋈ B [RANGE 10 s] on k, AVG(v) grouped by a.k,
// at P=4 with its replicas round-robined over loopback workers.
type remoteJoinAgg struct {
	dep  *Deployment
	eng  *stream.Engine
	l, r *stream.Input
}

// buildRemoteJoinAgg compiles the pipeline over the given number of
// loopback workers (0 keeps every replica in-process), with checkpointed
// failover armed or not. Everything is closed when the test ends.
func buildRemoteJoinAgg(tb testing.TB, workers int, failover bool) *remoteJoinAgg {
	tb.Helper()
	var nodes []string
	for range workers {
		wk, err := NewWorker("127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { wk.Close() })
		nodes = append(nodes, wk.Addr())
	}
	return compileRemoteJoinAgg(tb, 4, nodes, failover)
}

// compileRemoteJoinAgg compiles the pipeline at P=p with its replicas
// round-robined over nodes.
func compileRemoteJoinAgg(tb testing.TB, p int, nodes []string, failover bool) *remoteJoinAgg {
	tb.Helper()
	left := data.NewSchema("A", data.Col("k", data.TInt), data.Col("v", data.TFloat))
	left.IsStream = true
	right := data.NewSchema("B", data.Col("k", data.TInt), data.Col("w", data.TFloat))
	right.IsStream = true
	w := &sql.WindowSpec{Kind: sql.WindowRange, Range: 10 * time.Second}
	join := NewJoin(NewScan("A", "a", left, w, 100, false), NewScan("B", "b", right, w, 100, false),
		[]string{"a.k"}, []string{"b.k"}, nil)
	agg, err := NewAggregate(join, []string{"a.k"},
		[]stream.AggSpec{{Kind: stream.AggAvg, Arg: expr.C("v"), Alias: "m"}}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	eng := stream.NewEngine("joinagg", vtime.NewScheduler())
	opts := CompileOptions{Topology: Topology{Parallelism: p, Nodes: nodes}}
	opts.Failover = failover
	dep, err := CompileStreamOpts(&Built{Root: agg, Limit: -1}, Host{Engine: eng}, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(dep.Close) // before the workers close: cleanups run last-in first-out
	l, _ := eng.Input("A")
	r, _ := eng.Input("B")
	return &remoteJoinAgg{dep: dep, eng: eng, l: l, r: r}
}

// epochGen is stream's join+aggregate workload, one 64-tuple epoch at a
// time: timestamps 50 ms apart, tuples alternating between the inputs, each
// left tuple sharing its key ((i+k)/2 mod 64) with the right tuple after it.
// The batch slices are reused; the Vals are not, because windows keep them.
type epochGen struct {
	lb, rb []data.Tuple
	i      int
	ts     vtime.Time
}

const genEpoch = 64

// feed pushes the next epoch as one batch per input.
func (g *epochGen) feed(l, r stream.Operator) {
	g.lb, g.rb = g.lb[:0], g.rb[:0]
	vals := make([]data.Value, 2*genEpoch)
	for k := range genEpoch {
		g.ts += vtime.Time(50 * time.Millisecond)
		v := vals[2*k : 2*k+2 : 2*k+2]
		v[0] = data.Int(int64((g.i+k)/2) % 64)
		v[1] = data.Float(float64(g.i + k))
		if t := (data.Tuple{Vals: v, TS: g.ts}); k%2 == 0 {
			g.lb = append(g.lb, t)
		} else {
			g.rb = append(g.rb, t)
		}
	}
	g.i += genEpoch
	l.PushBatch(g.lb)
	r.PushBatch(g.rb)
}

// TestRemoteJoinAggAllocs pins what one epoch and the Flush after it
// allocate on the compiled pipeline once warm. Every allocation has an
// owner. In-process (W=0), failover off or armed, the count is stream's
// TestJoinAggAllocs at P=4, 2:
//
//   - 1, the epoch's Vals, which windows keep;
//   - 1, Flush's WaitGroup.
//
// The 114 aggregate rows cost nothing: each replica's aggregate builds a
// row in the one it last retracted, because the ResultSink it feeds copies
// rows into a reused arena, and that arena goes round again because the
// Merge funnel's Materialize keeps nothing (join results cost nothing
// either: the join writes them into a pooled arena, since the aggregate
// keeps nothing). Arming failover with no remote replica costs nothing.
// Over workers the replicas run the same operators in the same process, and
// the wire adds:
//
//   - 12 decoded Vals arenas, one per frame: the worker decodes the 8 data
//     frames (4 shards × 2 inputs), the coordinator 4 result frames — one
//     per replica call that emits: each shard's left batch moves its
//     groups' averages, and sends them in one frame, while a right batch
//     leaves every average where it was;
//   - the barrier: flushOnce's WaitGroup and error slots (2); per link,
//     registerWait's ack channel and its waits entry (2) and awaitAck's
//     stall timer (3); and the goroutine that runs each link's barrier past
//     the first (2) — 7 at W=1, 14 at W=2.
//
// Reading a frame costs nothing: its length header lives in the wireReader.
// Failover armed at W=1 adds the replay log's copy of each of the 8 data
// batches, the undo log's copy of each of the 4 result batches, and 17 for
// the checkpoints the replay log forces every 256 entries (gob-encoded
// replica state; an AVG group carries no value multiset, so gob encodes no
// map for it). gob pools its buffers, and the join its arenas, in a
// sync.Pool, which under the race detector drops items at random, so the
// counts are checked only without it.
func TestRemoteJoinAggAllocs(t *testing.T) {
	for _, c := range []struct {
		workers  int
		failover bool
		want     float64
	}{
		{0, false, 2},
		{0, true, 2},
		{1, false, 1 + 12 + 7},
		{2, false, 1 + 12 + 14},
		{1, true, 1 + 12 + 7 + 8 + 4 + 17},
	} {
		t.Run(fmt.Sprintf("W=%d/failover=%t", c.workers, c.failover), func(t *testing.T) {
			p := buildRemoteJoinAgg(t, c.workers, c.failover)
			var g epochGen
			epoch := func() {
				g.feed(p.l, p.r)
				p.dep.Flush()
			}
			for range 400 {
				epoch()
			}
			if n := testing.AllocsPerRun(200, epoch); n != c.want && !testproc.Race {
				t.Errorf("one epoch allocates %v times, want %v", n, c.want)
			}
			if p.dep.Result.Len() == 0 {
				t.Fatal("the pipeline materialized nothing")
			}
		})
	}
}

// BenchmarkRemoteJoinAgg is the compiled pipeline's per-tuple cost at P=4
// over W loopback workers (W=0 keeps every replica in-process), with
// checkpointed failover off and armed: against W=0, the cost of routing
// the exchange, the ticks and the result funnel over the wire.
func BenchmarkRemoteJoinAgg(b *testing.B) {
	for _, c := range []struct {
		workers  int
		failover bool
	}{{0, false}, {1, false}, {2, false}, {0, true}, {1, true}} {
		name := fmt.Sprintf("W=%d", c.workers)
		if c.failover {
			name += "/failover"
		}
		b.Run(name, func(b *testing.B) {
			p := buildRemoteJoinAgg(b, c.workers, c.failover)
			var g epochGen
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += genEpoch {
				g.feed(p.l, p.r)
			}
			p.dep.Flush()
		})
	}
}

// queryDensity is Q standing queries — selective windowed filters over one
// source, each under its own alias, with a predicate drawn from a pool of
// four cuts so the plans overlap heavily — deployed privately or through
// one Sharing registry.
type queryDensity struct {
	in   *stream.Input
	slot stream.Slot
}

func newQueryDensity(tb testing.TB, q int, shared bool) *queryDensity {
	tb.Helper()
	eng := stream.NewEngine("qd", vtime.NewScheduler())
	host := Host{Engine: eng}
	if shared {
		host.Sharing = NewSharing(eng)
	}
	schema := data.NewSchema("S", data.Col("k", data.TInt), data.Col("v", data.TFloat))
	schema.IsStream = true
	w := &sql.WindowSpec{Kind: sql.WindowRange, Range: 10 * time.Second}
	cuts := []int{8, 4, 16, 2}
	for i := range q {
		alias := fmt.Sprintf("t%d", i)
		pred := expr.Bin{Op: expr.OpLt, L: expr.C(alias + ".k"), R: expr.L(cuts[i%len(cuts)])}
		dep, err := CompileStreamOpts(&Built{Root: &Select{In: NewScan("S", alias, schema, w, 10, false), Pred: pred},
			Limit: -1}, host, CompileOptions{})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(dep.Close)
	}
	in, _ := eng.Input("S")
	return &queryDensity{in: in}
}

// feed pushes the i-th tuple (key i%64) at ts+50ms and returns the new ts.
// Like every single-row producer of the engine, it sends the tuple as a
// batch of one through a slot it owns: Input.Push would allocate that batch,
// since the slice escapes into the subscribers.
func (qd *queryDensity) feed(i int, ts vtime.Time) vtime.Time {
	ts += vtime.Time(50 * time.Millisecond)
	qd.slot.Send(qd.in, data.Tuple{Vals: []data.Value{data.Int(int64(i % 64)), data.Float(float64(i))}, TS: ts})
	return ts
}

// TestQueryDensityFeedAllocs: once windows, results and scratch have grown,
// pushing one tuple through 256 standing queries — on shared chains (one
// grouped selection over four predicate layers) or privately — allocates
// exactly once, the Vals feed builds.
func TestQueryDensityFeedAllocs(t *testing.T) {
	for _, shared := range []bool{true, false} {
		qd := newQueryDensity(t, 256, shared)
		ts, i := vtime.Time(0), 0
		feed := func() { ts = qd.feed(i, ts); i++ }
		// Past one 10 s window of 50 ms steps, and past the first compaction
		// of every window's ring: a private window admits only the keys its
		// predicate passes (2 of every 64 for k < 2), so its ring takes some
		// 1 300 feeds to reach the 33 popped rows that compact it.
		for i < 3000 {
			feed()
		}
		// Measured over whole cycles of feed's 64 keys, so an allocation on
		// some keys only (the ones a predicate passes) cannot round away.
		if n := testing.AllocsPerRun(20, func() {
			for range 64 {
				feed()
			}
		}); n != 64 {
			t.Errorf("Q=256 shared=%t: 64 feeds allocate %v times, want 64", shared, n)
		}
	}
}

// BenchmarkQueryDensity is the per-tuple cost of Q standing queries over
// one source, deployed privately (Q window+filter pipelines) or through one
// shared-prefix registry (one window, four predicate layers, fan-out only
// at divergence points). ns/op is per tuple across all Q queries: private
// grows linearly in Q, shared stays near-flat.
func BenchmarkQueryDensity(b *testing.B) {
	for _, q := range []int{1, 16, 256} {
		for _, mode := range []string{"private", "shared"} {
			b.Run(fmt.Sprintf("Q=%d/%s", q, mode), func(b *testing.B) {
				qd := newQueryDensity(b, q, mode == "shared")
				b.ReportAllocs()
				b.ResetTimer()
				ts := vtime.Time(0)
				for i := 0; i < b.N; i++ {
					ts = qd.feed(i, ts)
				}
			})
		}
	}
}
