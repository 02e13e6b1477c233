package stream

import (
	"fmt"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/testproc"
	"aspen/internal/vtime"
)

// shardPipe is one built join+aggregate pipeline under test: the entry
// windows (serial) or sharders (parallel), its materialized result, and
// the hooks to advance clocks and quiesce.
type shardPipe struct {
	left, right Operator
	mat         *Materialize
	advance     func(now vtime.Time)
	flush       func()
	close       func()
}

// buildJoinAgg builds the window → join → AVG → Materialize pipeline that
// the shard differentials, TestJoinAggAllocs and BenchmarkJoinAgg share.
// p = 0 builds it serial. p ≥ 1 builds p in-process replicas behind
// Sharders keyed on k, merging into one Materialize. global drops the
// GROUP BY: each replica then ends in a PartialAggregate, and one serial
// FinalMerge behind the funnel combines the shards' partial states.
func buildJoinAgg(tb testing.TB, win time.Duration, p int, global bool) *shardPipe {
	tb.Helper()
	left := data.NewSchema("a", data.Col("k", data.TInt), data.Col("v", data.TFloat))
	right := data.NewSchema("bb", data.Col("k", data.TInt), data.Col("w", data.TFloat))
	joined := left.Concat(right)
	specs := []AggSpec{{Kind: AggAvg, Arg: expr.C("v"), Alias: "m"}}
	groupBy := []string{"a.k"}
	if global {
		groupBy = nil
	}
	mat := NewMaterialize(must[*data.Schema](tb)(AggOutSchema(joined, groupBy, specs)))
	replica := func(next Operator, partial bool) (*Window, *Window) {
		var agg Operator
		if partial {
			agg = must[*PartialAggregate](tb)(NewPartialAggregate(next, joined, groupBy, specs))
		} else {
			agg = must[*Aggregate](tb)(NewAggregate(next, joined, groupBy, specs, nil))
		}
		j := must[*Join](tb)(NewJoin(agg, left, right, []string{"a.k"}, []string{"bb.k"}, nil))
		return NewTimeWindow(j.Left(), win, 0), NewTimeWindow(j.Right(), win, 0)
	}
	if p == 0 {
		wl, wr := replica(mat, false)
		return &shardPipe{
			left: wl, right: wr, mat: mat,
			advance: func(now vtime.Time) { wl.Advance(now); wr.Advance(now) },
			flush:   func() {},
			close:   func() {},
		}
	}
	var sink Operator = mat
	if global {
		sink = must[*FinalMerge](tb)(NewFinalMerge(mat, joined, groupBy, specs, nil))
	}
	merge := NewMerge(sink)
	set := NewShardSet(p)
	lsh := must[*Sharder](tb)(NewSharder(set, "l", left, []int{0}))
	rsh := must[*Sharder](tb)(NewSharder(set, "r", right, []int{0}))
	deployLocal(tb, set, merge, func(int) (map[string]Operator, []Advancer) {
		wl, wr := replica(merge, global)
		return map[string]Operator{"l": wl, "r": wr}, []Advancer{wl, wr}
	})
	return &shardPipe{
		left: lsh, right: rsh, mat: mat,
		advance: set.Advance,
		flush:   set.Flush,
		close:   set.Close,
	}
}

// epochGen generates the join+aggregate workload one 64-tuple epoch at a
// time, with timestamps 50 ms apart. Tuples alternate between the two
// inputs, and each left tuple shares its key with the right tuple after it
// (key (i+k)/2 mod 64), so every arrival finds partners in the other window
// and the aggregate and Materialize see every epoch. The two batch slices
// are reused from epoch to epoch; the Vals are not, because windows keep
// the tuples they are pushed.
type epochGen struct {
	lb, rb []data.Tuple
	i      int
	ts     vtime.Time
}

const genEpoch = 64

// next returns the following epoch's left and right batches, valid until the
// next call.
func (g *epochGen) next() (lb, rb []data.Tuple) {
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
	return g.lb, g.rb
}

// feed pushes the next epoch as one batch per input.
func (g *epochGen) feed(p *shardPipe) {
	lb, rb := g.next()
	p.left.PushBatch(lb)
	p.right.PushBatch(rb)
}

// TestJoinAggAllocs pins what one 64-tuple epoch, with a Flush after it,
// allocates once the pipeline is warm (400 epochs: windows, join tables,
// groups, the row arena and the shard buffer freelist have grown). Every
// allocation has an owner:
//
//   - 1, the epoch's Vals, which windows keep;
//   - 1 when sharded, Flush's WaitGroup, which escapes into the barrier
//     messages.
//
// Windows, joins, aggregates, Sharder routing, the shard queues, the Merge
// funnel and Materialize allocate nothing: a join writes its rows into a
// pooled arena and an aggregate builds each row in the one it last
// retracted, because their consumers keep nothing — the aggregate, and
// Materialize or FinalMerge behind the Merge funnel, which keeps what its
// consumer keeps (the grouped rows each replica sends into the funnel, and
// the global AVG's partial rows, each cost one Vals until it did). Neither
// does a group the FinalMerge re-creates: at P=1 the one shard's retraction
// of its partial row empties the global group, and its replacement takes
// over the retired group's record — key, aggregate slots and spare row — and
// its index slot is a (hash, id) pair. The counts are measured across the
// barrier: without it, whether a shard's batch buffer comes from the
// freelist depends on worker scheduling. Under the race detector sync.Pool
// drops items at random, so the counts, whose every path crosses the join's
// arena pool, are checked only without it.
func TestJoinAggAllocs(t *testing.T) {
	type allocCase struct {
		name   string
		p      int
		global bool
		push   bool // one Push per tuple instead of one PushBatch per input
	}
	cases := []allocCase{
		{name: "serial/Push", push: true},
		{name: "serial/PushBatch"},
		{name: "P=1", p: 1},
		{name: "P=2", p: 2},
		{name: "P=4", p: 4},
		{name: "P=8", p: 8},
		{name: "glob/P=1", p: 1, global: true},
		{name: "glob/P=2", p: 2, global: true},
		{name: "glob/P=4", p: 4, global: true},
		{name: "glob/P=8", p: 8, global: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pipe := buildJoinAgg(t, 10*time.Second, c.p, c.global)
			defer pipe.close()
			var g epochGen
			epoch := func() {
				if c.push {
					lb, rb := g.next()
					for k := range lb {
						pipe.left.Push(lb[k])
						pipe.right.Push(rb[k])
					}
				} else {
					g.feed(pipe)
				}
				pipe.flush()
			}
			for range 400 {
				epoch()
			}
			want := 1
			if c.p > 0 {
				want++
			}
			if n := testing.AllocsPerRun(200, epoch); n != float64(want) && !testproc.Race {
				t.Errorf("one epoch allocates %v times, want %d", n, want)
			}
			if pipe.mat.Len() == 0 {
				t.Fatal("the pipeline materialized nothing")
			}
		})
	}
}

// BenchmarkJoinAgg is the join+aggregate pipeline's per-tuple cost: serial,
// behind P in-process replicas (P=n), and with the global AVG's two-phase
// path (glob/P=n). Run it at several GOMAXPROCS to see the shard sweep:
//
//	go test -run '^$' -bench JoinAgg -cpu 1,2,4,8 ./internal/stream/
func BenchmarkJoinAgg(b *testing.B) {
	run := func(b *testing.B, p int, global bool) {
		pipe := buildJoinAgg(b, 10*time.Second, p, global)
		defer pipe.close()
		var g epochGen
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i += genEpoch {
			g.feed(pipe)
		}
		pipe.flush()
	}
	b.Run("serial", func(b *testing.B) { run(b, 0, false) })
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) { run(b, p, false) })
		b.Run(fmt.Sprintf("glob/P=%d", p), func(b *testing.B) { run(b, p, true) })
	}
}
