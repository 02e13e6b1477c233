package stream

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"aspen/internal/data"
	"aspen/internal/expr"
)

// The producers that write into reused memory in front of a consumer that
// keeps nothing — Join and the three aggregates — are driven into every
// consumer kind. A consumer that retains must find every row it was handed
// unchanged after many further batches; a consumer that keeps nothing must
// end with what it would have held had the rows been fresh.

// keeper records every tuple it is handed, as handed and as a deep copy
// taken then.
type keeper struct {
	mu             sync.Mutex // shard workers hand it rows through a Merge
	schema         *data.Schema
	handed, copies []data.Tuple
}

func (k *keeper) Schema() *data.Schema { return k.schema }

func (k *keeper) Push(t data.Tuple) { k.PushBatch([]data.Tuple{t}) }

func (k *keeper) PushBatch(ts []data.Tuple) {
	k.mu.Lock()
	for _, t := range ts {
		k.handed = append(k.handed, t)
		k.copies = append(k.copies, t.Clone())
	}
	k.mu.Unlock()
}

// check fails unless every recorded row still reads as it did when handed.
func (k *keeper) check(t *testing.T, ctx string) {
	t.Helper()
	if len(k.handed) == 0 {
		t.Fatalf("%s: the consumer was handed nothing", ctx)
	}
	for i, h := range k.handed {
		if !bitEqual(h, k.copies[i]) {
			t.Fatalf("%s: row %d of %d now reads %v, was handed as %v", ctx, i, len(k.handed), h, k.copies[i])
		}
	}
}

// reuseProducer builds one producer in front of next and returns the heads
// the two sides of the random stream enter through.
type reuseProducer struct {
	name  string
	out   *data.Schema
	build func(t *testing.T, next Operator) [2]Operator
}

func reuseProducers(t *testing.T) []reuseProducer {
	in := batchSchema("r")
	l, r := batchSchema("l"), batchSchema("r")
	group := []string{"g"}
	return []reuseProducer{
		{"join", l.Concat(r), func(t *testing.T, next Operator) [2]Operator {
			j := must[*Join](t)(NewJoin(next, l, r, group, group, nil))
			return [2]Operator{j.Left(), j.Right()}
		}},
		{"aggregate", must[*data.Schema](t)(AggOutSchema(in, group, batchSpecs)), func(t *testing.T, next Operator) [2]Operator {
			return both(must[*Aggregate](t)(NewAggregate(next, in, group, batchSpecs, nil)))
		}},
		{"partial", must[*data.Schema](t)(AggPartialSchema(in, group, batchSpecs)), func(t *testing.T, next Operator) [2]Operator {
			return both(must[*PartialAggregate](t)(NewPartialAggregate(next, in, group, batchSpecs)))
		}},
		{"final-merge", must[*data.Schema](t)(AggOutSchema(in, group, batchSpecs)), func(t *testing.T, next Operator) [2]Operator {
			fm := must[*FinalMerge](t)(NewFinalMerge(next, in, group, batchSpecs, nil))
			return both(must[*PartialAggregate](t)(NewPartialAggregate(fm, in, group, batchSpecs)))
		}},
	}
}

// retaining puts a pass-through that may keep what it is handed in front of
// op, so nothing upstream of it writes into reused memory.
func retaining(op Operator) Operator {
	return NewCallback(op.Schema(), op.PushBatch)
}

// reuseSegments is the random stream every case replays: about 150
// batches, so the rows handed in the first ones face over 100 more.
func reuseSegments() []segment {
	return randomSegments(rand.New(rand.NewSource(29)), 3000, false)
}

func pushSegments(heads [2]Operator, segs []segment, after func()) {
	for _, seg := range segs {
		heads[seg.side].PushBatch(cloneAll(seg.ts))
		after()
	}
}

func TestReuseOwnership(t *testing.T) {
	segs := reuseSegments()
	for _, p := range reuseProducers(t) {
		s := p.out
		// Consumers that retain: what each was handed, recorded by a keeper.
		retainers := []struct {
			name  string
			build func(*keeper) (Operator, func())
		}{
			{"window", func(k *keeper) (Operator, func()) { return NewRowsWindow(k, 16), func() {} }},
			{"distinct", func(k *keeper) (Operator, func()) { return NewDistinct(k), func() {} }},
			{"fanout", func(k *keeper) (Operator, func()) {
				f := NewFanout(s)
				f.Subscribe(k)
				return f, func() {}
			}},
			{"batch-callback", func(k *keeper) (Operator, func()) {
				return NewCallback(s, k.PushBatch), func() {}
			}},
			{"join", func(k *keeper) (Operator, func()) {
				// A join's left table keeps what the join is handed; no right
				// rows arrive, so the table is all there is to look at.
				j := must[*Join](t)(NewJoin(NewCollector(s.Concat(s)), s, s, nil, nil, nil))
				seen := map[*data.Value]bool{}
				return j.Left(), func() {
					for _, r := range j.recs {
						for _, tu := range r.rows[0] {
							if !seen[&tu.vals[0]] {
								seen[&tu.vals[0]] = true
								k.Push(tu.tuple())
							}
						}
					}
				}
			}},
		}
		for _, rc := range retainers {
			t.Run(p.name+"/into-"+rc.name, func(t *testing.T) {
				k := &keeper{schema: s}
				next, record := rc.build(k)
				pushSegments(p.build(t, next), segs, record)
				k.check(t, fmt.Sprintf("%s into %s", p.name, rc.name))
			})
		}
		t.Run(p.name+"/into-merge", func(t *testing.T) {
			k := &keeper{schema: s}
			merge := NewMerge(k)
			set := NewShardSet(2)
			defer set.Close()
			var heads [2]Operator
			for side, name := range []string{"l", "r"} {
				heads[side] = must[*Sharder](t)(NewSharder(set, name, batchSchema(name), []int{0}))
			}
			deployLocal(t, set, merge, func(int) (map[string]Operator, []Advancer) {
				h := p.build(t, merge)
				return map[string]Operator{"l": h[0], "r": h[1]}, nil
			})
			pushSegments(heads, segs, set.Flush)
			k.check(t, p.name+" into a Merge")
		})
		// In-process replicas end in a ResultSink, which reuses its arena; the
		// set hands the funnel fresh rows when its consumer keeps them.
		t.Run(p.name+"/into-replica-sink", func(t *testing.T) {
			k := &keeper{schema: s}
			set := NewShardSet(2)
			defer set.Close()
			var heads [2]Operator
			for side, name := range []string{"l", "r"} {
				heads[side] = must[*Sharder](t)(NewSharder(set, name, batchSchema(name), []int{0}))
			}
			err := set.Deploy(ShardConfig{Sink: NewMerge(k), LocalDeploy: func(_ []byte, _ int, _ []byte, send ResultSender) (map[string]Operator, []Advancer, []Checkpointer, error) {
				sink := NewResultSink(s, send)
				h := p.build(t, sink)
				return map[string]Operator{"l": sink.Entry(h[0]), "r": sink.Entry(h[1])}, nil, nil, nil
			}}, make([]string, 2), nil)
			if err != nil {
				t.Fatal(err)
			}
			pushSegments(heads, segs, set.Flush)
			k.check(t, p.name+" through a replica's ResultSink into a Merge")
		})

		// Consumers that keep nothing: the same result as behind a
		// pass-through that retains.
		items := make([]ProjectItem, s.Arity())
		for i, c := range s.Cols {
			items[i] = ProjectItem{Expr: expr.C(c.QName()), Alias: fmt.Sprintf("c%d", i)}
		}
		projOut := must[*data.Schema](t)(OutSchema(s, items))
		countBy := []string{s.Cols[0].QName()}
		counts := []AggSpec{{Kind: AggCount, Alias: "n"}, {Kind: AggMax, Arg: expr.C(s.Cols[1].QName()), Alias: "hi"}}
		countOut := must[*data.Schema](t)(AggOutSchema(s, countBy, counts))
		sinks := []struct {
			name   string
			schema *data.Schema // of the Materialize behind the consumer
			build  func(mat *Materialize) Operator
		}{
			{"materialize", s, func(mat *Materialize) Operator { return mat }},
			{"project", projOut, func(mat *Materialize) Operator {
				return must[*Project](t)(NewProject(mat, s, items))
			}},
			{"aggregate", countOut, func(mat *Materialize) Operator {
				return must[*Aggregate](t)(NewAggregate(mat, s, countBy, counts, nil))
			}},
			{"partial", countOut, func(mat *Materialize) Operator {
				fm := must[*FinalMerge](t)(NewFinalMerge(mat, s, countBy, counts, nil))
				return must[*PartialAggregate](t)(NewPartialAggregate(fm, s, countBy, counts))
			}},
		}
		for _, sc := range sinks {
			t.Run(p.name+"/into-"+sc.name, func(t *testing.T) {
				got, want := NewMaterialize(sc.schema), NewMaterialize(sc.schema)
				pushSegments(p.build(t, sc.build(got)), segs, func() {})
				pushSegments(p.build(t, retaining(sc.build(want))), segs, func() {})
				if got.Len() == 0 {
					t.Fatal("nothing materialized")
				}
				requireBitEqual(t, p.name+" into "+sc.name, got, want)
			})
		}
		t.Run(p.name+"/into-collector", func(t *testing.T) {
			got, want := NewCollector(s), NewCollector(s)
			pushSegments(p.build(t, got), segs, func() {})
			pushSegments(p.build(t, retaining(want)), segs, func() {})
			g, w := got.Snapshot(), want.Snapshot()
			if len(g) == 0 || len(g) != len(w) {
				t.Fatalf("collected %d rows, want %d", len(g), len(w))
			}
			for i := range w {
				if !bitEqual(g[i], w[i]) || g[i].TS != w[i].TS || g[i].Op != w[i].Op {
					t.Fatalf("row %d = %v, want %v", i, g[i], w[i])
				}
			}
		})
	}

	// A FinalMerge keeps nothing of the partial rows it is handed.
	t.Run("partial/into-final-merge", func(t *testing.T) {
		in, group := batchSchema("r"), []string{"g"}
		out := must[*data.Schema](t)(AggOutSchema(in, group, batchSpecs))
		build := func(mat *Materialize, retain bool) [2]Operator {
			var fm Operator = must[*FinalMerge](t)(NewFinalMerge(mat, in, group, batchSpecs, nil))
			if retain {
				fm = retaining(fm)
			}
			pa := must[*PartialAggregate](t)(NewPartialAggregate(fm, in, group, batchSpecs))
			return [2]Operator{pa, pa}
		}
		got, want := NewMaterialize(out), NewMaterialize(out)
		pushSegments(build(got, false), segs, func() {})
		pushSegments(build(want, true), segs, func() {})
		requireBitEqual(t, "partial into final merge", got, want)
	})

	// The arena a join returns to the pool holds nothing: the next Get on
	// this goroutine gets it back (under the race detector the pool may drop
	// it, and the check passes vacuously).
	t.Run("join/arena-cleared", func(t *testing.T) {
		p := reuseProducers(t)[0]
		pushSegments(p.build(t, NewCollector(p.out)), segs, func() {})
		a := joinArenas.Get().(*[]data.Value)
		defer joinArenas.Put(a)
		for i, v := range (*a)[:cap(*a)] {
			if v != (data.Value{}) {
				t.Fatalf("a pooled join arena still holds %v at %d of %d", v, i, cap(*a))
			}
		}
	})
}
