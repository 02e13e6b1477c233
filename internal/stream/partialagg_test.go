package stream

import (
	"fmt"
	"math/rand"
	"testing"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// twoPhase assembles PartialAggregate×p → Merge → FinalMerge → Materialize
// over in, returning the per-shard partial stages and the result. The
// partials are driven directly (no ShardSet) so tests control routing.
func twoPhase(t *testing.T, in *data.Schema, p int, groupBy []string, specs []AggSpec, having expr.Expr) ([]*PartialAggregate, *Materialize) {
	t.Helper()
	out, err := AggOutSchema(in, groupBy, specs)
	if err != nil {
		t.Fatal(err)
	}
	mat := NewMaterialize(out)
	fm, err := NewFinalMerge(mat, in, groupBy, specs, having)
	if err != nil {
		t.Fatal(err)
	}
	merge := NewMerge(fm)
	parts := make([]*PartialAggregate, p)
	for j := range parts {
		pa, err := NewPartialAggregate(merge, in, groupBy, specs)
		if err != nil {
			t.Fatal(err)
		}
		parts[j] = pa
	}
	return parts, mat
}

// serialAgg assembles the one-phase reference: Aggregate → Materialize.
func serialAgg(t *testing.T, in *data.Schema, groupBy []string, specs []AggSpec, having expr.Expr) (*Aggregate, *Materialize) {
	t.Helper()
	out, err := AggOutSchema(in, groupBy, specs)
	if err != nil {
		t.Fatal(err)
	}
	mat := NewMaterialize(out)
	agg, err := NewAggregate(mat, in, groupBy, specs, having)
	if err != nil {
		t.Fatal(err)
	}
	return agg, mat
}

func sameRows(t *testing.T, ctx string, got, want *Materialize) {
	t.Helper()
	g := got.MustSnapshot(nil, -1)
	w := want.MustSnapshot(nil, -1)
	sortByKey(g)
	sortByKey(w)
	if len(g) != len(w) {
		t.Fatalf("%s: two-phase rows %v, want %v", ctx, g, w)
	}
	for i := range w {
		if !g[i].EqualVals(w[i]) {
			t.Fatalf("%s: row %d: two-phase %v, want %v", ctx, i, g[i], w[i])
		}
	}
}

// aggWorkload drives an identical insert+delete workload (every aggregate
// kind, NULL arguments, group churn to zero and back) through the serial
// aggregate and the sharded partial stages, routing by a hash of the group
// column so a group always lands on one shard — and, in the global case,
// spreading one group across every shard.
func aggWorkload(t *testing.T, groupBy []string, having expr.Expr, p int) {
	in := data.NewSchema("r",
		data.Col("g", data.TString), data.Col("v", data.TInt))
	in.IsStream = true
	specs := []AggSpec{
		{Kind: AggCount, Alias: "cnt"},
		{Kind: AggCount, Arg: expr.C("v"), Alias: "cntv"},
		{Kind: AggSum, Arg: expr.C("v"), Alias: "s"},
		{Kind: AggAvg, Arg: expr.C("v"), Alias: "a"},
		{Kind: AggMin, Arg: expr.C("v"), Alias: "lo"},
		{Kind: AggMax, Arg: expr.C("v"), Alias: "hi"},
	}
	agg, want := serialAgg(t, in, groupBy, specs, having)
	parts, got := twoPhase(t, in, p, groupBy, specs, having)

	var hasher data.Hasher
	route := func(tu data.Tuple) *PartialAggregate {
		if len(groupBy) == 0 {
			// Global group: spread the tuples over every shard.
			return parts[int(hasher.Route(tu, nil)%uint64(p))]
		}
		return parts[int(hasher.Route(tu, []int{0})%uint64(p))]
	}

	rng := rand.New(rand.NewSource(7))
	groups := []string{"g0", "g1", "g2", "g3"}
	var live []data.Tuple
	for i := 0; i < 600; i++ {
		if len(live) > 0 && rng.Intn(4) == 0 {
			k := rng.Intn(len(live))
			del := live[k].Negate()
			del.TS = vtime.Time(i)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			agg.Push(del.Clone())
			route(del).Push(del.Clone())
			continue
		}
		v := data.Int(int64(rng.Intn(9) - 4))
		if rng.Intn(8) == 0 {
			v = data.Null
		}
		tu := data.NewTuple(vtime.Time(i), data.Str(groups[rng.Intn(len(groups))]), v)
		live = append(live, tu)
		agg.Push(tu.Clone())
		route(tu).Push(tu.Clone())
	}
	sameRows(t, "steady", got, want)

	// Drain every remaining tuple: both sides must retract down to nothing
	// (or, for the global COUNT(*) group, the same empty-state row).
	for i, tu := range live {
		del := tu.Negate()
		del.TS = vtime.Time(1000 + i)
		agg.Push(del.Clone())
		route(del).Push(del.Clone())
	}
	sameRows(t, "drained", got, want)
}

func TestTwoPhaseGroupedEquivalence(t *testing.T) {
	aggWorkload(t, []string{"g"}, nil, 3)
}

func TestTwoPhaseGlobalEquivalence(t *testing.T) {
	// One global group spread across every shard: the case one-phase
	// sharding cannot handle at all.
	aggWorkload(t, nil, nil, 4)
}

func TestTwoPhaseHavingEquivalence(t *testing.T) {
	having := expr.Bin{Op: expr.OpGt, L: expr.C("cnt"), R: expr.L(3)}
	aggWorkload(t, []string{"g"}, having, 3)
}

func TestTwoPhaseForcedCollisions(t *testing.T) {
	old := testHashMask
	testHashMask = 0
	t.Cleanup(func() { testHashMask = old })
	aggWorkload(t, []string{"g"}, nil, 3)
}

// TestFinalMergeShardInterleaving checks the merge is insensitive to how
// shard contributions interleave: each shard's retract→insert pairs stay
// ordered, but other shards' pairs slot in between.
func TestFinalMergeShardInterleaving(t *testing.T) {
	in := data.NewSchema("r", data.Col("g", data.TString), data.Col("v", data.TInt))
	specs := []AggSpec{
		{Kind: AggSum, Arg: expr.C("v"), Alias: "s"},
		{Kind: AggMin, Arg: expr.C("v"), Alias: "lo"},
	}
	out, err := AggOutSchema(in, []string{"g"}, specs)
	if err != nil {
		t.Fatal(err)
	}
	mat := NewMaterialize(out)
	fm, err := NewFinalMerge(mat, in, []string{"g"}, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	partial := func(cnt, n1 int64, v1 data.Value, n2 int64, v2 data.Value, op data.Op) data.Tuple {
		return data.Tuple{Vals: []data.Value{data.Str("g0"),
			data.Int(cnt), data.Int(n1), v1, data.Int(n2), v2}, Op: op}
	}
	// Shard A contributes (2 tuples, sum 7, min 3); shard B interleaves its
	// own replacement between A's retract and insert.
	fm.Push(partial(2, 2, data.Float(7), 2, data.Float(3), data.Insert))
	fm.Push(partial(1, 1, data.Float(5), 1, data.Float(5), data.Insert))
	fm.Push(partial(2, 2, data.Float(7), 2, data.Float(3), data.Delete)) // A retracts…
	fm.Push(partial(1, 1, data.Float(5), 1, data.Float(5), data.Delete)) // B swaps in between
	fm.Push(partial(2, 2, data.Float(9), 2, data.Float(4), data.Insert))
	fm.Push(partial(3, 3, data.Float(9), 3, data.Float(1), data.Insert)) // …A inserts
	rows := mat.MustSnapshot(nil, -1)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if got := rows[0].Vals[1].AsFloat(); got != 18 {
		t.Fatalf("sum = %v, want 18", got)
	}
	if got := rows[0].Vals[2].AsFloat(); got != 1 {
		t.Fatalf("min = %v, want 1", got)
	}
	if fm.Groups() != 1 {
		t.Fatalf("groups = %d", fm.Groups())
	}
}

// TestPartialSchemaShape pins the partial row layout FinalMerge decodes
// positionally.
func TestPartialSchemaShape(t *testing.T) {
	in := data.NewSchema("r", data.Col("g", data.TString), data.Col("v", data.TInt))
	specs := []AggSpec{{Kind: AggAvg, Arg: expr.C("v"), Alias: "a"}}
	ps, err := AggPartialSchema(in, []string{"g"}, specs)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"g", "_cnt", "_n1", "_v1"}
	if ps.Arity() != len(want) {
		t.Fatalf("partial schema = %s", ps)
	}
	for i, n := range want {
		if ps.Cols[i].Name != n {
			t.Fatalf("col %d = %s, want %s", i, ps.Cols[i].Name, n)
		}
	}
	if _, err := AggPartialSchema(in, []string{"nope"}, specs); err == nil {
		t.Fatal("bad group column must fail")
	}
	if _, err := NewPartialAggregate(NewCollector(in), in, []string{"g"}, specs); err == nil {
		t.Fatal("arity mismatch must fail")
	}
}

// TestExprSharderRouting checks computed-key routing: tuples whose key
// expression values are equal land on the same shard, matching the shard a
// column Sharder picks for the expression's value, and deletes follow
// their inserts.
func TestExprSharderRouting(t *testing.T) {
	schema := data.NewSchema("s", data.Col("k", data.TInt), data.Col("v", data.TInt))
	set := NewShardSet(4)
	cols := make([]*Collector, 4)
	// Key expression k+1 over the source column.
	keyExpr := expr.MustBind(expr.Bin{Op: expr.OpAdd, L: expr.C("k"), R: expr.L(1)}, schema)
	sh, err := NewExprSharder(set, "s0", schema, []*expr.Compiled{keyExpr})
	if err != nil {
		t.Fatal(err)
	}
	deployLocal(t, set, nil, func(j int) (map[string]Operator, []Advancer) {
		cols[j] = NewCollector(schema)
		return map[string]Operator{"s0": cols[j]}, nil
	})
	defer set.Close()
	for i := 0; i < 64; i++ {
		sh.Push(data.NewTuple(vtime.Time(i), data.Int(int64(i%8)), data.Int(int64(i))))
	}
	for i := 0; i < 64; i++ {
		tu := data.NewTuple(vtime.Time(100+i), data.Int(int64(i%8)), data.Int(int64(i)))
		sh.Push(tu.Negate())
	}
	set.Flush()

	// Every shard's stream must balance (each delete reached its insert's
	// shard), and each key value must appear on exactly one shard.
	var hasher data.Hasher
	keyShard := map[int64]int{}
	total := 0
	for j, c := range cols {
		byKey := map[int64]int{}
		for _, tu := range c.Snapshot() {
			k := tu.Vals[0].AsInt()
			if tu.Op == data.Delete {
				byKey[k]--
			} else {
				byKey[k]++
			}
			if prev, ok := keyShard[k]; ok && prev != j {
				t.Fatalf("key %d split across shards %d and %d", k, prev, j)
			}
			keyShard[k] = j
			total++
		}
		for k, n := range byKey {
			if n != 0 {
				t.Fatalf("shard %d: key %d unbalanced by %d", j, k, n)
			}
		}
		// The chosen shard must agree with hashing the computed value, the
		// invariant that aligns this exchange with a column exchange on the
		// other side of a join.
		for k := range byKey {
			want := int(hasher.Route(data.Tuple{Vals: []data.Value{data.Int(k + 1)}}, nil) % 4)
			if want != j {
				t.Fatalf("key %d on shard %d, value-hash says %d", k, j, want)
			}
		}
	}
	if total != 128 {
		t.Fatalf("routed %d tuples, want 128", total)
	}
}

// TestTwoPhaseBehindShardSet runs the two-phase pipeline behind a real
// ShardSet/Sharder exchange (global aggregate, shard workers pushing into
// the Merge funnel concurrently) and compares against serial.
func TestTwoPhaseBehindShardSet(t *testing.T) {
	in := data.NewSchema("r", data.Col("g", data.TString), data.Col("v", data.TInt))
	in.IsStream = true
	specs := []AggSpec{
		{Kind: AggCount, Alias: "cnt"},
		{Kind: AggAvg, Arg: expr.C("v"), Alias: "a"},
	}
	agg, want := serialAgg(t, in, nil, specs, nil)
	parts, got := twoPhase(t, in, 4, nil, specs, nil)

	set := NewShardSet(4)
	sh, err := NewSharder(set, "s0", in, nil) // partition on all columns
	if err != nil {
		t.Fatal(err)
	}
	deployLocal(t, set, nil, func(j int) (map[string]Operator, []Advancer) {
		return map[string]Operator{"s0": parts[j]}, nil
	})
	defer set.Close()

	rng := rand.New(rand.NewSource(11))
	var live []data.Tuple
	for i := 0; i < 500; i++ {
		if len(live) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(live))
			del := live[k].Negate()
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			agg.Push(del.Clone())
			sh.Push(del.Clone())
			continue
		}
		tu := data.NewTuple(vtime.Time(i),
			data.Str(fmt.Sprintf("g%d", rng.Intn(5))), data.Int(int64(rng.Intn(7))))
		live = append(live, tu)
		agg.Push(tu.Clone())
		sh.Push(tu.Clone())
	}
	set.Flush()
	sameRows(t, "sharded", got, want)
}
