package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// The batch path of every operator kind must be invisible in the result:
// cutting one delta stream into batches any way at all gives, at every cut,
// bit for bit the Materialize contents and the checkpoint state that pushing
// the tuples one by one gives, while the aggregates' own output stays a
// well-formed delta stream that changes a group at most once per batch.

// deltaCheck sits behind an aggregate and fails the test when the stream it
// forwards is not well-formed: a retraction of a row not currently asserted,
// a second live row for one group, or (once set, for operators on the batch
// path) more than one retraction and one insertion per group between two
// endBatch calls.
type deltaCheck struct {
	t    *testing.T
	name string
	next Operator
	key  []int // the leading grouping columns
	once bool
	live map[string]string // group key → key of its asserted row
	seen map[string]data.Op
}

func newDeltaCheck(t *testing.T, name string, next Operator, nKey int, once bool) *deltaCheck {
	c := &deltaCheck{t: t, name: name, next: next, once: once,
		key: make([]int, nKey), live: map[string]string{}, seen: map[string]data.Op{}}
	for i := range c.key {
		c.key[i] = i
	}
	return c
}

func (c *deltaCheck) Schema() *data.Schema { return c.next.Schema() }

func (c *deltaCheck) Push(t data.Tuple) { c.PushBatch([]data.Tuple{t}) }

func (c *deltaCheck) PushBatch(ts []data.Tuple) {
	c.t.Helper()
	for _, t := range ts {
		g, row := t.KeyOn(c.key), t.Key()
		last, changed := c.seen[g]
		switch t.Op {
		case data.Delete:
			if c.live[g] != row {
				c.t.Fatalf("%s: retracts %v, group asserts %q", c.name, t, c.live[g])
			}
			delete(c.live, g)
			if c.once && changed {
				c.t.Fatalf("%s: group %q retracted after a %v in the same batch", c.name, g, last)
			}
		case data.Insert:
			if old, ok := c.live[g]; ok {
				c.t.Fatalf("%s: inserts %v over live row %q", c.name, t, old)
			}
			c.live[g] = row
			if c.once && changed && last == data.Insert {
				c.t.Fatalf("%s: group %q inserted twice in one batch", c.name, g)
			}
		}
		c.seen[g] = t.Op
	}
	c.next.PushBatch(ts)
}

func (c *deltaCheck) endBatch() { clear(c.seen) }

// batchRig is one pipeline under test. A segment of the random stream enters
// through pushBatch in the run under test and through push, tuple by tuple,
// in the reference run; side picks the join input and is ignored elsewhere.
type batchRig struct {
	push      func(side int, t data.Tuple)
	pushBatch func(side int, ts []data.Tuple)
	// tick, when set, runs after every segment in every run: a clock tick
	// for the window rigs, a flush barrier for the sharded one.
	tick   func(now vtime.Time)
	cks    []Checkpointer // every stateful operator, the result included
	checks []*deltaCheck
	mat    *Materialize
}

func (r *batchRig) endBatch() {
	for _, c := range r.checks {
		c.endBatch()
	}
}

// restoreFrom makes r, freshly built, continue where from stands: operator
// state through an encoded checkpoint, and the checkers' view of what is
// asserted, which is test state and not the operators'.
func (r *batchRig) restoreFrom(t *testing.T, from *batchRig) {
	t.Helper()
	state, err := EncodeCheckpoint(from.cks)
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreCheckpoint(r.cks, state); err != nil {
		t.Fatal(err)
	}
	for i, c := range r.checks {
		c.live = from.checks[i].live
	}
}

var batchSpecs = []AggSpec{
	{Kind: AggCount, Alias: "cnt"},
	{Kind: AggCount, Arg: expr.C("v"), Alias: "cntv"},
	{Kind: AggSum, Arg: expr.C("v"), Alias: "s"},
	{Kind: AggAvg, Arg: expr.C("v"), Alias: "a"},
	{Kind: AggMin, Arg: expr.C("v"), Alias: "lo"},
	{Kind: AggMax, Arg: expr.C("v"), Alias: "hi"},
}

func batchSchema(name string) *data.Schema {
	s := data.NewSchema(name, data.Col("g", data.TString), data.Col("v", data.TFloat))
	s.IsStream = true
	return s
}

func must[T any](t testing.TB) func(T, error) T {
	return func(v T, err error) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// aggRig is Aggregate → Materialize.
func aggRig(t *testing.T, having expr.Expr) *batchRig {
	in := batchSchema("r")
	mat := NewMaterialize(must[*data.Schema](t)(AggOutSchema(in, []string{"g"}, batchSpecs)))
	chk := newDeltaCheck(t, "aggregate", mat, 1, true)
	agg := must[*Aggregate](t)(NewAggregate(chk, in, []string{"g"}, batchSpecs, having))
	rig := headsRig(both(agg), []Checkpointer{agg, mat}, mat)
	rig.checks = []*deltaCheck{chk}
	return rig
}

// twoPhaseRig is 3 × PartialAggregate → Merge → FinalMerge → Materialize,
// routed by group so that a group's merged float sum sees one shard's
// deltas in one order, batched or not.
func twoPhaseRig(t *testing.T, having expr.Expr) *batchRig {
	const shards = 3
	in := batchSchema("r")
	mat := NewMaterialize(must[*data.Schema](t)(AggOutSchema(in, []string{"g"}, batchSpecs)))
	final := newDeltaCheck(t, "final merge", mat, 1, false)
	fm := must[*FinalMerge](t)(NewFinalMerge(final, in, []string{"g"}, batchSpecs, having))
	merge := NewMerge(fm)
	rig := &batchRig{cks: []Checkpointer{fm, mat}, checks: []*deltaCheck{final}, mat: mat}
	parts := make([]*PartialAggregate, shards)
	for j := range parts {
		chk := newDeltaCheck(t, fmt.Sprintf("partial %d", j), merge, 1, true)
		parts[j] = must[*PartialAggregate](t)(NewPartialAggregate(chk, in, []string{"g"}, batchSpecs))
		rig.cks = append(rig.cks, parts[j])
		rig.checks = append(rig.checks, chk)
	}
	var hasher data.Hasher
	route := func(tu data.Tuple) int { return int(hasher.Route(tu, []int{0}) % shards) }
	rig.push = func(_ int, tu data.Tuple) { parts[route(tu)].Push(tu) }
	rig.pushBatch = func(_ int, ts []data.Tuple) {
		var sub [shards][]data.Tuple
		for _, tu := range ts {
			sub[route(tu)] = append(sub[route(tu)], tu)
		}
		for j, b := range sub {
			parts[j].PushBatch(b)
		}
	}
	return rig
}

// joinRig is Join → Aggregate → Materialize: the joined rows of one input
// batch reach the aggregate as one batch.
func joinRig(t *testing.T, having expr.Expr) *batchRig {
	l, r := batchSchema("l"), batchSchema("r")
	joined := l.Concat(r)
	mat := NewMaterialize(must[*data.Schema](t)(AggOutSchema(joined, []string{"l.g"}, joinSpecs)))
	chk := newDeltaCheck(t, "join aggregate", mat, 1, true)
	agg := must[*Aggregate](t)(NewAggregate(chk, joined, []string{"l.g"}, joinSpecs, having))
	j := must[*Join](t)(NewJoin(agg, l, r, []string{"g"}, []string{"g"}, nil))
	rig := headsRig(joinSides(j), []Checkpointer{j, agg, mat}, mat)
	rig.checks = []*deltaCheck{chk}
	return rig
}

// joinSpecs are the aggregates the join rigs fold: every kind, MIN and MAX
// over both join inputs.
var joinSpecs = []AggSpec{
	{Kind: AggCount, Alias: "cnt"},
	{Kind: AggSum, Arg: expr.C("l.v"), Alias: "s"},
	{Kind: AggAvg, Arg: expr.C("r.v"), Alias: "a"},
	{Kind: AggMin, Arg: expr.C("r.v"), Alias: "lo"},
	{Kind: AggMax, Arg: expr.C("l.v"), Alias: "hi"},
}

// The reuse rigs put a consumer that keeps nothing behind every producer, so
// the join writes its rows into a pooled arena and the aggregates build rows
// in the ones they retracted. With retain set, a pass-through that may keep
// what it is handed (retaining) sits in front of each such consumer instead,
// and every row is fresh: the twin whose checkpoints the reuse run must
// match.

// joinReuseRig is Join → Aggregate → Materialize.
func joinReuseRig(t *testing.T, having expr.Expr, retain bool) *batchRig {
	l, r := batchSchema("l"), batchSchema("r")
	joined := l.Concat(r)
	mat := NewMaterialize(must[*data.Schema](t)(AggOutSchema(joined, []string{"l.g"}, joinSpecs)))
	agg := must[*Aggregate](t)(NewAggregate(maybeRetaining(mat, retain), joined, []string{"l.g"}, joinSpecs, having))
	j := must[*Join](t)(NewJoin(maybeRetaining(agg, retain), l, r, []string{"g"}, []string{"g"}, nil))
	return headsRig(joinSides(j), []Checkpointer{j, agg, mat}, mat)
}

// joinTwoPhaseReuseRig is Join → PartialAggregate → FinalMerge → Materialize.
func joinTwoPhaseReuseRig(t *testing.T, having expr.Expr, retain bool) *batchRig {
	l, r := batchSchema("l"), batchSchema("r")
	joined := l.Concat(r)
	mat := NewMaterialize(must[*data.Schema](t)(AggOutSchema(joined, []string{"l.g"}, joinSpecs)))
	fm := must[*FinalMerge](t)(NewFinalMerge(maybeRetaining(mat, retain), joined, []string{"l.g"}, joinSpecs, having))
	pa := must[*PartialAggregate](t)(NewPartialAggregate(maybeRetaining(fm, retain), joined, []string{"l.g"}, joinSpecs))
	j := must[*Join](t)(NewJoin(maybeRetaining(pa, retain), l, r, []string{"g"}, []string{"g"}, nil))
	return headsRig(joinSides(j), []Checkpointer{j, pa, fm, mat}, mat)
}

// joinProjectReuseRig is Join → Project → Materialize; it has no HAVING.
func joinProjectReuseRig(t *testing.T, _ expr.Expr, retain bool) *batchRig {
	l, r := batchSchema("l"), batchSchema("r")
	joined := l.Concat(r)
	items := []ProjectItem{
		{Expr: expr.C("l.g")},
		{Expr: expr.Bin{Op: expr.OpAdd, L: expr.C("l.v"), R: expr.C("r.v")}, Alias: "sum"},
		{Expr: expr.C("r.v")},
	}
	mat := NewMaterialize(must[*data.Schema](t)(OutSchema(joined, items)))
	p := must[*Project](t)(NewProject(maybeRetaining(mat, retain), joined, items))
	j := must[*Join](t)(NewJoin(maybeRetaining(p, retain), l, r, []string{"g"}, []string{"g"}, nil))
	return headsRig(joinSides(j), []Checkpointer{j, mat}, mat)
}

func maybeRetaining(op Operator, retain bool) Operator {
	if retain {
		return retaining(op)
	}
	return op
}

// headsRig is a rig fed through heads, one per side of the stream.
func headsRig(heads [2]Operator, cks []Checkpointer, mat *Materialize) *batchRig {
	return &batchRig{
		push:      func(side int, tu data.Tuple) { heads[side].Push(tu) },
		pushBatch: func(side int, ts []data.Tuple) { heads[side].PushBatch(ts) },
		cks:       cks, mat: mat,
	}
}

// joinSides are j's two inputs; both is op on either side.
func joinSides(j *Join) [2]Operator { return [2]Operator{j.Left(), j.Right()} }
func both(op Operator) [2]Operator  { return [2]Operator{op, op} }

// The rigs below put one operator kind each in front of the result, so the
// batch path under test is that operator's own.

// filterRig is Filter → Materialize.
func filterRig(t *testing.T, _ expr.Expr) *batchRig {
	in := batchSchema("r")
	mat := NewMaterialize(in)
	f := NewFilter(mat, expr.MustBind(expr.Bin{Op: expr.OpGt, L: expr.C("v"), R: expr.L(0.0)}, in))
	return headsRig(both(f), []Checkpointer{mat}, mat)
}

// projectReuseRig is Project → Materialize.
func projectReuseRig(t *testing.T, _ expr.Expr, retain bool) *batchRig {
	in := batchSchema("r")
	items := []ProjectItem{{Expr: expr.C("g")}, {Expr: expr.Bin{Op: expr.OpMul, L: expr.C("v"), R: expr.L(2.0)}, Alias: "d"}}
	mat := NewMaterialize(must[*data.Schema](t)(OutSchema(in, items)))
	p := must[*Project](t)(NewProject(maybeRetaining(mat, retain), in, items))
	return headsRig(both(p), []Checkpointer{mat}, mat)
}

// windowRig is Window → Materialize for one window kind. The stream's
// timestamps are 1 ns apart, so a 200 ns time window expires on event time,
// and every segment ends with a tick 100 ns past its last tuple. A delete
// retracts a live tuple, one the window let go, or one it never saw.
func windowRig(mk func(next Operator) *Window) func(*testing.T, expr.Expr) *batchRig {
	return func(t *testing.T, _ expr.Expr) *batchRig {
		mat := NewMaterialize(batchSchema("r"))
		w := mk(mat)
		rig := headsRig(both(w), []Checkpointer{w, mat}, mat)
		rig.tick = w.Advance
		return rig
	}
}

// distinctRig is Project(g) → Distinct → Materialize: projected to its
// group, the stream repeats rows all the time, and a ghost delete addresses
// a row the Distinct never saw.
func distinctRig(t *testing.T, _ expr.Expr) *batchRig {
	in := batchSchema("r")
	items := []ProjectItem{{Expr: expr.C("g")}}
	out := must[*data.Schema](t)(OutSchema(in, items))
	mat := NewMaterialize(out)
	d := NewDistinct(mat)
	p := must[*Project](t)(NewProject(d, in, items))
	return headsRig(both(p), []Checkpointer{d, mat}, mat)
}

// fanoutRig is a Fanout into a GroupedFilter of three members (two answered
// by its index, one evaluated whole), a Filter and a Distinct, all into one
// Materialize, where a tuple counts once per path that passes it.
func fanoutRig(t *testing.T, _ expr.Expr) *batchRig {
	in := batchSchema("r")
	mat := NewMaterialize(in)
	pred := func(e expr.Expr) *expr.Compiled { return expr.MustBind(e, in) }
	g := NewGroupedFilter(in)
	g.Add(mat, pred(expr.Bin{Op: expr.OpGt, L: expr.C("v"), R: expr.L(0.0)}))
	g.Add(mat, pred(expr.Bin{Op: expr.OpEq, L: expr.C("g"), R: expr.L("a")}))
	g.Add(mat, pred(expr.Bin{Op: expr.OpOr, L: expr.Bin{Op: expr.OpLt, L: expr.C("v"), R: expr.L(-50.0)},
		R: expr.Bin{Op: expr.OpEq, L: expr.C("g"), R: expr.L("b")}}))
	d := NewDistinct(mat)
	f := NewFanout(in)
	f.Subscribe(g)
	f.Subscribe(NewFilter(mat, pred(expr.Bin{Op: expr.OpLe, L: expr.C("v"), R: expr.L(0.0)})))
	f.Subscribe(d)
	return headsRig(both(f), []Checkpointer{d, mat}, mat)
}

// shardRig is a Sharder keyed on the group into two in-process replicas of
// Aggregate → Merge → Materialize: a group's deltas stay on one shard, in
// order, so its float sums are the per-tuple run's bit for bit.
func shardRig(t *testing.T, having expr.Expr) *batchRig {
	in := batchSchema("r")
	mat := NewMaterialize(must[*data.Schema](t)(AggOutSchema(in, []string{"g"}, batchSpecs)))
	merge := NewMerge(mat)
	set := NewShardSet(2)
	t.Cleanup(set.Close)
	sh := must[*Sharder](t)(NewSharder(set, "in", in, []int{0}))
	var aggs [2]*Aggregate
	deployLocal(t, set, merge, func(shard int) (map[string]Operator, []Advancer) {
		aggs[shard] = must[*Aggregate](t)(NewAggregate(merge, in, []string{"g"}, batchSpecs, having))
		return map[string]Operator{"in": aggs[shard]}, nil
	})
	rig := headsRig(both(sh), []Checkpointer{aggs[0], aggs[1], mat}, mat)
	rig.tick = func(vtime.Time) { set.Flush() }
	return rig
}

// finalMergeRig hands a FinalMerge partial-state rows directly: each tuple
// of the stream becomes the partial row of a shard holding that tuple alone,
// and its delete retracts that row. The merged groups then hold the
// aggregates of the live tuples, and a group's count goes through zero
// whenever its last tuple leaves, inside a batch or not.
func finalMergeRig(t *testing.T, having expr.Expr) *batchRig {
	in := batchSchema("r")
	mat := NewMaterialize(must[*data.Schema](t)(AggOutSchema(in, []string{"g"}, batchSpecs)))
	chk := newDeltaCheck(t, "final merge", mat, 1, false)
	fm := must[*FinalMerge](t)(NewFinalMerge(chk, in, []string{"g"}, batchSpecs, having))
	partial := func(ts []data.Tuple) []data.Tuple {
		out := make([]data.Tuple, len(ts))
		for i, tu := range ts {
			v := tu.Vals[1]
			row := []data.Value{tu.Vals[0], data.Int(1)}
			for _, s := range batchSpecs {
				n, pv := int64(1), v
				if s.Arg != nil && v.IsNull() {
					n = 0
				}
				if s.Kind == AggCount {
					pv = data.Null
				}
				row = append(row, data.Int(n), pv)
			}
			out[i] = data.Tuple{Vals: row, TS: tu.TS, Op: tu.Op}
		}
		return out
	}
	rig := headsRig(both(NewCallback(in, func(ts []data.Tuple) { fm.PushBatch(partial(ts)) })),
		[]Checkpointer{fm, mat}, mat)
	rig.checks = []*deltaCheck{chk}
	return rig
}

// canonState decodes an EncodeCheckpoint payload into a form two runs that
// hold the same state agree on: hash-table and group order sorted by key.
// The payload bytes themselves differ between identical runs, because gob
// encodes maps (the aggregates' value multisets) in map order.
func canonState(t *testing.T, payload []byte) []OpState {
	t.Helper()
	var states []OpState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&states); err != nil {
		t.Fatal(err)
	}
	// order returns the permutation that sorts n items by key, then by tie.
	order := func(n int, key func(int) string, tie func(int) vtime.Time) []int {
		keys, idx := make([]string, n), make([]int, n)
		for i := range idx {
			keys[i], idx[i] = key(i), i
		}
		sort.Slice(idx, func(a, b int) bool {
			if ka, kb := keys[idx[a]], keys[idx[b]]; ka != kb {
				return ka < kb
			}
			return tie(idx[a]) < tie(idx[b])
		})
		return idx
	}
	byKey := func(ts []data.Tuple) []data.Tuple {
		out := make([]data.Tuple, len(ts))
		for i, k := range order(len(ts), func(i int) string { return ts[i].Key() }, func(i int) vtime.Time { return ts[i].TS }) {
			out[i] = ts[k]
		}
		return out
	}
	noTie := func(int) vtime.Time { return 0 }
	// A multiset row keeps the timestamp of whichever equal copy came first,
	// which net emission legitimately moves, so rows compare by value.
	byKeyCounted := func(rows []data.Tuple, counts []int64) ([]data.Tuple, []int64) {
		ts, cs := make([]data.Tuple, len(rows)), make([]int64, len(rows))
		for i, k := range order(len(ts), func(i int) string { return rows[i].Key() }, noTie) {
			ts[i], cs[i] = data.Tuple{Vals: rows[k].Vals, Op: rows[k].Op}, counts[k]
		}
		return ts, cs
	}
	for _, s := range states {
		switch {
		case s.Join != nil:
			s.Join.L, s.Join.R = byKey(s.Join.L), byKey(s.Join.R)
		case s.Groups != nil:
			gs := s.Groups.Groups
			out := make([]GroupState, len(gs))
			for i, k := range order(len(gs), func(i int) string { return data.Tuple{Vals: gs[i].KeyVals}.Key() }, noTie) {
				out[i] = gs[k]
			}
			s.Groups.Groups = out
		case s.Rows != nil:
			s.Rows.Tuples, s.Rows.Counts = byKeyCounted(s.Rows.Tuples, s.Rows.Counts)
		case s.Distinct != nil:
			s.Distinct.Tuples, s.Distinct.Counts = byKeyCounted(s.Distinct.Tuples, s.Distinct.Counts)
		}
	}
	return states
}

// requireSameState fails unless the two rigs' checkpoints hold the same state.
func requireSameState(t *testing.T, ctx string, got, want *batchRig) {
	t.Helper()
	g, err := EncodeCheckpoint(got.cks)
	if err != nil {
		t.Fatal(err)
	}
	w, err := EncodeCheckpoint(want.cks)
	if err != nil {
		t.Fatal(err)
	}
	gs, ws := canonState(t, g), canonState(t, w)
	for i := range ws {
		if !reflect.DeepEqual(gs[i], ws[i]) {
			t.Fatalf("%s: checkpoint state %d differs\ngot:  %s\nwant: %s", ctx, i, opStateString(gs[i]), opStateString(ws[i]))
		}
	}
}

func opStateString(s OpState) string {
	switch {
	case s.Window != nil:
		return fmt.Sprintf("%+v", *s.Window)
	case s.Join != nil:
		return fmt.Sprintf("%+v", *s.Join)
	case s.Distinct != nil:
		return fmt.Sprintf("%+v", *s.Distinct)
	case s.Groups != nil:
		return fmt.Sprintf("%+v", *s.Groups)
	case s.Rows != nil:
		return fmt.Sprintf("%+v", *s.Rows)
	}
	return fmt.Sprintf("%+v", s)
}

type segment struct {
	side int
	ts   []data.Tuple
}

// randomSegments cuts a random insert/delete stream over a handful of groups
// (one of them the NULL group) into batches of 1 to 40 tuples. About half the
// tuples delete a live one, so groups empty and refill all the time, often
// inside one batch; an eighth of the values are NULL. With ghosts set, some
// deletes address a group that never existed.
func randomSegments(rng *rand.Rand, n int, ghosts bool) []segment {
	groups := []data.Value{data.Str("a"), data.Str("b"), data.Str("c"), data.Null}
	var live [2][]data.Tuple
	var segs []segment
	for i := 0; i < n; {
		seg := segment{side: rng.Intn(2)}
		mine := &live[seg.side]
		for k := 1 + rng.Intn(40); k > 0 && i < n; k, i = k-1, i+1 {
			ts := vtime.Time(i)
			switch {
			case ghosts && rng.Intn(16) == 0:
				del := data.NewTuple(ts, data.Str("ghost"), data.Float(1)).Negate()
				seg.ts = append(seg.ts, del)
			case len(*mine) > 0 && rng.Intn(20) < 9:
				at := rng.Intn(len(*mine))
				del := (*mine)[at].Negate()
				del.TS = ts
				(*mine)[at] = (*mine)[len(*mine)-1]
				*mine = (*mine)[:len(*mine)-1]
				seg.ts = append(seg.ts, del)
			default:
				v := data.Float(float64(rng.Intn(4000))/10 - 200) // tenths: sums round
				if rng.Intn(8) == 0 {
					v = data.Null
				}
				tu := data.NewTuple(ts, groups[rng.Intn(len(groups))], v)
				*mine = append(*mine, tu)
				seg.ts = append(seg.ts, tu)
			}
		}
		segs = append(segs, seg)
	}
	return segs
}

func cloneAll(ts []data.Tuple) []data.Tuple {
	out := make([]data.Tuple, len(ts))
	for i, tu := range ts {
		out[i] = tu.Clone()
	}
	return out
}

// requireBitEqual compares two results row by row: same rows, same
// multiplicities, every value of the same type with the same bits.
func requireBitEqual(t *testing.T, ctx string, gotMat, wantMat *Materialize) {
	t.Helper()
	got, want := gotMat.MustSnapshot(nil, -1), wantMat.MustSnapshot(nil, -1)
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d\ngot:  %v\nwant: %v", ctx, len(got), len(want), got, want)
	}
	for i := range want {
		if !bitEqual(got[i], want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", ctx, i, got[i], want[i])
		}
	}
}

func bitEqual(a, b data.Tuple) bool {
	if len(a.Vals) != len(b.Vals) {
		return false
	}
	for i, x := range a.Vals {
		y := b.Vals[i]
		if x.T != y.T || x.I != y.I || x.S != y.S || math.Float64bits(x.F) != math.Float64bits(y.F) {
			return false
		}
	}
	return true
}

func TestBatchCutsMatchPerTuple(t *testing.T) {
	having := expr.Bin{Op: expr.OpGe, L: expr.C("cnt"), R: expr.L(2)}
	rigs := []struct {
		name  string
		build func(*testing.T, expr.Expr) *batchRig
		// reuse, set instead of build, builds a reuse rig (retain false) and
		// its twin without reuse (retain true), which takes the same batches
		// and must hold the same checkpoint state after each.
		reuse    func(t *testing.T, having expr.Expr, retain bool) *batchRig
		ghosts   bool
		noHaving bool
		tuples   int // per seed; 1500 when 0
	}{
		{name: "aggregate", build: aggRig, ghosts: true},
		{name: "two-phase", build: twoPhaseRig, ghosts: true},
		{name: "join-aggregate", build: joinRig}, // a join input never sees a delete of a tuple it did not see
		{name: "join-aggregate-reuse", reuse: joinReuseRig},
		{name: "join-two-phase-reuse", reuse: joinTwoPhaseReuseRig},
		{name: "join-project-reuse", reuse: joinProjectReuseRig, noHaving: true, tuples: 400}, // every joined row reaches the result
		{name: "filter", build: filterRig, ghosts: true, noHaving: true},
		{name: "project-reuse", reuse: projectReuseRig, ghosts: true, noHaving: true},
		{name: "time-window", build: windowRig(func(next Operator) *Window { return NewTimeWindow(next, 200, 0) }), ghosts: true, noHaving: true},
		{name: "slide-window", build: windowRig(func(next Operator) *Window { return NewTimeWindow(next, 200, 50) }), ghosts: true, noHaving: true},
		{name: "rows-window", build: windowRig(func(next Operator) *Window { return NewRowsWindow(next, 6) }), ghosts: true, noHaving: true},
		{name: "now-window", build: windowRig(NewNowWindow), ghosts: true, noHaving: true},
		{name: "distinct", build: distinctRig, ghosts: true, noHaving: true},
		{name: "grouped-filter-fanout", build: fanoutRig, ghosts: true, noHaving: true},
		{name: "sharder-merge", build: shardRig, ghosts: true},
		{name: "final-merge", build: finalMergeRig, ghosts: true},
	}
	for _, rc := range rigs {
		build := rc.build
		if rc.reuse != nil {
			build = func(t *testing.T, h expr.Expr) *batchRig { return rc.reuse(t, h, false) }
		}
		n := rc.tuples
		if n == 0 {
			n = 1500
		}
		for _, mask := range []uint64{^uint64(0), 0} {
			for hi, hv := range []expr.Expr{nil, having} {
				if hi > 0 && rc.noHaving {
					continue
				}
				name := fmt.Sprintf("%s/mask=%x/having=%d", rc.name, mask, hi)
				t.Run(name, func(t *testing.T) {
					defer SetTestHashMask(SetTestHashMask(mask))
					for seed := int64(1); seed <= 8; seed++ {
						rng := rand.New(rand.NewSource(seed))
						segs := randomSegments(rng, n, rc.ghosts)
						ref, rig := build(t, hv), build(t, hv)
						var twin *batchRig
						if rc.reuse != nil {
							twin = rc.reuse(t, hv, true)
						}
						restoreAt := rng.Intn(len(segs))
						for i, seg := range segs {
							ctx := fmt.Sprintf("seed %d segment %d", seed, i)
							if i == restoreAt {
								// A checkpoint between two batches carries
								// everything: a restored pipeline goes on as
								// the original would have.
								fresh := build(t, hv)
								fresh.restoreFrom(t, rig)
								rig = fresh
							}
							for _, tu := range cloneAll(seg.ts) {
								ref.push(seg.side, tu)
								ref.endBatch()
							}
							rig.pushBatch(seg.side, cloneAll(seg.ts))
							rig.endBatch()
							runs := []*batchRig{ref, rig}
							if twin != nil {
								twin.pushBatch(seg.side, cloneAll(seg.ts))
								runs = append(runs, twin)
							}
							for _, r := range runs {
								if r.tick != nil {
									r.tick(seg.ts[len(seg.ts)-1].TS + 100)
								}
							}
							requireBitEqual(t, ctx, rig.mat, ref.mat)
							requireSameState(t, ctx, rig, ref)
							if twin != nil {
								requireSameState(t, ctx, rig, twin)
							}
						}
					}
				})
			}
		}
	}
}

// A group emptied inside a batch retires at that tuple — its row is
// retracted there, a delete that follows is ignored, and a returning key
// starts from fresh state — and everything else the batch did to a group
// shows as one retract+insert after the last tuple.
func TestAggregateBatchRetiresAtZero(t *testing.T) {
	out := must[*data.Schema](t)(AggOutSchema(tempSchema(), []string{"room"},
		[]AggSpec{{Kind: AggSum, Arg: expr.C("temp"), Alias: "s"}}))
	col := NewCollector(out)
	a := must[*Aggregate](t)(NewAggregate(col, tempSchema(), []string{"room"},
		[]AggSpec{{Kind: AggSum, Arg: expr.C("temp"), Alias: "s"}}, nil))
	a.Push(temp(1, "L1", 0.1))
	a.Push(temp(1, "L2", 7))
	col.Reset()

	a.PushBatch([]data.Tuple{
		temp(2, "L1", 0.2),
		temp(3, "L1", 0.2).Negate(),
		temp(4, "L1", 0.1).Negate(), // L1 empties: its row 0.1 leaves here
		temp(5, "L1", 0.3).Negate(), // unknown group now: ignored
		temp(6, "L1", 0.4),          // fresh state: 0.4, not 0.1+0.2-0.2-0.1+0.4
		temp(7, "L1", 0.5),
		temp(8, "L2", 1),
		temp(9, "L2", 1).Negate(), // L2 ends where it began: nothing to emit
		temp(10, "L3", 3),
		temp(11, "L3", 3).Negate(), // L3 came and went inside the batch
	})
	fresh := 0.4
	fresh += 0.5
	want := []data.Tuple{
		data.NewTuple(4*vtime.Second, data.Str("L1"), data.Float(0.1)).Negate(),
		data.NewTuple(7*vtime.Second, data.Str("L1"), data.Float(fresh)),
	}
	got := col.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("emitted %v, want %v", got, want)
	}
	for i := range want {
		if !bitEqual(got[i], want[i]) || got[i].Op != want[i].Op || got[i].TS != want[i].TS {
			t.Fatalf("emission %d = %v, want %v", i, got[i], want[i])
		}
	}
	if a.Groups() != 2 {
		t.Fatalf("groups = %d, want L1 and L2", a.Groups())
	}
	if len(a.table.touched) != 0 {
		t.Fatalf("fold left touched groups listed: %v", a.table.touched)
	}
	for id, g := range a.table.groups {
		if g.touched != 0 {
			t.Fatalf("group %d still marks itself listed at %d", id, g.touched)
		}
	}
}

// The join scratch must not pin the rows of the last batch.
func TestJoinBatchScratchCleared(t *testing.T) {
	col := NewCollector(tempSchema().Concat(tempSchema()))
	j := must[*Join](t)(NewJoin(col, tempSchema(), tempSchema(), []string{"room"}, []string{"room"}, nil))
	j.Right().Push(temp(1, "L1", 1))
	j.Left().PushBatch([]data.Tuple{temp(2, "L1", 2), temp(3, "L1", 3)})
	if col.Len() != 2 {
		t.Fatalf("joined %d rows, want 2", col.Len())
	}
	for _, tu := range j.batch[:cap(j.batch)] {
		if tu.Vals != nil {
			t.Fatalf("scratch still holds %v", tu)
		}
	}
	if !j.reuse || j.arena != nil {
		t.Fatalf("join into a Collector: reuse %t, arena kept after the call", j.reuse)
	}
}

// snapshotLess is the order Snapshot promises, without its sort prefix: the
// ORDER BY columns in the value order, a DESC column's reversed, then the
// whole row.
func snapshotLess(a, b data.Tuple, idx []int, order []OrderSpec) bool {
	for k, j := range idx {
		if c := data.CompareValues(a.Vals[j], b.Vals[j]); c != 0 {
			return c < 0 != order[k].Desc
		}
	}
	return data.CompareRows(a.Vals, b.Vals) < 0
}

// Snapshot sorts by prefix before values and copies rows into one arena:
// under every ORDER BY shape and LIMIT, with every key hashing alike and
// apart, it must read the rows in snapshotLess's order, each copy of a
// duplicate with its first copy's timestamp, and hand out rows that alias
// nothing.
func TestSnapshotOrderMatchesRowOrder(t *testing.T) {
	schema := data.NewSchema("m", data.Col("n", data.TFloat), data.Col("s", data.TString),
		data.Col("b", data.TBool), data.Col("f", data.TFloat))
	orders := [][]OrderSpec{
		nil,
		{{Col: "n"}},
		{{Col: "n", Desc: true}},
		{{Col: "s"}, {Col: "f", Desc: true}},
		{{Col: "b", Desc: true}, {Col: "n"}, {Col: "s", Desc: true}},
	}
	for _, mask := range []uint64{^uint64(0), 0} {
		func() {
			defer SetTestHashMask(SetTestHashMask(mask))
			rng := rand.New(rand.NewSource(int64(mask&1) + 11))
			pick := func(vs ...data.Value) data.Value { return vs[rng.Intn(len(vs))] }
			m := NewMaterialize(schema)
			var ref []data.Tuple // the multiset, duplicates as clones of the first copy, as Materialize keeps them
			for i := 0; i < 600; i++ {
				if len(ref) > 0 && rng.Intn(4) == 0 {
					at := rng.Intn(len(ref))
					m.Push(ref[at].Negate())
					ref = append(ref[:at], ref[at+1:]...)
					continue
				}
				tu := data.NewTuple(vtime.Time(i),
					pick(data.Null, data.Int(1), data.Float(1), data.Float(-2.5), data.Int(7), data.Float(1e300), data.Int(1<<62+1)),
					pick(data.Null, data.Str(""), data.Str("a"), data.Str("a|"), data.Str("b")),
					pick(data.Null, data.Bool(true), data.Bool(false)),
					pick(data.Float(0.1), data.Float(0.30000000000000004), data.Float(-0.1), data.Null))
				m.Push(tu)
				for _, r := range ref {
					if r.EqualVals(tu) {
						tu = r
						break
					}
				}
				ref = append(ref, tu.Clone())
			}
			for _, order := range orders {
				idx := make([]int, len(order))
				for i, o := range order {
					idx[i] = must[int](t)(schema.ColIndex(o.Col))
				}
				want := cloneAll(ref)
				sort.Slice(want, func(i, j int) bool { return snapshotLess(want[i], want[j], idx, order) })
				for _, limit := range []int{-1, 0, 5, len(ref) + 3} {
					w := want
					if limit >= 0 && len(w) > limit {
						w = w[:limit]
					}
					got := m.MustSnapshot(order, limit)
					if len(got) != len(w) {
						t.Fatalf("order %v limit %d: %d rows, want %d", order, limit, len(got), len(w))
					}
					for i := range w {
						if !bitEqual(got[i], w[i]) || got[i].TS != w[i].TS {
							t.Fatalf("order %v limit %d: row %d = %v, want %v", order, limit, i, got[i], w[i])
						}
					}
				}
			}
			// The rows are the caller's: writing one must not reach a neighbour
			// in the shared arena, nor the result itself.
			got := m.MustSnapshot(nil, -1)
			got[0].Vals[0] = data.Str("scribble")
			_ = append(got[0].Vals, data.Str("scribble"))
			again := m.MustSnapshot(nil, -1)
			if !bitEqual(again[1], got[1]) || again[0].Vals[0].T == data.TString {
				t.Fatalf("snapshot rows alias: %v / %v", got[:2], again[:2])
			}
		}()
	}
}

func snapshotFixture(n int) *Materialize {
	schema := data.NewSchema("m", data.Col("room", data.TString), data.Col("desk", data.TInt),
		data.Col("temp", data.TFloat), data.Col("lux", data.TFloat))
	m := NewMaterialize(schema)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		m.Push(data.NewTuple(vtime.Time(i), data.Str(fmt.Sprintf("L%03d", i/8)), data.Int(int64(i%8)),
			data.Float(20+rng.Float64()*10), data.Float(rng.Float64()*500)))
	}
	return m
}

// churnStore holds n rows shaped like a query-churn result: (room, desk,
// value), each room on three rows, so rows of one room share their sort
// prefix (the room's bytes) and the sort compares past it. With floatFirst
// the value leads, and each prefix comes from a number's order key.
func churnStore(n int, floatFirst bool) *Materialize {
	cols := []data.Column{data.Col("room", data.TString), data.Col("desk", data.TInt), data.Col("value", data.TFloat)}
	if floatFirst {
		cols = []data.Column{cols[2], cols[0], cols[1]}
	}
	m := NewMaterialize(data.NewSchema("m", cols...))
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		vals := []data.Value{data.Str(fmt.Sprintf("R%03d", i/3)), data.Int(int64(2 + rng.Intn(7))), data.Float(90 + rng.Float64()*10)}
		if floatFirst {
			vals = []data.Value{vals[2], vals[0], vals[1]}
		}
		m.Push(data.NewTuple(vtime.Time(i), vals...))
	}
	return m
}

// A snapshot after a mutation allocates five times, whatever its size: the
// sort's rows, the value arena, the result, and the memo of the row order
// it leaves for the next read, with its ids. It builds no key, and it sizes
// the arena by every copy of every row, so a row held twice grows nothing.
// A re-read with nothing new since allocates twice, the arena and the
// result: it copies the rows out in the remembered order and does not sort.
func TestSnapshotAllocsConstant(t *testing.T) {
	dup := snapshotFixture(1000)
	dup.Push(dup.MustSnapshot(nil, 1)[0])
	for _, c := range []struct {
		name string
		m    *Materialize
		rows int
	}{{"distinct", snapshotFixture(1000), 1000}, {"a duplicate", dup, 1001}} {
		// A copy of a held row, in and out again: two mutations, the same
		// rows.
		held := c.m.MustSnapshot(nil, 1)[0]
		for _, r := range []struct {
			what   string
			mutate bool
			want   float64
		}{{"after a mutation", true, 5}, {"with nothing new", false, 2}} {
			allocs := testing.AllocsPerRun(10, func() {
				if r.mutate {
					c.m.Push(held)
					c.m.Push(held.Negate())
				}
				if len(c.m.MustSnapshot(nil, -1)) != c.rows {
					t.Fatalf("%s: short snapshot", c.name)
				}
			})
			if allocs != r.want {
				t.Fatalf("Snapshot of %d rows, %s, %s: %v allocations, want %v", c.rows, c.name, r.what, allocs, r.want)
			}
		}
	}
}

var benchRows []data.Tuple

func BenchmarkMaterializeSnapshot(b *testing.B) {
	run := func(name string, m *Materialize) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				benchRows = m.MustSnapshot(nil, -1)
			}
		})
	}
	for _, n := range []int{162, 1000} {
		run(fmt.Sprintf("rows=%d", n), snapshotFixture(n))
	}
	run("churn/rows=162", churnStore(162, false))
	run("float-first/rows=162", churnStore(162, true))
}

// BenchmarkAggregatePushBatch folds the same 512 tuples over 16 groups into
// an aggregate as one batch and one by one; a retraction of all of them
// follows so that state does not grow with b.N.
func BenchmarkAggregatePushBatch(b *testing.B) {
	in := batchSchema("r")
	ins := make([]data.Tuple, 512)
	rng := rand.New(rand.NewSource(5))
	for i := range ins {
		ins[i] = data.NewTuple(vtime.Time(i), data.Str(fmt.Sprintf("g%02d", i%16)), data.Float(rng.Float64()*100))
	}
	dels := make([]data.Tuple, len(ins))
	for i, tu := range ins {
		dels[i] = tu.Negate()
	}
	specs := []AggSpec{{Kind: AggAvg, Arg: expr.C("v"), Alias: "a"}, {Kind: AggCount, Alias: "n"}}
	build := func(b *testing.B) *Aggregate {
		out, err := AggOutSchema(in, []string{"g"}, specs)
		if err != nil {
			b.Fatal(err)
		}
		a, err := NewAggregate(NewMaterialize(out), in, []string{"g"}, specs, nil)
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	b.Run("batch", func(b *testing.B) {
		a := build(b)
		b.ReportAllocs()
		for b.Loop() {
			a.PushBatch(ins)
			a.PushBatch(dels)
		}
	})
	b.Run("single", func(b *testing.B) {
		a := build(b)
		b.ReportAllocs()
		for b.Loop() {
			for _, tu := range ins {
				a.Push(tu)
			}
			for _, tu := range dels {
				a.Push(tu)
			}
		}
	})
}
