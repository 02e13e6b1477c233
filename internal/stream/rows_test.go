package stream

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// Restoring a Materialize or Distinct checkpoint must not trust it: a count
// below one or a row of the wrong arity is an error that leaves the operator
// as it was, and a row listed twice is one row with the counts added.
func TestRowRestoreValidates(t *testing.T) {
	a, b := temp(1, "L1", 20), temp(2, "L2", 21)
	cases := []struct {
		name   string
		rows   []data.Tuple
		counts []int64
		ok     bool
		want   map[string]int // Key → multiplicity after a successful restore
	}{
		{"count zero", []data.Tuple{a, b}, []int64{1, 0}, false, nil},
		{"negative count", []data.Tuple{a}, []int64{-2}, false, nil},
		{"count past int32", []data.Tuple{a}, []int64{math.MaxInt32 + 1}, false, nil},
		{"short row", []data.Tuple{a, data.NewTuple(0, data.Str("L3"))}, []int64{1, 1}, false, nil},
		{"long row", []data.Tuple{data.NewTuple(0, data.Str("L3"), data.Float(1), data.Int(2))}, []int64{1}, false, nil},
		{"unknown type", []data.Tuple{data.NewTuple(0, data.Str("L3"), data.Value{T: 99})}, []int64{1}, false, nil},
		{"length mismatch", []data.Tuple{a, b}, []int64{1}, false, nil},
		{"duplicates merge", []data.Tuple{a, b, a.Clone()}, []int64{2, 1, 3}, true, map[string]int{a.Key(): 5, b.Key(): 1}},
		{"empty", nil, nil, true, map[string]int{}},
	}
	prior := temp(9, "L9", 9)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewMaterialize(tempSchema())
			d := NewDistinct(NewCollector(tempSchema()))
			m.Push(prior)
			d.Push(prior)
			errM := m.RestoreState(OpState{Kind: ckMaterialize, Rows: &RowsState{Tuples: c.rows, Counts: c.counts}})
			errD := d.RestoreState(OpState{Kind: ckDistinct, Distinct: &DistinctState{Tuples: c.rows, Counts: c.counts}})
			if (errM == nil) != c.ok || (errD == nil) != c.ok {
				t.Fatalf("materialize err %v, distinct err %v; want ok=%v", errM, errD, c.ok)
			}
			want := c.want
			if !c.ok {
				want = map[string]int{prior.Key(): 1} // untouched
			}
			requireMultiset(t, c.name, m, d, want)
		})
	}
}

// requireMultiset checks m and d against a reference multiset: Len, the
// snapshot's rows and multiplicities, and d's own counts.
func requireMultiset(t *testing.T, ctx string, m *Materialize, d *Distinct, want map[string]int) {
	t.Helper()
	ds := d.CheckpointState().Distinct
	if m.Len() != len(want) || len(ds.Tuples) != len(want) {
		t.Fatalf("%s: Len %d, distinct %d, want %d rows", ctx, m.Len(), len(ds.Tuples), len(want))
	}
	got := map[string]int{}
	for _, r := range m.MustSnapshot(nil, -1) {
		if len(r.Vals) != m.Schema().Arity() {
			t.Fatalf("%s: snapshot row %v has the wrong arity", ctx, r)
		}
		got[r.Key()]++
	}
	gotD := map[string]int{}
	for i, r := range ds.Tuples {
		gotD[r.Key()] += int(ds.Counts[i])
	}
	for k, n := range want {
		if got[k] != n || gotD[k] != n {
			t.Fatalf("%s: row %q ×%d in the snapshot, ×%d in distinct, want ×%d", ctx, k, got[k], gotD[k], n)
		}
	}
	if len(got) != len(want) || len(gotD) != len(want) {
		t.Fatalf("%s: snapshot %v, distinct %v, want %v", ctx, got, gotD, want)
	}
}

// multisetSchema is a three-column row, the query-churn result's shape.
func multisetSchema() *data.Schema {
	return data.NewSchema("m", data.Col("a", data.TFloat), data.Col("s", data.TString), data.Col("b", data.TFloat))
}

// wrapRows returns n rows (i, NULL, NULL) that start their probe in the last
// slot of a 16-slot table — and so of an 8-slot one — so their run wraps
// past the end.
func wrapRows(n int) []data.Tuple {
	probe := keyIndex{slots: make([]keySlot, 16)}
	var h data.Hasher
	var out []data.Tuple
	for i := int64(0); len(out) < n; i++ {
		if tu := data.NewTuple(0, data.Int(i), data.Null, data.Null); probe.home(tagOf(h.Hash(tu))) == 15 {
			out = append(out, tu)
		}
	}
	return out
}

// Random insert/delete sequences go into Materialize and into Distinct and
// are compared after every step with a reference multiset keyed by
// Tuple.Key(): Len, the snapshot, a checkpoint round-trip, and the deltas
// Distinct forwards — the very tuple it was handed, on 0→1 and 1→0 only.
func TestRowMultisetDifferential(t *testing.T) {
	nan := math.NaN()
	pool := []data.Value{data.Null, data.Int(1), data.Float(1), data.Float(nan),
		data.Float(math.Copysign(0, -1)), data.Float(0), data.Int(0), data.Float(2.5),
		data.Str(""), data.Str("a"), data.Str("ab"), data.Str("abc"), data.Bool(true)}
	wrap := wrapRows(6)
	for _, mask := range []uint64{^uint64(0), 0} {
		for _, shape := range []string{"mixed", "wrap"} {
			t.Run(fmt.Sprintf("mask=%x/%s", mask&1, shape), func(t *testing.T) {
				defer SetTestHashMask(SetTestHashMask(mask))
				rng := rand.New(rand.NewSource(int64(mask&7) + 1))
				schema := multisetSchema()
				pick := func() data.Tuple {
					if shape == "wrap" {
						return wrap[rng.Intn(len(wrap))].Clone()
					}
					return data.NewTuple(0, pool[rng.Intn(len(pool))], pool[8+rng.Intn(4)], pool[rng.Intn(len(pool))])
				}
				m := NewMaterialize(schema)
				var fwd []data.Tuple
				d := NewDistinct(NewCallback(schema, func(ts []data.Tuple) { fwd = append(fwd, ts...) }))
				ref := map[string]int{}
				var live []data.Tuple
				wrapped := false
				for step := 0; step < 400; step++ {
					tu := pick()
					tu.TS = vtime.Time(step)
					if len(live) > 0 && rng.Intn(5) < 2 {
						// Retract a live row through an equal, not identical, tuple.
						at := rng.Intn(len(live))
						tu = data.Tuple{Vals: live[at].Clone().Vals, TS: tu.TS, Op: data.Delete}
						live = append(live[:at], live[at+1:]...)
					} else if rng.Intn(6) == 0 {
						tu.Op = data.Delete // most likely unseen: ignored
					} else {
						live = append(live, tu)
					}
					k, before := tu.Key(), ref[tu.Key()]
					switch {
					case tu.Op == data.Insert:
						ref[k]++
					case before > 1:
						ref[k]--
					case before == 1:
						delete(ref, k)
					}
					fwd = fwd[:0]
					m.Push(tu)
					d.Push(tu)
					forwards := tu.Op == data.Insert && before == 0 || tu.Op == data.Delete && before == 1
					if forwards != (len(fwd) == 1) || len(fwd) > 1 || forwards && &fwd[0].Vals[0] != &tu.Vals[0] {
						t.Fatalf("step %d: %v with multiplicity %d forwarded %v", step, tu, before, fwd)
					}
					ctx := fmt.Sprintf("step %d (%v)", step, tu)
					requireMultiset(t, ctx, m, d, ref)
					state, err := EncodeCheckpoint([]Checkpointer{m, d})
					if err != nil {
						t.Fatal(err)
					}
					m2, d2 := NewMaterialize(schema), NewDistinct(NewCollector(schema))
					if err := RestoreCheckpoint([]Checkpointer{m2, d2}, state); err != nil {
						t.Fatalf("%s: %v", ctx, err)
					}
					requireMultiset(t, ctx+" restored", m2, d2, ref)
					if x := &m.rows.index; x.slots[len(x.slots)-1].id != 0 && x.slots[0].id != 0 &&
						x.home(x.slots[0].tag) == len(x.slots)-1 {
						wrapped = true
					}
				}
				if shape == "wrap" && mask != 0 && !wrapped {
					t.Fatal("no probe run wrapped the table end")
				}
			})
		}
	}
}

// fuzzReplica holds one operator of every kind whose checkpoint carries
// rows or keys: Materialize, Distinct, Join, Aggregate, PartialAggregate and
// FinalMerge, over multisetSchema rows keyed and grouped on s.
type fuzzReplica struct {
	m       *Materialize
	d       *Distinct
	j       *Join
	agg     *Aggregate
	pa      *PartialAggregate
	fm      *FinalMerge
	fmFront *PartialAggregate // feeds fm; not checkpointed
}

var fuzzSpecs = []AggSpec{{Kind: AggCount, Alias: "n"}, {Kind: AggAvg, Arg: expr.C("a"), Alias: "avg"},
	{Kind: AggMin, Arg: expr.C("a"), Alias: "lo"}, {Kind: AggMax, Arg: expr.C("b"), Alias: "hi"}}

func newFuzzReplica(t testing.TB) *fuzzReplica {
	s, key := multisetSchema(), []string{"s"}
	out := must[*data.Schema](t)(AggOutSchema(s, key, fuzzSpecs))
	partial := must[*data.Schema](t)(AggPartialSchema(s, key, fuzzSpecs))
	r := &fuzzReplica{m: NewMaterialize(s), d: NewDistinct(NewCollector(s))}
	r.j = must[*Join](t)(NewJoin(NewCollector(s.Concat(s)), s, s, key, key, nil))
	r.agg = must[*Aggregate](t)(NewAggregate(NewMaterialize(out), s, key, fuzzSpecs, nil))
	r.pa = must[*PartialAggregate](t)(NewPartialAggregate(NewMaterialize(partial), s, key, fuzzSpecs))
	r.fm = must[*FinalMerge](t)(NewFinalMerge(NewMaterialize(out), s, key, fuzzSpecs, nil))
	r.fmFront = must[*PartialAggregate](t)(NewPartialAggregate(r.fm, s, key, fuzzSpecs))
	return r
}

func (r *fuzzReplica) cks() []Checkpointer {
	return []Checkpointer{r.m, r.d, r.j, r.agg, r.pa, r.fm}
}

func (r *fuzzReplica) push(ts []data.Tuple) {
	for _, op := range []Operator{r.m, r.d, r.j.Left(), r.j.Right(), r.agg, r.pa, r.fmFront} {
		op.PushBatch(ts)
	}
}

// fuzzTuples are rows (i mod 7, "r"+i mod 5, NULL or i), every third one
// retracted again.
func fuzzTuples(n int) []data.Tuple {
	var ts []data.Tuple
	for i := range n {
		b := data.Null
		if i%2 == 1 {
			b = data.Float(float64(i))
		}
		tu := data.NewTuple(vtime.Time(i), data.Float(float64(i%7)), data.Str(fmt.Sprint("r", i%5)), b)
		ts = append(ts, tu)
		if i%3 == 2 {
			ts = append(ts, ts[i/2].Negate())
		}
	}
	return ts
}

// checkGroups fails unless every live group of gt has a key of the table's
// arity, held once, a count of at least one, a last row of width w or none,
// and a value multiset exactly where MIN or MAX needs one.
func checkGroups(t *testing.T, name string, gt *groupTable, w int) {
	t.Helper()
	live := 0
	for id := range gt.groups {
		g := &gt.groups[id]
		if g.count <= 0 {
			continue
		}
		live++
		if len(g.keyVals) != len(gt.keyIdx) || g.lastOut != nil && len(g.lastOut) != w || len(g.aggs) != len(gt.ext) {
			t.Fatalf("%s: group %v: count %d, last row %v, %d aggregates", name, g.keyVals, g.count, g.lastOut, len(g.aggs))
		}
		for i, a := range g.aggs {
			if (a.vals != nil) != gt.ext[i] {
				t.Fatalf("%s: group %v aggregate %d: multiset %v", name, g.keyVals, i, a.vals)
			}
		}
		k := data.Tuple{Vals: g.keyVals}
		if _, found := gt.place(k, gt.kvIdx, false); found != g {
			t.Fatalf("%s: key %v does not find its own group", name, g.keyVals)
		}
	}
	if live != gt.len() {
		t.Fatalf("%s: %d live groups, %d indexed", name, live, gt.len())
	}
}

// FuzzCheckpointRestore feeds arbitrary bytes to RestoreCheckpoint for a
// fuzzReplica, under both hash masks: it errors or leaves every row, key and
// group well formed — rows at their operator's arity, each distinct row and
// group key held once, counts of at least one — and tuples pushed after it
// never panic.
func FuzzCheckpointRestore(f *testing.F) {
	r := newFuzzReplica(f)
	r.push(fuzzTuples(24))
	state, err := EncodeCheckpoint(r.cks())
	if err != nil {
		f.Fatal(err)
	}
	for n := len(state); n > 0; n -= 1 + len(state)/64 {
		f.Add(state[:n])
	}
	later := fuzzTuples(12)
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, mask := range []uint64{^uint64(0), 0} {
			old := SetTestHashMask(mask)
			r := newFuzzReplica(t)
			_ = RestoreCheckpoint(r.cks(), b)
			checkRestored(t, r)
			r.push(later)
			SetTestHashMask(old)
		}
	})
}

func checkRestored(t *testing.T, r *fuzzReplica) {
	t.Helper()
	schema := multisetSchema()
	for _, s := range []*rowSet{&r.m.rows, &r.d.rows} {
		rows, counts := s.state()
		if len(rows) != s.len() {
			t.Fatalf("%d live rows, Len %d", len(rows), s.len())
		}
		var h data.Hasher
		for i, row := range rows {
			if len(row.Vals) != schema.Arity() || counts[i] < 1 {
				t.Fatalf("row %v ×%d", row, counts[i])
			}
			for _, o := range rows[:i] {
				if h.Hash(o) == h.Hash(row) && o.EqualVals(row) {
					t.Fatalf("row %v stored twice", row)
				}
			}
		}
	}
	for _, rec := range r.j.recs {
		for _, side := range rec.rows {
			for _, row := range side {
				if len(row.Vals) != schema.Arity() || slices.ContainsFunc(row.Vals, unknownType) {
					t.Fatalf("join row %v", row)
				}
			}
		}
	}
	checkGroups(t, "aggregate", &r.agg.table, r.agg.out.Arity())
	checkGroups(t, "partial", &r.pa.table, r.pa.out.Arity())
	checkGroups(t, "final merge", &r.fm.table, r.fm.out.Arity())
	total := 0
	for _, c := range r.m.CheckpointState().Rows.Counts {
		total += int(c)
	}
	if total > 1<<12 {
		return // a snapshot would copy every duplicate out
	}
	var h data.Hasher
	snap, distinct := r.m.MustSnapshot(nil, -1), 0
	for i, row := range snap {
		if i == 0 || h.Hash(row) != h.Hash(snap[i-1]) || !row.EqualVals(snap[i-1]) {
			distinct++
		}
	}
	if len(snap) != total || distinct != r.m.Len() {
		t.Fatalf("snapshot %d rows, %d distinct; Len %d, counts sum %d", len(snap), distinct, r.m.Len(), total)
	}
}

// churnRig is Project → Materialize in the query-churn shape: readings of
// (room, desk, value, lux) projected onto (room, desk, value), one batch
// inserted and then retracted.
func churnRig(tb testing.TB) (p *Project, ins, dels []data.Tuple) {
	in := data.NewSchema("q", data.Col("room", data.TString), data.Col("desk", data.TInt),
		data.Col("value", data.TFloat), data.Col("lux", data.TFloat))
	items := []ProjectItem{{Expr: expr.C("room")}, {Expr: expr.C("desk")}, {Expr: expr.C("value")}}
	out, err := OutSchema(in, items)
	if err != nil {
		tb.Fatal(err)
	}
	if p, err = NewProject(NewMaterialize(out), in, items); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		tu := data.NewTuple(vtime.Time(i), data.Str(fmt.Sprintf("R%03d", i%37)), data.Int(int64(i%4)),
			data.Float(90+float64(i)/8), data.Float(300))
		ins = append(ins, tu)
		dels = append(dels, tu.Negate())
	}
	return p, ins, dels
}

// Once its arena and table have grown, the result's insert/retract churn —
// and the projection feeding it — allocates nothing.
func TestMaterializeChurnAllocs(t *testing.T) {
	p, ins, dels := churnRig(t)
	mat := p.next.(*Materialize)
	churn := func() {
		p.PushBatch(ins)
		if mat.Len() != len(ins) {
			t.Fatalf("Len %d, want %d", mat.Len(), len(ins))
		}
		p.PushBatch(dels)
	}
	churn()
	if allocs := testing.AllocsPerRun(50, churn); allocs != 0 {
		t.Fatalf("churn allocates %v times per run", allocs)
	}
	if mat.Len() != 0 {
		t.Fatalf("%d rows left after the retractions", mat.Len())
	}
}

func BenchmarkMaterializeChurn(b *testing.B) {
	p, ins, dels := churnRig(b)
	b.ReportAllocs()
	for b.Loop() {
		p.PushBatch(ins)
		p.PushBatch(dels)
	}
}

// A Project in front of a consumer that keeps nothing writes every batch
// into one reused buffer; in front of anything else — here a window, which
// keeps what it is handed — every batch gets Vals of its own.
func TestProjectReusesOnlyWhenConsumerKeepsNothing(t *testing.T) {
	items := []ProjectItem{{Expr: expr.C("room")}, {Expr: expr.C("temp")}}
	batch := func(ts int64, room string) []data.Tuple {
		return []data.Tuple{temp(ts, room, 1), temp(ts, room, 2)}
	}
	mat := NewMaterialize(tempSchema())
	pm := must[*Project](t)(NewProject(mat, tempSchema(), items))
	pm.PushBatch(batch(1, "L1"))
	first := &pm.buf[0]
	pm.PushBatch(batch(2, "L2"))
	if &pm.buf[0] != first {
		t.Fatal("a Project into a Materialize did not reuse its buffer")
	}
	if got := mat.MustSnapshot([]OrderSpec{{Col: "room"}, {Col: "temp"}}, -1); len(got) != 4 ||
		got[0].Vals[0].AsString() != "L1" || got[3].Vals[0].AsString() != "L2" {
		t.Fatalf("materialized %v", got)
	}
	win := NewRowsWindow(NewCollector(tempSchema()), 10)
	pw := must[*Project](t)(NewProject(win, tempSchema(), items))
	pw.PushBatch(batch(1, "L1"))
	pw.PushBatch(batch(2, "L2"))
	if pw.reuse || pw.buf != nil {
		t.Fatal("a Project into a window reuses a buffer")
	}
	if rows := win.Contents(); rows[0].Vals[0].AsString() != "L1" || rows[2].Vals[0].AsString() != "L2" {
		t.Fatalf("window rows %v: a later batch overwrote an earlier one", rows)
	}
	j := must[*Join](t)(NewJoin(NewCollector(tempSchema().Concat(tempSchema())), tempSchema(), tempSchema(),
		[]string{"room"}, []string{"room"}, nil))
	for _, next := range []Operator{NewFanout(tempSchema()), NewDistinct(mat), NewMerge(mat), j.Left(),
		NewCallback(tempSchema(), func([]data.Tuple) {})} {
		if must[*Project](t)(NewProject(next, tempSchema(), items)).reuse {
			t.Errorf("a Project into a %T reuses its buffer", next)
		}
	}
	agg := must[*Aggregate](t)(NewAggregate(NewMaterialize(tempSchema()), tempSchema(), []string{"room"},
		[]AggSpec{{Kind: AggAvg, Arg: expr.C("temp"), Alias: "a"}}, nil))
	for _, next := range []Operator{NewCollector(tempSchema()), pm, agg} {
		if !must[*Project](t)(NewProject(next, tempSchema(), items)).reuse {
			t.Errorf("a Project into a %T allocates", next)
		}
	}
}

// After a push or a tick, the batch scratch of Filter, Project and Window
// holds only zero tuples across its whole capacity: none of them pins the
// last batch — after Window.Advance, every tuple the tick expired.
func TestBatchScratchCleared(t *testing.T) {
	requireZero := func(ctx string, scratch []data.Tuple) {
		t.Helper()
		for _, tu := range scratch[:cap(scratch)] {
			if tu.Vals != nil {
				t.Fatalf("%s: scratch still holds %v", ctx, tu)
			}
		}
	}
	batch := []data.Tuple{temp(1, "L1", 35), temp(2, "L2", 36), temp(3, "L3", 20)}
	col := NewCollector(tempSchema())
	f := NewFilter(col, expr.MustBind(expr.Bin{Op: expr.OpGt, L: expr.C("temp"), R: expr.L(30.0)}, tempSchema()))
	f.PushBatch(batch)
	requireZero("Filter.PushBatch", f.batch)
	p := must[*Project](t)(NewProject(col, tempSchema(), []ProjectItem{{Expr: expr.C("room")}, {Expr: expr.C("temp")}}))
	p.PushBatch(batch)
	requireZero("Project.PushBatch", p.batch)
	w := NewTimeWindow(col, 10*time.Second, 0)
	w.PushBatch(batch)
	requireZero("Window.PushBatch", w.batch)
	w.Advance(vtime.Time(60 * time.Second))
	if w.Len() != 0 || col.Len() != 2+3+3+3 {
		t.Fatalf("window kept %d rows, collector saw %d", w.Len(), col.Len())
	}
	requireZero("Window.Advance", w.batch)
	w.Push(temp(61, "L1", 1))
	requireZero("Window.Push", w.batch)
}
