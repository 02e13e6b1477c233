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
// past the end. It hashes with indexHash, as a rowSet does, so the rows keep
// wrapping whatever the index hash is.
func wrapRows(n int) []data.Tuple {
	probe := keyTable{slots: make([]keySlot, 16)}
	var out []data.Tuple
	for i := int64(0); len(out) < n; i++ {
		if tu := data.NewTuple(0, data.Int(i), data.Null, data.Null); probe.home(tagOf(indexHash(tu, nil))) == 15 {
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
					checkRows(t, &m.rows)
					checkRows(t, &d.rows)
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
// FinalMerge, over multisetSchema rows keyed and grouped on s, and a time
// window admitting a < 4, a ROWS 4 window and a NOW window, each in front
// of a join.
type fuzzReplica struct {
	m       *Materialize
	d       *Distinct
	j       *Join
	agg     *Aggregate
	pa      *PartialAggregate
	fm      *FinalMerge
	fmFront *PartialAggregate // feeds fm; not checkpointed
	tw      *Window
	rw      *Window
	nw      *Window
}

var fuzzAdmit = expr.MustBind(expr.Bin{Op: expr.OpLt, L: expr.C("a"), R: expr.L(4)}, multisetSchema())

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
	join := func() Operator {
		return must[*Join](t)(NewJoin(NewCollector(s.Concat(s)), s, s, key, key, nil)).Left()
	}
	r.tw, r.rw, r.nw = NewTimeWindow(join(), 5, 0), NewRowsWindow(join(), 4), NewNowWindow(join())
	if err := r.tw.Admit(fuzzAdmit); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *fuzzReplica) windows() []*Window { return []*Window{r.tw, r.rw, r.nw} }

func (r *fuzzReplica) cks() []Checkpointer {
	return []Checkpointer{r.m, r.d, r.j, r.agg, r.pa, r.fm, r.tw, r.rw, r.nw}
}

// push pushes ts into every operator, then ticks the windows past the last
// timestamp.
func (r *fuzzReplica) push(ts []data.Tuple) {
	for _, op := range []Operator{r.m, r.d, r.j.Left(), r.j.Right(), r.agg, r.pa, r.fmFront, r.tw, r.rw, r.nw} {
		op.PushBatch(ts)
	}
	for _, w := range r.windows() {
		w.Advance(ts[len(ts)-1].TS + 3)
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

// checkGroups fails unless gt's table is well formed, with a group per id,
// a retired group counts nothing and holds no last row, and every live
// group has a count of at least one, a last row of width w or none, and a
// value multiset exactly where MIN or MAX needs one.
func checkGroups(t *testing.T, name string, gt *groupTable, w int) {
	t.Helper()
	gt.index.check(t)
	if len(gt.groups) != int(gt.index.ids) {
		t.Fatalf("%s: %d groups for %d ids", name, len(gt.groups), gt.index.ids)
	}
	for id := range gt.groups {
		g, key := &gt.groups[id], gt.index.key(int32(id))
		if live := gt.index.isLive(int32(id)); !live {
			if g.count != 0 || g.lastOut != nil || g.touched != 0 {
				t.Fatalf("%s: retired group %d: count %d, last row %v, touched %d", name, id, g.count, g.lastOut, g.touched)
			}
			continue
		}
		if g.count <= 0 || g.lastOut != nil && len(g.lastOut) != w || len(g.aggs) != len(gt.ext) {
			t.Fatalf("%s: group %v: count %d, last row %v, %d aggregates", name, key, g.count, g.lastOut, len(g.aggs))
		}
		for i, a := range g.aggs {
			if (a.vals != nil) != gt.ext[i] {
				t.Fatalf("%s: group %v aggregate %d: multiset %v", name, key, i, a.vals)
			}
		}
	}
}

// FuzzCheckpointRestore feeds arbitrary bytes to RestoreCheckpoint for a
// fuzzReplica, under both hash masks: it errors or leaves every row, key and
// group well formed — rows at their operator's arity, each distinct row and
// group key held once, counts of at least one, no group table remembering a
// record — and tuples pushed after it never panic and leave each grouped
// table's memo on the last tuple's group or on none.
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
			checkArrivals(t, r.j)
			checkGroupMemo(t, "aggregate", &r.agg.table, &later[len(later)-1])
			checkGroupMemo(t, "partial", &r.pa.table, &later[len(later)-1])
			SetTestHashMask(old)
		}
	})
}

// checkRows fails unless s's table is well formed, with a record per id,
// a row counts copies exactly while its id is live, and the copies add up
// to the set's total.
func checkRows(t testing.TB, s *rowSet) {
	t.Helper()
	s.index.check(t)
	if len(s.recs) != int(s.index.ids) {
		t.Fatalf("%d row records for %d ids", len(s.recs), s.index.ids)
	}
	total := 0
	for r, rec := range s.recs {
		if live := s.index.isLive(int32(r)); live != (rec.count > 0) || rec.count < 0 {
			t.Fatalf("row %v counts %d copies, live %v", s.row(int32(r)), rec.count, live)
		}
		total += rec.count
	}
	if total != s.total {
		t.Fatalf("the rows count %d copies, the set %d", total, s.total)
	}
}

func checkRestored(t *testing.T, r *fuzzReplica) {
	t.Helper()
	schema := multisetSchema()
	for _, s := range []*rowSet{&r.m.rows, &r.d.rows} {
		checkRows(t, s)
		rows, counts := s.state()
		if len(rows) != s.len() {
			t.Fatalf("%d live rows, Len %d", len(rows), s.len())
		}
		for i, row := range rows {
			if len(row.Vals) != schema.Arity() || counts[i] < 1 {
				t.Fatalf("row %v ×%d", row, counts[i])
			}
			for _, o := range rows[:i] {
				if o.EqualVals(row) {
					t.Fatalf("row %v stored twice", row)
				}
			}
		}
	}
	checkArrivals(t, r.j)
	checkJoinKeys(t, r.j)
	for _, rec := range r.j.recs {
		for _, side := range rec.rows {
			for _, row := range side {
				if len(row.vals) != schema.Arity() || slices.ContainsFunc(row.vals, unknownType) {
					t.Fatalf("join row %v", row.tuple())
				}
			}
		}
	}
	for _, w := range r.windows() {
		for _, row := range w.Contents() {
			if len(row.Vals) != schema.Arity() || slices.ContainsFunc(row.Vals, unknownType) || row.Op != data.Insert {
				t.Fatalf("window row %v", row)
			}
			if w.admit != nil && !w.admit.EvalBool(row) {
				t.Fatalf("window holds %v, which it does not admit", row)
			}
		}
	}
	if r.rw.Len() > r.rw.rows || r.nw.Len() != 0 {
		t.Fatalf("ROWS %d window holds %d rows, NOW window %d", r.rw.rows, r.rw.Len(), r.nw.Len())
	}
	checkGroups(t, "aggregate", &r.agg.table, r.agg.out.Arity())
	checkGroups(t, "partial", &r.pa.table, r.pa.out.Arity())
	checkGroups(t, "final merge", &r.fm.table, r.fm.out.Arity())
	checkGroupMemo(t, "aggregate", &r.agg.table, nil)
	checkGroupMemo(t, "partial", &r.pa.table, nil)
	checkGroupMemo(t, "final merge", &r.fm.table, nil)
	total := 0
	for _, c := range r.m.CheckpointState().Rows.Counts {
		total += int(c)
	}
	if total > 1<<12 {
		return // a snapshot would copy every duplicate out
	}
	snap, distinct := r.m.MustSnapshot(nil, -1), 0
	for i, row := range snap {
		if i == 0 || !row.EqualVals(snap[i-1]) {
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

// TestKeepColumnsMatchesProject feeds random readings, inserts and
// retractions with NULL, NaN, -0 and strings around the 8-byte word, into a
// store through Project and into another through the column feed
// KeepColumns hands out, for column lists with reordered and repeated
// columns, under both hash masks. After every batch both stores must hold
// the same checkpoint state, row by row and value by value to the bit (which
// tells -0 from 0, as gob's bytes do not). Midway, and at the end, they must
// also encode the same checkpoint bytes; midway the checkpoint restores into
// two fresh stores, whose rows are filed whole: the column feed's later
// retractions must still find them.
func TestKeepColumnsMatchesProject(t *testing.T) {
	in := data.NewSchema("q", data.Col("room", data.TString), data.Col("desk", data.TInt),
		data.Col("value", data.TFloat), data.Col("lux", data.TFloat))
	pool := []data.Value{data.Null, data.Int(1), data.Float(1), data.Float(math.NaN()),
		data.Float(math.Copysign(0, -1)), data.Float(0), data.Int(1 << 53), data.Float(1 << 53),
		data.Str(""), data.Str("abcdefg"), data.Str("abcdefgh"), data.Str("abcdefghi")}
	for _, mask := range []uint64{^uint64(0), 0} {
		for _, cols := range [][]int{{0, 1, 2}, {2, 0}, {1, 1, 3}, {3, 2, 1, 0}} {
			t.Run(fmt.Sprintf("mask=%x/cols=%v", mask&1, cols), func(t *testing.T) {
				defer SetTestHashMask(SetTestHashMask(mask))
				items := make([]ProjectItem, len(cols))
				for k, j := range cols {
					items[k] = ProjectItem{Expr: expr.C(in.Cols[j].Name), Alias: fmt.Sprintf("c%d", k)}
				}
				out := must[*data.Schema](t)(OutSchema(in, items))
				viaProject, viaCols := NewMaterialize(out), NewMaterialize(out)
				p := must[*Project](t)(NewProject(viaProject, in, items))
				feed := must[Operator](t)(viaCols.KeepColumns(in, cols))
				rng := rand.New(rand.NewSource(int64(len(cols))))
				var live []data.Tuple
				for step := 0; step < 300; step++ {
					var batch []data.Tuple
					for range 1 + rng.Intn(4) {
						if len(live) > 0 && rng.Intn(5) < 2 {
							at := rng.Intn(len(live))
							// Retract through an equal, not identical, tuple.
							batch = append(batch, data.Tuple{Vals: live[at].Clone().Vals, TS: vtime.Time(step), Op: data.Delete})
							live = slices.Delete(live, at, at+1)
							continue
						}
						tu := data.NewTuple(vtime.Time(step), pool[8+rng.Intn(4)], pool[rng.Intn(8)], pool[rng.Intn(8)], pool[rng.Intn(len(pool))])
						live = append(live, tu)
						batch = append(batch, tu)
					}
					p.PushBatch(batch)
					feed.PushBatch(batch)
					if !sameRowsState(viaCols.CheckpointState(), viaProject.CheckpointState()) {
						t.Fatalf("step %d: the column feed's store holds another state than the projection's\n%v\n%v",
							step, viaCols.MustSnapshot(nil, -1), viaProject.MustSnapshot(nil, -1))
					}
					if step == 150 {
						// Both restart from the one checkpoint, so their arenas
						// agree again.
						want := sameCheckpointBytes(t, viaCols, viaProject)
						viaProject, viaCols = NewMaterialize(out), NewMaterialize(out)
						for _, m := range []*Materialize{viaProject, viaCols} {
							if err := RestoreCheckpoint([]Checkpointer{m}, want); err != nil {
								t.Fatal(err)
							}
						}
						p = must[*Project](t)(NewProject(viaProject, in, items))
						feed = must[Operator](t)(viaCols.KeepColumns(in, cols))
					}
				}
				sameCheckpointBytes(t, viaCols, viaProject)
				if viaCols.Len() == 0 {
					t.Fatal("the store ended empty; the comparison ran vacuously")
				}
			})
		}
	}
}

// sameRowsState reports whether two Materialize checkpoint states hold the
// same rows in the same order, each value with the same bits, with the
// same timestamps and counts.
func sameRowsState(a, b OpState) bool {
	return a.Kind == b.Kind && slices.Equal(a.Rows.Counts, b.Rows.Counts) &&
		slices.EqualFunc(a.Rows.Tuples, b.Rows.Tuples, func(x, y data.Tuple) bool { return bitEqual(x, y) && x.TS == y.TS })
}

// sameCheckpointBytes fails unless got's checkpoint encodes to want's
// bytes, and returns them.
func sameCheckpointBytes(t *testing.T, got, want *Materialize) []byte {
	t.Helper()
	w := must[[]byte](t)(EncodeCheckpoint([]Checkpointer{want}))
	if g := must[[]byte](t)(EncodeCheckpoint([]Checkpointer{got})); !slices.Equal(g, w) {
		t.Fatalf("the column feed's store encodes other bytes than the projection's\n%v\n%v",
			got.MustSnapshot(nil, -1), want.MustSnapshot(nil, -1))
	}
	return w
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
	for _, next := range []Operator{NewFanout(tempSchema()), NewDistinct(mat), NewMerge(NewDistinct(mat)), j.Left(),
		NewCallback(tempSchema(), func([]data.Tuple) {})} {
		if must[*Project](t)(NewProject(next, tempSchema(), items)).reuse {
			t.Errorf("a Project into a %T reuses its buffer", next)
		}
	}
	agg := must[*Aggregate](t)(NewAggregate(NewMaterialize(tempSchema()), tempSchema(), []string{"room"},
		[]AggSpec{{Kind: AggAvg, Arg: expr.C("temp"), Alias: "a"}}, nil))
	sink := NewResultSink(tempSchema(), func([]data.Tuple) error { return nil })
	kept := must[Operator](t)(NewMaterialize(tempSchema()).KeepColumns(tempSchema(), []int{0, 1}))
	for _, next := range []Operator{NewCollector(tempSchema()), pm, agg, NewMerge(mat), sink, kept} {
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
