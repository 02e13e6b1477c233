package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// lowering is one plan lowered onto stream operators feeding a Collector:
// its scan heads, its window advancers and its checkpointers, each in
// compile order.
type lowering struct {
	root  Node
	sink  *stream.Collector
	heads map[*Scan]stream.Operator
	advs  []stream.Advancer
	cks   []stream.Checkpointer
}

func newLowering(root Node) *lowering {
	return &lowering{root: root, sink: stream.NewCollector(root.Schema()), heads: map[*Scan]stream.Operator{}}
}

// compiled lowers root through the compiler.
func compiled(t *testing.T, root Node) *lowering {
	t.Helper()
	lw := newLowering(root)
	c := &compiler{
		track: func(a stream.Advancer) { lw.advs = append(lw.advs, a) },
		scanHead: func(x *Scan, head stream.Operator) error {
			lw.heads[x] = head
			return nil
		},
		ck: func(k stream.Checkpointer) { lw.cks = append(lw.cks, k) },
	}
	if err := c.compile(root, lw.sink, nil); err != nil {
		t.Fatalf("compile %s: %v", root, err)
	}
	return lw
}

// literal lowers root node by node, as the repository benchmark's shim chain
// does: every selection a Filter, every projection a Project, every join
// writing every column of both sides.
func literal(t *testing.T, root Node) *lowering {
	t.Helper()
	lw := newLowering(root)
	if err := lw.lower(root, lw.sink); err != nil {
		t.Fatalf("literal lowering of %s: %v", root, err)
	}
	return lw
}

func (lw *lowering) lower(n Node, out stream.Operator) error {
	switch x := n.(type) {
	case *Scan:
		head := out
		if w := windowFor(x.Window); w != nil && !x.IsTable {
			win := buildWindow(w, out)
			lw.advs = append(lw.advs, win)
			lw.cks = append(lw.cks, win)
			head = win
		}
		lw.heads[x] = head
		return nil
	case *Select:
		pred, err := expr.Bind(x.Pred, x.In.Schema())
		if err != nil {
			return err
		}
		return lw.lower(x.In, stream.NewFilter(out, pred))
	case *Project:
		p, err := stream.NewProject(out, x.In.Schema(), x.Items)
		if err != nil {
			return err
		}
		return lw.lower(x.In, p)
	case *Join:
		j, err := stream.NewJoin(out, x.L.Schema(), x.R.Schema(), x.LKey, x.RKey, x.Residual)
		if err != nil {
			return err
		}
		lw.cks = append(lw.cks, j)
		if err := lw.lower(x.L, j.Left()); err != nil {
			return err
		}
		return lw.lower(x.R, j.Right())
	case *Aggregate:
		a, err := stream.NewAggregate(out, x.In.Schema(), x.GroupBy, x.Specs, x.Having)
		if err != nil {
			return err
		}
		lw.cks = append(lw.cks, a)
		return lw.lower(x.In, a)
	case *Distinct:
		d := stream.NewDistinct(out)
		lw.cks = append(lw.cks, d)
		return lw.lower(x.In, d)
	}
	return fmt.Errorf("cannot lower %T", n)
}

// step pushes one batch of one input into every scan of it, in scan order,
// or ticks every window, and returns what the sink received.
func (lw *lowering) step(input string, batch []data.Tuple, tick vtime.Time) []data.Tuple {
	lw.sink.Reset()
	if tick != 0 {
		for _, a := range lw.advs {
			a.Advance(tick)
		}
	}
	for _, sc := range Scans(lw.root) {
		if sc.Input == input {
			lw.heads[sc].PushBatch(batch)
		}
	}
	return lw.sink.Snapshot()
}

// sameDeltas reports whether two delta sequences are identical: the same
// rows, values bit for bit, timestamps and polarities, in the same order.
func sameDeltas(a, b []data.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y data.Tuple) bool {
		return x.TS == y.TS && x.Op == y.Op && slices.Equal(x.Vals, y.Vals)
	})
}

// TestCompileDifferential runs random plans — selections over RANGE,
// RANGE…SLIDE, NOW and ROWS windows and unwindowed scans, projections that
// drop or compute columns, residual joins, join over join, aggregates with
// and without a SELECT-order reprojection, DISTINCT — through the compiler
// and through the node-per-operator lowering, under both hash masks. After
// every batch and every tick the two must have emitted the same rows in the
// same order. Midway, the literal lowering's checkpoint — unfiltered window
// rows, whole joined rows — restores into a fresh compiled pipeline, which
// must carry on emitting what the literal one does. Reproducible from the
// seed:
//
//	go test ./internal/plan -run CompileDifferential -fuzzshard.seed=7
func TestCompileDifferential(t *testing.T) {
	for _, mask := range []uint64{^uint64(0), 0} {
		t.Run(fmt.Sprintf("mask=%x", mask), func(t *testing.T) {
			old := stream.SetTestHashMask(mask)
			defer stream.SetTestHashMask(old)
			runCompileDifferential(t, *fuzzSeed, 2**fuzzN)
		})
	}
}

func runCompileDifferential(t *testing.T, seed int64, nPlans int) {
	sources := fuzzSources()
	var admitted, narrowed, identities int
	for pi := range nPlans {
		rng := rand.New(rand.NewSource(seed + int64(pi)))
		g := &fuzzGen{rng: rng, sources: sources, every: true}
		root := g.genPlan()
		admitted += countNodes(root, func(n Node) bool {
			s, ok := n.(*Select)
			if !ok {
				return false
			}
			sc, ok := s.In.(*Scan)
			return ok && admits(sc)
		})
		identities += countNodes(root, func(n Node) bool {
			p, ok := n.(*Project)
			return ok && isIdentity(p.Items, p.In.Schema())
		})
		evs := genWorkload(rng, sources, 300)
		lit, comp := literal(t, root), compiled(t, root)
		for _, k := range comp.cks {
			if j, ok := k.(*stream.Join); ok && j.OutSchema().Arity() < j.Left().Schema().Arity()+j.Right().Schema().Arity() {
				narrowed++
			}
		}
		restoreAt := rng.Intn(len(evs))
		for i := 0; i < len(evs); {
			ev := evs[i]
			batch := []data.Tuple{ev.t}
			for i++; ev.tick == 0 && i < len(evs) && evs[i].tick == 0 && evs[i].input == ev.input && rng.Intn(3) > 0; i++ {
				batch = append(batch, evs[i].t)
			}
			if ev.tick != 0 {
				batch = nil
			}
			want := lit.step(ev.input, batch, ev.tick)
			if got := comp.step(ev.input, batch, ev.tick); !sameDeltas(got, want) {
				t.Fatalf("seed %d plan %d event %d: compiled emitted %v, node-per-operator %v\nplan: %s",
					seed, pi, i, got, want, root)
			}
			if i > restoreAt {
				restoreAt = len(evs)
				state, err := stream.EncodeCheckpoint(lit.cks)
				if err != nil {
					t.Fatal(err)
				}
				comp = compiled(t, root)
				if err := stream.RestoreCheckpoint(comp.cks, state); err != nil {
					t.Fatalf("seed %d plan %d: the literal lowering's checkpoint does not restore: %v\nplan: %s", seed, pi, err, root)
				}
			}
		}
	}
	t.Logf("seed %d: %d plans; %d selections admitted by their windows, %d joins narrowed, %d identity projections",
		seed, nPlans, admitted, narrowed, identities)
	if admitted == 0 || narrowed == 0 || identities == 0 {
		t.Fatal("the generator stopped drawing a shape one of the compiler's rules rewrites")
	}
}

// A join over a join stores its inner join's whole rows, so a deletion
// removes the row the node-per-operator lowering removes. Here the outer
// join reads only l.a and its key l.b of the inner join's rows, and two of
// those rows — (l1, r1) and (l1, r2) — agree on both: retracting r2 must
// remove (l1, r2), not the earlier (l1, r1), or the next S3 tuple joins the
// stored rows in a different order.
func TestCompileJoinOverJoinDeletesTheSameRow(t *testing.T) {
	s1, s2 := fuzzSources()[0].schema, fuzzSources()[1].schema
	s3 := data.NewSchema("S3", data.Col("x", data.TInt), data.Col("y", data.TInt))
	s3.IsStream = true
	inner := NewJoin(NewScan("S1", "l", s1, nil, 10, false), NewScan("S2", "r", s2, nil, 10, false),
		[]string{"l.a"}, []string{"r.x"}, nil)
	outer := NewJoin(inner, NewScan("S3", "q", s3, nil, 10, false), []string{"l.b"}, []string{"q.x"}, nil)
	root, err := NewProject(outer, []stream.ProjectItem{{Expr: expr.C("l.a")}, {Expr: expr.C("q.y")}})
	if err != nil {
		t.Fatal(err)
	}
	ints := func(ts vtime.Time, vs ...int64) data.Tuple {
		vals := make([]data.Value, len(vs))
		for i, v := range vs {
			vals[i] = data.Int(v)
		}
		return data.Tuple{Vals: vals, TS: ts}
	}
	l := func(ts vtime.Time, a int64, s string) data.Tuple {
		return data.NewTuple(ts, data.Int(a), data.Int(0), data.Str(s))
	}
	r2 := ints(5, 1, 20)
	steps := []struct {
		input string
		t     data.Tuple
	}{
		{"S1", l(1, 1, "l1")}, {"S2", ints(2, 1, 10)}, {"S1", l(3, 2, "l2")}, {"S2", ints(4, 2, 30)},
		{"S2", r2}, {"S2", r2.Negate()}, {"S3", ints(6, 0, 7)}, {"S1", l(1, 1, "l1").Negate()}, {"S3", ints(7, 0, 8)},
	}
	lit, comp := literal(t, root), compiled(t, root)
	for i, st := range steps {
		want := lit.step(st.input, []data.Tuple{st.t}, 0)
		if got := comp.step(st.input, []data.Tuple{st.t}, 0); !sameDeltas(got, want) {
			t.Fatalf("step %d: compiled emitted %v, node-per-operator %v", i, got, want)
		}
	}
}

// countNodes counts the nodes of the tree rooted at n that match.
func countNodes(n Node, match func(Node) bool) int {
	c := 0
	if match(n) {
		c++
	}
	for _, ch := range n.Children() {
		c += countNodes(ch, match)
	}
	return c
}

// The compiler's rules fire where they may and only there: a selection over
// a RANGE window is the window's admission predicate, one over a ROWS window
// or on a shared chain stays above the window, an aggregate over a join
// reads a join that writes two columns, SELECT * over a join keeps every
// column, and an identity projection compiles to nothing.
func TestCompileBuildsOnlyWhatIsRead(t *testing.T) {
	src := fuzzSources()[0].schema // S1(a, b, s)
	pred := func(alias string) expr.Expr {
		return expr.Bin{Op: expr.OpLt, L: expr.C(alias + ".a"), R: expr.L(10)}
	}
	rejected := data.Tuple{Vals: []data.Value{data.Int(50), data.Int(1), data.Str("x")}, TS: vtime.Second}
	rangeW := &sql.WindowSpec{Kind: sql.WindowRange, Range: 2 * time.Second}

	held := func(w *sql.WindowSpec) int {
		scan := NewScan("S1", "t", src, w, 10, false)
		lw := compiled(t, &Select{In: scan, Pred: pred("t")})
		win, ok := lw.heads[scan].(*stream.Window)
		if !ok {
			t.Fatalf("%s: scan head is %T, not its window", w, lw.heads[scan])
		}
		win.PushBatch([]data.Tuple{rejected})
		return win.Len()
	}
	if n := held(rangeW); n != 0 {
		t.Errorf("RANGE window holds %d rejected rows, want 0 (the selection admits)", n)
	}
	if n := held(&sql.WindowSpec{Kind: sql.WindowRows, Rows: 3}); n != 1 {
		t.Errorf("ROWS window holds %d rejected rows, want 1 (the selection stays above it)", n)
	}

	eng := stream.NewEngine("shared", vtime.NewScheduler())
	share := NewSharing(eng)
	dep, err := CompileStreamOpts(&Built{Root: &Select{In: NewScan("S1", "t", src, rangeW, 10, false), Pred: pred("t")},
		Limit: -1}, Host{Engine: eng, Sharing: share}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	in, _ := eng.Input("S1")
	in.PushBatch([]data.Tuple{rejected})
	for _, ch := range share.chains {
		if ch.win != nil && ch.win.Len() != 1 {
			t.Errorf("shared chain window holds %d rows, want the rejected one (the GroupedFilter is above it)", ch.win.Len())
		}
	}

	s2 := fuzzSources()[1].schema // S2(x, y)
	join := NewJoin(NewScan("S1", "l", src, rangeW, 10, false), NewScan("S2", "r", s2, rangeW, 10, false),
		[]string{"l.a"}, []string{"r.x"}, nil)
	agg, err := NewAggregate(join, []string{"l.s"}, []stream.AggSpec{{Kind: stream.AggSum, Arg: expr.C("r.y"), Alias: "sy"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var all []stream.ProjectItem
	for _, c := range join.Schema().Cols {
		all = append(all, stream.ProjectItem{Expr: expr.C(c.QName())})
	}
	star, err := NewProject(join, all)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		root Node
		cols int
	}{{agg, 2}, {join, 5}, {star, 5}} {
		lw := compiled(t, c.root)
		i := slices.IndexFunc(lw.cks, func(k stream.Checkpointer) bool { _, ok := k.(*stream.Join); return ok })
		if j := lw.cks[i].(*stream.Join); j.OutSchema().Arity() != c.cols {
			t.Errorf("%s: join writes %s, want %d columns", c.root, j.OutSchema(), c.cols)
		}
	}

	scan := NewScan("S1", "t", src, nil, 10, false)
	var items []stream.ProjectItem
	for _, c := range scan.Schema().Cols {
		items = append(items, stream.ProjectItem{Expr: expr.C(c.QName())})
	}
	ident, err := NewProject(scan, items)
	if err != nil {
		t.Fatal(err)
	}
	if lw := compiled(t, ident); lw.heads[scan] != stream.Operator(lw.sink) {
		t.Errorf("identity projection compiled to %T in front of the sink", lw.heads[scan])
	}
}

// A plan whose references do not resolve — as a decoded replica spec may
// carry — fails to compile with an error wherever the compiler resolves
// what a node reads, and panics nowhere.
func TestCompileRejectsUnresolvedColumns(t *testing.T) {
	src, s2 := fuzzSources()[0].schema, fuzzSources()[1].schema
	rangeW := &sql.WindowSpec{Kind: sql.WindowRange, Range: 2 * time.Second}
	l, r := NewScan("S1", "l", src, rangeW, 10, false), NewScan("S2", "r", s2, rangeW, 10, false)
	bad := expr.C("zz")
	join := func(residual expr.Expr, lk string) *Join {
		return NewJoin(l, r, []string{lk}, []string{"r.x"}, residual)
	}
	count := []stream.AggSpec{{Kind: stream.AggCount, Alias: "n"}}
	for name, root := range map[string]Node{
		"select":                    &Select{In: l, Pred: bad},
		"select over a join":        &Aggregate{In: &Select{In: join(nil, "l.a"), Pred: bad}, Specs: count},
		"projection":                &Project{In: join(nil, "l.a"), Items: []stream.ProjectItem{{Expr: bad}}},
		"group key":                 &Aggregate{In: join(nil, "l.a"), GroupBy: []string{"zz"}, Specs: count},
		"aggregate argument":        &Aggregate{In: join(nil, "l.a"), Specs: []stream.AggSpec{{Kind: stream.AggSum, Arg: bad}}},
		"residual":                  &Aggregate{In: join(expr.Bin{Op: expr.OpNe, L: bad, R: expr.C("r.y")}, "l.a"), Specs: count},
		"join key":                  &Aggregate{In: join(nil, "l.zz"), Specs: count},
		"identity check":            &Project{In: l, Items: []stream.ProjectItem{{Expr: expr.C("l.a")}, {Expr: bad}, {Expr: expr.C("l.s")}}},
		"key under an outer join":   &Aggregate{In: NewJoin(join(nil, "l.a"), NewScan("S2", "q", s2, rangeW, 10, false), []string{"zz"}, []string{"q.x"}, nil), Specs: count},
		"residual of an outer join": &Aggregate{In: NewJoin(join(nil, "l.a"), NewScan("S2", "q", s2, rangeW, 10, false), []string{"l.b"}, []string{"q.x"}, expr.Bin{Op: expr.OpLt, L: bad, R: expr.C("q.y")}), Specs: count},
	} {
		c := &compiler{track: func(stream.Advancer) {}, scanHead: func(*Scan, stream.Operator) error { return nil }}
		if err := c.compile(root, stream.NewCollector(data.NewSchema("out", data.Col("n", data.TInt))), nil); err == nil {
			t.Errorf("%s: compiled %s", name, root)
		}
	}
}
