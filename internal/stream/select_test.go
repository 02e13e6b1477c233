package stream

import (
	"math"
	"math/rand"
	"testing"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// counter counts what it is handed and keeps nothing.
type counter struct {
	schema *data.Schema
	n      int
}

func (c *counter) Schema() *data.Schema       { return c.schema }
func (c *counter) Push(data.Tuple)            { c.n++ }
func (c *counter) PushBatch(ts []data.Tuple)  { c.n += len(ts) }
func (c *counter) reset() (n int)             { n, c.n = c.n, 0; return n }
func (r *retainer) reset() (got []data.Tuple) { got, r.tuples = r.tuples, nil; return got }

// Once its scratch has grown, the grouped filter matches and dispatches
// without allocating, on both push paths — the atoms through the index, the
// OR member through its truth form.
func TestGroupedFilterAllocs(t *testing.T) {
	in := batchSchema("r")
	g := NewGroupedFilter(in)
	var sinks []*counter
	add := func(pred expr.Expr) {
		sinks = append(sinks, &counter{schema: in})
		g.Add(sinks[len(sinks)-1], expr.MustBind(pred, in))
	}
	for i := 0; i < 24; i++ {
		add(expr.And(expr.Bin{Op: expr.OpGt, L: expr.C("v"), R: expr.L(float64(40 + 2*i))},
			expr.Bin{Op: expr.OpEq, L: expr.L("a"), R: expr.C("g")}))
	}
	add(expr.Bin{Op: expr.OpOr, L: expr.Bin{Op: expr.OpLt, L: expr.C("v"), R: expr.L(3)},
		R: expr.Bin{Op: expr.OpEq, L: expr.C("g"), R: expr.L("b")}})
	batch := make([]data.Tuple, 64)
	for i := range batch {
		batch[i] = data.NewTuple(vtime.Second, data.Str([]string{"a", "b"}[i%2]), data.Float(float64(i)))
	}
	g.PushBatch(batch)
	passed := 0
	for _, s := range sinks {
		passed += s.reset()
	}
	if passed == 0 || passed == len(batch)*len(sinks) {
		t.Fatalf("%d of %d deliveries: the test is vacuous", passed, len(batch)*len(sinks))
	}
	if n := testing.AllocsPerRun(100, func() { g.PushBatch(batch) }); n != 0 {
		t.Errorf("GroupedFilter.PushBatch: %v allocs per batch, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, tu := range batch {
			g.Push(tu)
		}
	}); n != 0 {
		t.Errorf("GroupedFilter.Push: %v allocs per batch of single pushes, want 0", n)
	}
	for _, out := range g.out {
		for _, tu := range out[:cap(out)] {
			if tu.Vals != nil {
				t.Fatal("PushBatch scratch still holds a tuple after dispatch")
			}
		}
	}
}

// TestGroupedFilterMembership: members are dispatched in the order they
// joined, a removed member receives nothing more, and an empty node passes
// nothing anywhere.
func TestGroupedFilterMembership(t *testing.T) {
	in := batchSchema("r")
	g := NewGroupedFilter(in)
	var order []int
	member := func(id int) Operator {
		return NewCallback(in, func([]data.Tuple) { order = append(order, id) })
	}
	gt := func(c float64) *expr.Compiled {
		return expr.MustBind(expr.Bin{Op: expr.OpGt, L: expr.C("v"), R: expr.L(c)}, in)
	}
	m := []Operator{member(0), member(1), member(2)}
	g.Add(m[2], gt(1))
	g.Add(m[0], gt(1))
	g.Add(m[1], gt(5))
	batch := []data.Tuple{data.NewTuple(vtime.Second, data.Str("a"), data.Float(9))}
	g.PushBatch(batch)
	if len(order) != 3 || order[0] != 2 || order[1] != 0 || order[2] != 1 {
		t.Fatalf("dispatch order %v, want [2 0 1]", order)
	}
	if !g.Remove(m[0]) || g.Remove(m[0]) || g.Members() != 2 {
		t.Fatalf("Remove: members %d after removing one of three (and not twice)", g.Members())
	}
	order = nil
	g.Push(batch[0])
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("after Remove, dispatch order %v, want [2 1]", order)
	}
	g.Remove(m[1])
	g.Remove(m[2])
	order = nil
	g.PushBatch(batch)
	g.Push(batch[0])
	if g.Members() != 0 || len(order) != 0 {
		t.Fatalf("an empty node delivered to %v", order)
	}
}

// selPalette is what FuzzGroupedFilter draws constants and tuple values
// from: NULL, integers on both sides of 2^53 and at the top of int64, floats
// with -0, NaN and the infinities, strings, booleans, times, and a type
// nothing compares with.
var selPalette = []data.Value{
	data.Null, data.Int(-1), data.Int(0), data.Int(1), data.Int(2), data.Int(1 << 53), data.Int(1<<53 + 1),
	data.Int(math.MaxInt64), data.Float(math.Copysign(0, -1)), data.Float(0.5), data.Float(1), data.Float(2.5),
	data.Float(1 << 53), data.Float(math.NaN()), data.Float(math.Inf(1)), data.Float(math.Inf(-1)),
	data.Str(""), data.Str("a"), data.Str("b"), data.Str("a%"), data.Bool(false), data.Bool(true),
	data.TimeVal(1), data.TimeVal(2), {T: 99},
}

// selFuzzSchema has a column of every type a comparison binds against,
// and x, typed NULL, which binds against constants of every class.
func selFuzzSchema() *data.Schema {
	return data.NewSchema("g", data.Col("a", data.TInt), data.Col("b", data.TFloat), data.Col("s", data.TString),
		data.Col("k", data.TBool), data.Col("x", data.TNull))
}

// selDecoder reads a fuzz input; past its end every byte reads 0.
type selDecoder struct{ b []byte }

func (d *selDecoder) next() int {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return int(c)
}

// conjunct decodes one factor of a member's predicate: mostly a column
// against a constant on either side, sometimes a shape only the truth form
// can answer (OR, LIKE, arithmetic, two columns).
func (d *selDecoder) conjunct() expr.Expr {
	cols := []string{"a", "b", "s", "k", "x"}
	col := expr.C(cols[d.next()%len(cols)])
	lit := expr.Lit{V: selPalette[d.next()%len(selPalette)]}
	op := []expr.BinOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}[d.next()%6]
	switch d.next() % 10 {
	case 0, 1:
		return expr.Bin{Op: op, L: lit, R: col}
	case 2:
		return expr.Bin{Op: expr.OpOr, L: expr.Bin{Op: op, L: col, R: lit}, R: expr.Bin{Op: expr.OpGe, L: expr.C("x"), R: lit}}
	case 3:
		return expr.Bin{Op: expr.OpLike, L: expr.C("s"), R: lit}
	case 4:
		return expr.Bin{Op: op, L: expr.Bin{Op: expr.OpAdd, L: col, R: expr.L(1)}, R: lit}
	case 5:
		return expr.Bin{Op: op, L: col, R: expr.C(cols[d.next()%len(cols)])}
	}
	return expr.Bin{Op: op, L: col, R: lit}
}

// members decodes up to 70 members (two bitset words), each a conjunction
// of one to three factors; factors that do not bind are dropped.
func (d *selDecoder) members(s *data.Schema) []*expr.Compiled {
	var preds []*expr.Compiled
	for n := 1 + d.next()%70; len(preds) < n && len(d.b) > 0; {
		var factors []expr.Expr
		for k := 1 + d.next()%3; k > 0; k-- {
			f := d.conjunct()
			if _, err := expr.Bind(f, s); err == nil {
				factors = append(factors, f)
			}
		}
		if len(factors) > 0 {
			preds = append(preds, expr.MustBind(expr.Conjoin(factors), s))
		}
	}
	return preds
}

func (d *selDecoder) tuples(arity int) []data.Tuple {
	var out []data.Tuple
	for len(d.b) > 0 && len(out) < 256 {
		vals := make([]data.Value, arity)
		for i := range vals {
			vals[i] = selPalette[d.next()%len(selPalette)]
		}
		out = append(out, data.NewTuple(vtime.Time(len(out)), vals...))
	}
	return out
}

// requireSelected holds a member's deliveries to its predicate: exactly the
// tuples EvalBool passes, in order — the very tuples, not copies.
func requireSelected(t *testing.T, ctx string, pred *expr.Compiled, in, got []data.Tuple) {
	t.Helper()
	var want []data.Tuple
	for _, tu := range in {
		if pred.EvalBool(tu) {
			want = append(want, tu)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: member %s got %d tuples, want %d", ctx, pred, len(got), len(want))
	}
	for i := range got {
		if &got[i].Vals[0] != &want[i].Vals[0] {
			t.Fatalf("%s: member %s tuple %d is %v, want %v", ctx, pred, i, got[i], want[i])
		}
	}
}

// FuzzGroupedFilter decodes a member set and tuples from the input, and
// requires every member to receive exactly what its predicate passes —
// through PushBatch, through Push, and again after every third member left.
func FuzzGroupedFilter(f *testing.F) {
	// Random seeds, each leading with its member count; the 66 members of
	// the third take two bitset words.
	for seed, n := range []int{5, 10, 30, 66} {
		b := make([]byte, 20*n+200)
		rand.New(rand.NewSource(int64(seed))).Read(b)
		b[0] = byte(n - 1)
		f.Add(b)
	}
	f.Add([]byte{3, 0, 1, 0, 2, 5, 1, 9, 3, 13, 4})
	s := selFuzzSchema()
	f.Fuzz(func(t *testing.T, b []byte) {
		d := &selDecoder{b: b}
		preds := d.members(s)
		tuples := d.tuples(s.Arity())
		if len(preds) == 0 {
			return
		}
		g := NewGroupedFilter(s)
		sinks := make([]*retainer, len(preds))
		for i, p := range preds {
			sinks[i] = &retainer{schema: s}
			g.Add(sinks[i], p)
		}
		check := func(ctx string, live func(int) bool) {
			for i, p := range preds {
				got := sinks[i].reset()
				if !live(i) {
					if len(got) > 0 {
						t.Fatalf("%s: removed member %s got %d tuples", ctx, p, len(got))
					}
					continue
				}
				requireSelected(t, ctx, p, tuples, got)
			}
		}
		all := func(int) bool { return true }
		g.PushBatch(tuples)
		check("PushBatch", all)
		for _, tu := range tuples {
			g.Push(tu)
		}
		check("Push", all)
		for i := 0; i < len(preds); i += 3 {
			g.Remove(sinks[i])
		}
		half := len(tuples) / 2
		g.PushBatch(tuples[:half])
		g.PushBatch(tuples[half:])
		check("PushBatch after Remove", func(i int) bool { return i%3 != 0 })
	})
}
