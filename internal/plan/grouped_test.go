package plan

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// recorder keeps the very tuples it is handed, in order.
type recorder struct {
	schema *data.Schema
	got    []data.Tuple
}

func (r *recorder) Schema() *data.Schema      { return r.schema }
func (r *recorder) Push(t data.Tuple)         { r.got = append(r.got, t) }
func (r *recorder) PushBatch(ts []data.Tuple) { r.got = append(r.got, ts...) }

// groupedSchema is the differential's stream: a column per comparable
// class, with numbers of both kinds in the two numeric ones.
func groupedSchema() *data.Schema {
	s := data.NewSchema("G", data.Col("i", data.TInt), data.Col("f", data.TFloat),
		data.Col("s", data.TString), data.Col("k", data.TBool))
	s.IsStream = true
	return s
}

// groupedGen draws sibling predicates and tuples over groupedSchema.
type groupedGen struct{ rng *rand.Rand }

func (g groupedGen) num() data.Value {
	switch g.rng.Intn(9) {
	case 0:
		return data.Float(math.NaN())
	case 1:
		return data.Float(math.Copysign(0, -1))
	case 2, 3:
		return data.Float(float64(g.rng.Intn(9)) / 2)
	case 4:
		return data.Int(1<<53 + int64(g.rng.Intn(3)))
	case 5:
		return data.Float(1 << 53)
	}
	return data.Int(int64(g.rng.Intn(5)))
}

func (g groupedGen) str() data.Value {
	return data.Str([]string{"", "a", "ab", "b", "a%"}[g.rng.Intn(5)])
}

// value draws a value for column c; one in eight is NULL.
func (g groupedGen) value(c int) data.Value {
	if g.rng.Intn(8) == 0 {
		return data.Null
	}
	switch c {
	case 2:
		return g.str()
	case 3:
		return data.Bool(g.rng.Intn(2) == 0)
	}
	return g.num()
}

// atom is a comparison of a column with a constant of its class (or NULL),
// with the constant on either side.
func (g groupedGen) atom(alias string) expr.Expr {
	c := g.rng.Intn(4)
	col := expr.C(alias + "." + []string{"i", "f", "s", "k"}[c])
	lit := expr.Lit{V: g.value(c)}
	op := []expr.BinOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}[g.rng.Intn(6)]
	if g.rng.Intn(3) == 0 {
		return expr.Bin{Op: op, L: lit, R: col}
	}
	return expr.Bin{Op: op, L: col, R: lit}
}

// pred is a conjunction of one to three factors: mostly atoms (often two
// on one column, a range), sometimes a factor only a truth form answers.
func (g groupedGen) pred(alias string) expr.Expr {
	var factors []expr.Expr
	for n := 1 + g.rng.Intn(3); len(factors) < n; {
		switch g.rng.Intn(8) {
		case 0:
			factors = append(factors, expr.Bin{Op: expr.OpOr, L: g.atom(alias), R: g.atom(alias)})
		case 1:
			factors = append(factors, expr.Bin{Op: expr.OpLike, L: expr.C(alias + ".s"), R: expr.Lit{V: g.str()}})
		case 2:
			factors = append(factors, expr.Bin{Op: expr.OpGt,
				L: expr.Bin{Op: expr.OpAdd, L: expr.C(alias + ".i"), R: expr.L(1)}, R: expr.C(alias + ".f")})
		case 3:
			lo, hi := g.num(), g.num()
			f := expr.C(alias + ".f")
			factors = append(factors, expr.Bin{Op: expr.OpGe, L: f, R: expr.Lit{V: lo}}, expr.Bin{Op: expr.OpLt, L: f, R: expr.Lit{V: hi}})
		default:
			factors = append(factors, g.atom(alias))
		}
	}
	return expr.Conjoin(factors)
}

func (g groupedGen) batch(ts *vtime.Time) []data.Tuple {
	out := make([]data.Tuple, 1+g.rng.Intn(40))
	for i := range out {
		*ts += vtime.Time(1)
		out[i] = data.NewTuple(*ts, g.value(0), g.value(1), g.value(2), g.value(3))
	}
	return out
}

// TestGroupedFilterDifferential holds sibling selection layers, which one
// grouped node per fan-out point matches, to one Filter per layer: random
// sibling predicates — every comparison, constants on either side, ranges
// on one column, OR, LIKE and arithmetic residuals, NULL, NaN, -0, strings,
// and integers past 2^53 against floats — attach to one shared chain, some
// stacked two deep on a parent from a small pool, and queries attach and
// detach between batches. Every query must be handed exactly the tuples its
// reference filters forward, in order, on the batch and single-tuple paths;
// run under -race by `make race`.
func TestGroupedFilterDifferential(t *testing.T) {
	schema := groupedSchema()
	rounds := *fuzzN / 2
	if rounds < 10 {
		rounds = 10
	}
	grouped, delivered, offered := 0, 0, 0
	for r := 0; r < rounds; r++ {
		g := groupedGen{rand.New(rand.NewSource(*fuzzSeed + 17000 + int64(r)))}
		eng := stream.NewEngine(fmt.Sprintf("grouped%d", r), vtime.NewScheduler())
		s := NewSharing(eng)
		parents := []expr.Expr{g.pred("p"), g.pred("p")}
		type query struct {
			name     string
			dep      *Deployment
			got, ref *recorder
			head     stream.Operator // the reference: one Filter per layer
		}
		var live, done []*query
		attach := func() {
			q := &query{name: fmt.Sprintf("round %d q%d", r, len(live)+len(done)),
				dep: &Deployment{}, got: &recorder{schema: schema}, ref: &recorder{schema: schema}}
			alias := fmt.Sprintf("t%d", len(live)+len(done))
			preds := []expr.Expr{g.pred(alias)}
			if g.rng.Intn(4) == 0 {
				preds = []expr.Expr{expr.Requalify(parents[g.rng.Intn(len(parents))], "p", alias), preds[0]}
			}
			var n Node = NewScan("G", alias, schema, nil, 10, false)
			for _, p := range preds {
				n = &Select{In: n, Pred: p}
			}
			if handled, err := s.tryAttach(n, q.got, q.dep, false); !handled || err != nil {
				t.Fatalf("%s: attach %s: handled %t, %v", q.name, n, handled, err)
			}
			q.head = q.ref
			for i := len(preds) - 1; i >= 0; i-- {
				q.head = stream.NewFilter(q.head, expr.MustBind(preds[i], n.Schema()))
			}
			live = append(live, q)
		}
		for i := 0; i < 3+g.rng.Intn(8); i++ {
			attach()
		}
		in, _ := eng.Input("G")
		ts := vtime.Time(0)
		for b := 0; b < 12; b++ {
			for c := g.rng.Intn(3); c > 0; c-- {
				if len(live) > 1 && g.rng.Intn(2) == 0 {
					i := g.rng.Intn(len(live))
					live[i].dep.Close()
					done = append(done, live[i])
					live = append(live[:i], live[i+1:]...)
				} else {
					attach()
				}
			}
			if base := s.chains[canonScanKey(NewScan("G", "t", schema, nil, 10, false))]; base.sel != nil && base.sel.Members() > 1 {
				grouped++
			}
			batch := g.batch(&ts)
			if g.rng.Intn(3) == 0 {
				for _, tu := range batch {
					in.Push(tu)
				}
			} else {
				in.PushBatch(batch)
			}
			for _, q := range live {
				q.head.PushBatch(batch)
				offered += len(batch)
			}
		}
		for _, q := range append(live, done...) {
			if len(q.got.got) != len(q.ref.got) {
				t.Fatalf("%s: handed %d tuples, its filters forward %d", q.name, len(q.got.got), len(q.ref.got))
			}
			for i := range q.got.got {
				if &q.got.got[i].Vals[0] != &q.ref.got[i].Vals[0] {
					t.Fatalf("%s: tuple %d is %v, its filters forward %v", q.name, i, q.got.got[i], q.ref.got[i])
				}
			}
			delivered += len(q.got.got)
			q.dep.Close()
		}
		if chains, attached := s.Stats(); chains != 0 || attached != 0 || in.Subscribers() != 0 {
			t.Fatalf("round %d: chains=%d attached=%d subscribers=%d after closing every query",
				r, chains, attached, in.Subscribers())
		}
	}
	if grouped < rounds || delivered == 0 || delivered == offered {
		t.Fatalf("vacuous: a grouped node had two members in %d batches of %d rounds; %d of %d tuples delivered",
			grouped, rounds, delivered, offered)
	}
}

// TestGroupedFilterConcurrentChurn attaches and detaches sibling layers on
// an unwindowed shared chain (nothing to warm-start) while another
// goroutine pushes into it: the grouped node's copy-on-write membership is
// what -race vets here, and every registry must drain afterwards.
func TestGroupedFilterConcurrentChurn(t *testing.T) {
	schema := groupedSchema()
	eng := stream.NewEngine("grouped-churn", vtime.NewScheduler())
	s := NewSharing(eng)
	in, err := eng.Register("G", schema)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g := groupedGen{rand.New(rand.NewSource(*fuzzSeed + 18000))}
		ts := vtime.Time(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			in.PushBatch(g.batch(&ts))
		}
	}()
	g := groupedGen{rand.New(rand.NewSource(*fuzzSeed + 18001))}
	var deps []*Deployment
	for i := 0; i < 200; i++ {
		if len(deps) > 4 || len(deps) > 0 && g.rng.Intn(2) == 0 {
			deps[0].Close()
			deps = deps[1:]
			continue
		}
		alias := fmt.Sprintf("t%d", i)
		dep := &Deployment{}
		n := &Select{In: NewScan("G", alias, schema, nil, 10, false), Pred: g.pred(alias)}
		if _, err := s.tryAttach(n, &recorder{schema: schema}, dep, false); err != nil {
			t.Fatal(err)
		}
		deps = append(deps, dep)
	}
	close(stop)
	wg.Wait()
	for _, d := range deps {
		d.Close()
	}
	if chains, attached := s.Stats(); chains != 0 || attached != 0 || in.Subscribers() != 0 {
		t.Fatalf("chains=%d attached=%d subscribers=%d after churn", chains, attached, in.Subscribers())
	}
}
