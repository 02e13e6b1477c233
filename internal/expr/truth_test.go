package expr_test

import (
	"math/rand"
	"testing"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sql"
)

// The law the truth form is held to: EvalBool(t) == Eval(t).AsBool(), for
// every expression that binds and every tuple — NULLs included, which is
// where a short-circuit that confused "not TRUE" with FALSE would show.

func truthSchema() *data.Schema {
	return data.NewSchema("t",
		data.Col("a", data.TInt),
		data.Col("b", data.TFloat),
		data.Col("s", data.TString),
		data.Col("k", data.TBool),
	)
}

// truthTuples is a handful of rows under every pattern of NULLs.
func truthTuples() []data.Tuple {
	rows := [][]data.Value{
		{data.Int(0), data.Float(0), data.Str(""), data.Bool(false)},
		{data.Int(3), data.Float(3), data.Str("fedora"), data.Bool(true)},
		{data.Int(-2), data.Float(2.5), data.Str("Fe%"), data.Bool(true)},
		{data.Int(7), data.Float(-0.5), data.Str("ubuntu"), data.Bool(false)},
	}
	var out []data.Tuple
	for _, r := range rows {
		for mask := 0; mask < 1<<len(r); mask++ {
			vals := append([]data.Value(nil), r...)
			for i := range vals {
				if mask&(1<<i) != 0 {
					vals[i] = data.Null
				}
			}
			out = append(out, data.NewTuple(0, vals...))
		}
	}
	return out
}

func requireTruthLaw(t *testing.T, c *expr.Compiled, tuples []data.Tuple) {
	t.Helper()
	for _, tu := range tuples {
		if got, want := c.EvalBool(tu), c.Eval(tu).AsBool(); got != want {
			t.Fatalf("%s on %v: EvalBool = %v, Eval = %v", c, tu, got, c.Eval(tu))
		}
	}
}

// exprGen draws random expressions over truthSchema. Most bind; the ones
// that do not (a string compared with a number) are the binder's to refuse.
type exprGen struct{ rng *rand.Rand }

func (g exprGen) pick(es ...func() expr.Expr) expr.Expr { return es[g.rng.Intn(len(es))]() }

func (g exprGen) num(depth int) expr.Expr {
	leaf := func() expr.Expr {
		return g.pick(
			func() expr.Expr { return expr.C("a") },
			func() expr.Expr { return expr.C("t.b") },
			func() expr.Expr { return expr.L(g.rng.Intn(9) - 2) },
			func() expr.Expr { return expr.L(float64(g.rng.Intn(16))/2 - 1) },
			func() expr.Expr { return expr.L(data.Null) },
		)
	}
	if depth <= 0 {
		return leaf()
	}
	return g.pick(leaf,
		func() expr.Expr {
			ops := []expr.BinOp{expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv, expr.OpMod}
			return expr.Bin{Op: ops[g.rng.Intn(len(ops))], L: g.num(depth - 1), R: g.num(depth - 1)}
		},
		func() expr.Expr { return expr.Un{Op: expr.OpNeg, X: g.num(depth - 1)} },
		func() expr.Expr { return expr.Call{Name: "abs", Args: []expr.Expr{g.num(depth - 1)}} },
		func() expr.Expr { return expr.Call{Name: "length", Args: []expr.Expr{g.str(depth - 1)}} },
		// Typed by its first argument, valued by whichever is not NULL: the
		// way a comparison meets two values it cannot compare at run time.
		func() expr.Expr {
			return expr.Call{Name: "coalesce", Args: []expr.Expr{g.num(depth - 1), g.str(depth - 1)}}
		},
	)
}

func (g exprGen) str(depth int) expr.Expr {
	leaf := func() expr.Expr {
		return g.pick(
			func() expr.Expr { return expr.C("s") },
			func() expr.Expr { return expr.L([]string{"", "fedora", "fe%", "%u_t%", "Fe%"}[g.rng.Intn(5)]) },
		)
	}
	if depth <= 0 {
		return leaf()
	}
	return g.pick(leaf,
		func() expr.Expr { return expr.Call{Name: "lower", Args: []expr.Expr{g.str(depth - 1)}} },
		func() expr.Expr { return expr.Bin{Op: expr.OpAdd, L: g.str(depth - 1), R: g.str(depth - 1)} },
	)
}

func (g exprGen) any(depth int) expr.Expr {
	return g.pick(
		func() expr.Expr { return g.num(depth) },
		func() expr.Expr { return g.str(depth) },
		func() expr.Expr { return g.boolean(depth) },
	)
}

func (g exprGen) boolean(depth int) expr.Expr {
	cmp := func() expr.Expr {
		ops := []expr.BinOp{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}
		op := ops[g.rng.Intn(len(ops))]
		return g.pick(
			func() expr.Expr { return expr.Bin{Op: op, L: g.num(depth - 1), R: g.num(depth - 1)} }, // int vs float, column vs column, literal on the left
			func() expr.Expr { return expr.Bin{Op: op, L: g.str(depth - 1), R: g.str(depth - 1)} },
			func() expr.Expr { return expr.Bin{Op: op, L: expr.C("k"), R: expr.L(g.rng.Intn(2) == 0)} },
			func() expr.Expr { return expr.Bin{Op: op, L: g.any(depth - 1), R: g.any(depth - 1)} }, // often refused
		)
	}
	if depth <= 0 {
		return g.pick(cmp,
			func() expr.Expr { return expr.C("k") },
			func() expr.Expr { return expr.L(g.rng.Intn(2) == 0) },
			func() expr.Expr { return expr.L(data.Null) },
		)
	}
	return g.pick(cmp,
		func() expr.Expr { return expr.Bin{Op: expr.OpAnd, L: g.any(depth - 1), R: g.boolean(depth - 1)} },
		func() expr.Expr { return expr.Bin{Op: expr.OpOr, L: g.boolean(depth - 1), R: g.any(depth - 1)} },
		func() expr.Expr { return expr.Bin{Op: expr.OpAnd, L: g.boolean(depth - 1), R: g.boolean(depth - 1)} },
		func() expr.Expr { return expr.Bin{Op: expr.OpOr, L: g.boolean(depth - 1), R: g.boolean(depth - 1)} },
		func() expr.Expr { return expr.Un{Op: expr.OpNot, X: g.boolean(depth - 1)} },
		func() expr.Expr { return expr.IsNull{X: g.any(depth - 1), Neg: g.rng.Intn(2) == 0} },
		func() expr.Expr { return expr.Bin{Op: expr.OpLike, L: g.str(depth - 1), R: g.str(depth - 1)} },
	)
}

func TestEvalBoolMatchesEval(t *testing.T) {
	schema, tuples := truthSchema(), truthTuples()
	for _, where := range truthSeeds {
		stmt, err := sql.ParseSelect(truthSelect + where)
		if err != nil {
			t.Fatalf("seed %q: %v", where, err)
		}
		requireTruthLaw(t, expr.MustBind(stmt.Where, schema), tuples)
	}
	g := exprGen{rand.New(rand.NewSource(24))}
	bound, trues := 0, 0
	for i := 0; i < 4000; i++ {
		c, err := expr.Bind(g.any(1+i%4), schema)
		if err != nil {
			continue
		}
		bound++
		requireTruthLaw(t, c, tuples)
		if c.EvalBool(tuples[len(tuples)/2]) {
			trues++
		}
	}
	if bound < 2000 || trues < bound/10 || trues > bound*9/10 {
		t.Fatalf("generator is lopsided: %d of 4000 bound, %d TRUE on one tuple", bound, trues)
	}
}

const truthSelect = "SELECT a FROM T t [RANGE 2 SECONDS] WHERE "

// truthSeeds are WHERE clauses over truthSchema that parse and bind.
var truthSeeds = []string{
	"a > 1 AND b < 2.5",
	"t.a >= 3 ^ s like 'fe%' ^ k = true",
	"NOT (a = 1 OR b <> a) AND s IS NOT NULL",
	"1 < a OR NULL OR a / 0 > 1",
	"(a % 2 = 0 OR s = 'x' + s) AND NOT k",
	"coalesce(a, s) > 2 OR length(s) - abs(a) <= b",
	"a",
}

// FuzzPredicateTruth feeds arbitrary text to the StreamSQL parser — which
// must refuse hostile input with an error, never a panic — and holds every
// WHERE that parses and binds to the same law.
func FuzzPredicateTruth(f *testing.F) {
	for _, where := range truthSeeds {
		f.Add(truthSelect + where)
	}
	f.Add("SELECT t.a, count(*) FROM T t GROUP BY t.a HAVING count(*) > 1 ORDER BY t.a LIMIT 3")
	schema, tuples := truthSchema(), truthTuples()
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sql.ParseSelect(src)
		if err != nil || stmt.Where == nil {
			return
		}
		if c, err := expr.Bind(stmt.Where, schema); err == nil {
			requireTruthLaw(t, c, tuples)
		}
	})
}
