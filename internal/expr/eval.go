package expr

import (
	"fmt"
	"math"
	"strings"

	"aspen/internal/data"
)

// Compiled is an expression bound to a schema, ready to evaluate against
// tuples of that schema.
type Compiled struct {
	// Type is the inferred result type.
	Type  data.Type
	eval  evalFn
	truth truthFn
	src   Expr
}

// Eval evaluates the expression on a tuple.
func (c *Compiled) Eval(t data.Tuple) data.Value { return c.eval(t.Vals) }

// EvalVals evaluates on a raw value slice.
func (c *Compiled) EvalVals(vals []data.Value) data.Value { return c.eval(vals) }

// EvalBool evaluates as a predicate: NULL counts as false (SQL WHERE
// semantics). It equals Eval(t).AsBool() on every tuple.
func (c *Compiled) EvalBool(t data.Tuple) bool { return c.truth(t.Vals) }

// String renders the source expression.
func (c *Compiled) String() string { return c.src.String() }

// Source returns the expression this evaluator was bound from, so callers
// that ship plans across processes (plan wire specs) can re-Bind it against
// the same schema on the other side.
func (c *Compiled) Source() Expr { return c.src }

// Bind resolves column references in e against schema and type-checks it,
// returning an evaluator.
func Bind(e Expr, schema *data.Schema) (*Compiled, error) {
	typ, eval, err := bind(e, schema)
	if err != nil {
		return nil, err
	}
	return &Compiled{Type: typ, eval: eval, truth: bindTruth(e, schema, eval), src: e}, nil
}

// MustBind is Bind for statically known expressions; panics on error.
func MustBind(e Expr, schema *data.Schema) *Compiled {
	c, err := Bind(e, schema)
	if err != nil {
		panic(err)
	}
	return c
}

type evalFn func(vals []data.Value) data.Value

// truthFn answers "is the expression TRUE" — all a WHERE, a join residual or
// a sensor predicate asks — without building the Value that says so.
type truthFn func(vals []data.Value) bool

// bindTruth binds the truth form of e, whose value form eval already bound
// against s (so binding its operands again cannot fail). AND and OR
// short-circuit over their operands' truth forms, which is sound because
// evaluation has no side effects and Kleene AND is TRUE iff both operands
// are, OR iff either is: whether the skipped side was FALSE or NULL cannot
// matter to a caller that only asks for TRUE. A comparison tests Compare's
// result directly; every other node is its value's AsBool.
func bindTruth(e Expr, s *data.Schema, eval evalFn) truthFn {
	if x, ok := e.(Bin); ok {
		switch {
		case x.Op == OpAnd || x.Op == OpOr:
			l, r := bindTruth(x.L, s, nil), bindTruth(x.R, s, nil)
			if x.Op == OpAnd {
				return func(vals []data.Value) bool { return l(vals) && r(vals) }
			}
			return func(vals []data.Value) bool { return l(vals) || r(vals) }
		case x.Op.Comparison():
			_, lf, _ := bind(x.L, s)
			_, rf, _ := bind(x.R, s)
			op := x.Op
			return func(vals []data.Value) bool {
				c, ok := lf(vals).Compare(rf(vals))
				return ok && op.holds(c)
			}
		}
	}
	if eval == nil {
		_, eval, _ = bind(e, s)
	}
	return func(vals []data.Value) bool { return eval(vals).AsBool() }
}

// holds reports whether a Compare result of c satisfies the comparison.
func (o BinOp) holds(c int) bool {
	switch o {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	}
	return c >= 0 // OpGe
}

func bind(e Expr, s *data.Schema) (data.Type, evalFn, error) {
	switch x := e.(type) {
	case Lit:
		v := x.V
		return v.T, func([]data.Value) data.Value { return v }, nil

	case Col:
		idx, err := s.ColIndex(x.Ref)
		if err != nil {
			return data.TNull, nil, err
		}
		typ := s.Cols[idx].Type
		return typ, func(vals []data.Value) data.Value { return vals[idx] }, nil

	case Un:
		t, f, err := bind(x.X, s)
		if err != nil {
			return data.TNull, nil, err
		}
		switch x.Op {
		case OpNeg:
			if !t.Numeric() && t != data.TNull {
				return data.TNull, nil, fmt.Errorf("expr: cannot negate %s in %s", t, e)
			}
			return t, func(vals []data.Value) data.Value {
				v := f(vals)
				switch v.T {
				case data.TInt:
					return data.Int(-v.I)
				case data.TFloat:
					return data.Float(-v.F)
				}
				return data.Null
			}, nil
		case OpNot:
			return data.TBool, func(vals []data.Value) data.Value {
				v := f(vals)
				if v.IsNull() {
					return data.Null
				}
				return data.Bool(!v.AsBool())
			}, nil
		}
		return data.TNull, nil, fmt.Errorf("expr: unknown unary op %d", x.Op)

	case IsNull:
		_, f, err := bind(x.X, s)
		if err != nil {
			return data.TNull, nil, err
		}
		neg := x.Neg
		return data.TBool, func(vals []data.Value) data.Value {
			return data.Bool(f(vals).IsNull() != neg)
		}, nil

	case Bin:
		lt, lf, err := bind(x.L, s)
		if err != nil {
			return data.TNull, nil, err
		}
		rt, rf, err := bind(x.R, s)
		if err != nil {
			return data.TNull, nil, err
		}
		return bindBin(x.Op, lt, rt, lf, rf, e)

	case Call:
		return bindCall(x, s)
	}
	return data.TNull, nil, fmt.Errorf("expr: unknown node %T", e)
}

func bindBin(op BinOp, lt, rt data.Type, lf, rf evalFn, src Expr) (data.Type, evalFn, error) {
	anyNull := lt == data.TNull || rt == data.TNull
	switch {
	case op == OpAnd || op == OpOr:
		isAnd := op == OpAnd
		return data.TBool, func(vals []data.Value) data.Value {
			l, r := lf(vals), rf(vals)
			// Kleene three-valued logic.
			ln, rn := l.IsNull(), r.IsNull()
			lb, rb := l.AsBool(), r.AsBool()
			if isAnd {
				if (!ln && !lb) || (!rn && !rb) {
					return data.Bool(false)
				}
				if ln || rn {
					return data.Null
				}
				return data.Bool(true)
			}
			if (!ln && lb) || (!rn && rb) {
				return data.Bool(true)
			}
			if ln || rn {
				return data.Null
			}
			return data.Bool(false)
		}, nil

	case op == OpLike:
		if !anyNull && (lt != data.TString || rt != data.TString) {
			return data.TNull, nil, fmt.Errorf("expr: LIKE requires strings, got %s LIKE %s in %s", lt, rt, src)
		}
		return data.TBool, func(vals []data.Value) data.Value {
			l, r := lf(vals), rf(vals)
			if l.IsNull() || r.IsNull() {
				return data.Null
			}
			return data.Bool(Like(l.AsString(), r.AsString()))
		}, nil

	case op.Comparison():
		if !anyNull && !comparable(lt, rt) {
			return data.TNull, nil, fmt.Errorf("expr: cannot compare %s with %s in %s", lt, rt, src)
		}
		o := op
		return data.TBool, func(vals []data.Value) data.Value {
			l, r := lf(vals), rf(vals)
			c, ok := l.Compare(r)
			if !ok {
				return data.Null
			}
			return data.Bool(o.holds(c))
		}, nil

	default: // arithmetic
		if lt == data.TString && rt == data.TString && op == OpAdd {
			// string concatenation via +
			return data.TString, func(vals []data.Value) data.Value {
				l, r := lf(vals), rf(vals)
				if l.IsNull() || r.IsNull() {
					return data.Null
				}
				return data.Str(l.AsString() + r.AsString())
			}, nil
		}
		if !anyNull && (!numericOrNull(lt) || !numericOrNull(rt)) {
			return data.TNull, nil, fmt.Errorf("expr: arithmetic on %s and %s in %s", lt, rt, src)
		}
		resType := data.TInt
		if lt == data.TFloat || rt == data.TFloat || op == OpDiv {
			resType = data.TFloat
		}
		o := op
		return resType, func(vals []data.Value) data.Value {
			l, r := lf(vals), rf(vals)
			if l.IsNull() || r.IsNull() {
				return data.Null
			}
			if l.T == data.TInt && r.T == data.TInt && o != OpDiv {
				switch o {
				case OpAdd:
					return data.Int(l.I + r.I)
				case OpSub:
					return data.Int(l.I - r.I)
				case OpMul:
					return data.Int(l.I * r.I)
				case OpMod:
					if r.I == 0 {
						return data.Null
					}
					return data.Int(l.I % r.I)
				}
			}
			a, b := l.AsFloat(), r.AsFloat()
			switch o {
			case OpAdd:
				return data.Float(a + b)
			case OpSub:
				return data.Float(a - b)
			case OpMul:
				return data.Float(a * b)
			case OpDiv:
				if b == 0 {
					return data.Null
				}
				return data.Float(a / b)
			case OpMod:
				if b == 0 {
					return data.Null
				}
				return data.Float(math.Mod(a, b))
			}
			return data.Null
		}, nil
	}
}

func numericOrNull(t data.Type) bool { return t.Numeric() || t == data.TNull }

func comparable(a, b data.Type) bool {
	if a == data.TNull || b == data.TNull {
		return true
	}
	if a.Numeric() && b.Numeric() {
		return true
	}
	return a == b
}

func bindCall(c Call, s *data.Schema) (data.Type, evalFn, error) {
	name := strings.ToLower(c.Name)
	args := make([]evalFn, len(c.Args))
	types := make([]data.Type, len(c.Args))
	for i, a := range c.Args {
		t, f, err := bind(a, s)
		if err != nil {
			return data.TNull, nil, err
		}
		args[i], types[i] = f, t
	}
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("expr: %s takes %d argument(s), got %d", name, n, len(args))
		}
		return nil
	}
	switch name {
	case "abs":
		if err := arity(1); err != nil {
			return data.TNull, nil, err
		}
		t := types[0]
		if !numericOrNull(t) {
			return data.TNull, nil, fmt.Errorf("expr: abs of %s", t)
		}
		return t, func(vals []data.Value) data.Value {
			v := args[0](vals)
			switch v.T {
			case data.TInt:
				if v.I < 0 {
					return data.Int(-v.I)
				}
				return v
			case data.TFloat:
				return data.Float(math.Abs(v.F))
			}
			return data.Null
		}, nil
	case "lower", "upper":
		if err := arity(1); err != nil {
			return data.TNull, nil, err
		}
		up := name == "upper"
		return data.TString, func(vals []data.Value) data.Value {
			v := args[0](vals)
			if v.IsNull() {
				return data.Null
			}
			if up {
				return data.Str(strings.ToUpper(v.AsString()))
			}
			return data.Str(strings.ToLower(v.AsString()))
		}, nil
	case "length":
		if err := arity(1); err != nil {
			return data.TNull, nil, err
		}
		return data.TInt, func(vals []data.Value) data.Value {
			v := args[0](vals)
			if v.IsNull() {
				return data.Null
			}
			return data.Int(int64(len(v.AsString())))
		}, nil
	case "coalesce":
		if len(args) == 0 {
			return data.TNull, nil, fmt.Errorf("expr: coalesce needs arguments")
		}
		t := data.TNull
		for _, at := range types {
			if at != data.TNull {
				t = at
				break
			}
		}
		return t, func(vals []data.Value) data.Value {
			for _, f := range args {
				if v := f(vals); !v.IsNull() {
					return v
				}
			}
			return data.Null
		}, nil
	case "sqrt":
		if err := arity(1); err != nil {
			return data.TNull, nil, err
		}
		return data.TFloat, func(vals []data.Value) data.Value {
			v := args[0](vals)
			if v.IsNull() || v.AsFloat() < 0 {
				return data.Null
			}
			return data.Float(math.Sqrt(v.AsFloat()))
		}, nil
	case "dist":
		// dist(x1,y1,x2,y2): Euclidean distance; used for proximity joins
		// between device coordinates from the catalog.
		if err := arity(4); err != nil {
			return data.TNull, nil, err
		}
		return data.TFloat, func(vals []data.Value) data.Value {
			var f [4]float64
			for i := range args {
				v := args[i](vals)
				if v.IsNull() {
					return data.Null
				}
				f[i] = v.AsFloat()
			}
			dx, dy := f[0]-f[2], f[1]-f[3]
			return data.Float(math.Sqrt(dx*dx + dy*dy))
		}, nil
	}
	return data.TNull, nil, fmt.Errorf("expr: unknown function %q", c.Name)
}
