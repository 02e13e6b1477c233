// Package expr implements StreamSQL scalar expressions: the AST shared with
// the parser, a binder that resolves column references against a schema, and
// an evaluator with SQL three-valued NULL semantics.
//
// The paper's queries (Fig. 1) use `^` for conjunction and LIKE for
// capability matching ("p.needed like m.software"); both are supported.
package expr

import (
	"fmt"
	"strings"

	"aspen/internal/data"
)

// Expr is a scalar expression tree node.
type Expr interface {
	fmt.Stringer
	expr()
}

// Lit is a literal constant.
type Lit struct{ V data.Value }

// Col is a (possibly qualified) column reference such as "ss.room".
type Col struct{ Ref string }

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpLike
)

var binNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpLike: "LIKE",
}

// String names the operator.
func (o BinOp) String() string { return binNames[o] }

// Comparison reports whether the operator yields a boolean comparison.
func (o BinOp) Comparison() bool { return o >= OpEq && o <= OpGe }

// Bin is a binary operation.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// UnOp enumerates unary operators.
type UnOp uint8

// Unary operators.
const (
	OpNeg UnOp = iota
	OpNot
)

// Un is a unary operation.
type Un struct {
	Op UnOp
	X  Expr
}

// IsNull tests X IS [NOT] NULL.
type IsNull struct {
	X   Expr
	Neg bool
}

// Call is a builtin scalar function application.
type Call struct {
	Name string
	Args []Expr
}

func (Lit) expr()    {}
func (Col) expr()    {}
func (Bin) expr()    {}
func (Un) expr()     {}
func (IsNull) expr() {}
func (Call) expr()   {}

// String renders the literal in SQL syntax.
func (l Lit) String() string {
	if l.V.T == data.TString {
		return "'" + strings.ReplaceAll(l.V.S, "'", "''") + "'"
	}
	return l.V.String()
}

func (c Col) String() string { return c.Ref }

func (b Bin) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

func (u Un) String() string {
	if u.Op == OpNot {
		return fmt.Sprintf("(NOT %s)", u.X)
	}
	return fmt.Sprintf("(-%s)", u.X)
}

func (n IsNull) String() string {
	if n.Neg {
		return fmt.Sprintf("(%s IS NOT NULL)", n.X)
	}
	return fmt.Sprintf("(%s IS NULL)", n.X)
}

func (c Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", strings.ToUpper(c.Name), strings.Join(args, ", "))
}

// Convenience constructors used heavily by tests and the planner.

// L builds a literal from a Go value.
func L(v any) Lit {
	switch x := v.(type) {
	case int:
		return Lit{data.Int(int64(x))}
	case int64:
		return Lit{data.Int(x)}
	case float64:
		return Lit{data.Float(x)}
	case string:
		return Lit{data.Str(x)}
	case bool:
		return Lit{data.Bool(x)}
	case data.Value:
		return Lit{x}
	}
	panic(fmt.Sprintf("expr.L: unsupported literal %T", v))
}

// C builds a column reference.
func C(ref string) Col { return Col{Ref: ref} }
