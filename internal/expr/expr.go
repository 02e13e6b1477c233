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

func (b Bin) String() string    { return Format(b, plain, plain, Lit.String) }
func (u Un) String() string     { return Format(u, plain, plain, Lit.String) }
func (n IsNull) String() string { return Format(n, plain, plain, Lit.String) }
func (c Call) String() string   { return Format(c, plain, plain, Lit.String) }

func plain(s string) string { return s }

// Format writes e as SQL text, fully parenthesized. It is the one walk of
// the tree: ref writes each column reference, name each function name
// (upper-cased) and lit each literal. String is Format with the names as
// they are and Lit.String; a printer that must quote or spell the leaves
// otherwise passes its own writers.
func Format(e Expr, ref, name func(string) string, lit func(Lit) string) string {
	var b strings.Builder
	f := formatter{&b, ref, name, lit}
	f.write(e)
	return b.String()
}

type formatter struct {
	b         *strings.Builder
	ref, name func(string) string
	lit       func(Lit) string
}

func (f formatter) write(e Expr) {
	switch x := e.(type) {
	case Lit:
		f.b.WriteString(f.lit(x))
	case Col:
		f.b.WriteString(f.ref(x.Ref))
	case Bin:
		f.b.WriteByte('(')
		f.write(x.L)
		f.b.WriteString(" " + x.Op.String() + " ")
		f.write(x.R)
		f.b.WriteByte(')')
	case Un:
		if x.Op == OpNot {
			f.b.WriteString("(NOT ")
		} else {
			f.b.WriteString("(-")
		}
		f.write(x.X)
		f.b.WriteByte(')')
	case IsNull:
		f.b.WriteByte('(')
		f.write(x.X)
		if x.Neg {
			f.b.WriteString(" IS NOT NULL)")
		} else {
			f.b.WriteString(" IS NULL)")
		}
	case Call:
		f.b.WriteString(f.name(strings.ToUpper(x.Name)))
		f.b.WriteByte('(')
		for i, a := range x.Args {
			if i > 0 {
				f.b.WriteString(", ")
			}
			f.write(a)
		}
		f.b.WriteByte(')')
	default:
		panic(fmt.Sprintf("expr: Format has no case for %T", e))
	}
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
