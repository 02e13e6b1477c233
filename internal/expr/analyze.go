package expr

import (
	"sort"
	"strings"

	"aspen/internal/data"
)

// Conjuncts flattens a predicate into its top-level AND-ed factors.
// A nil expression yields nil.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(Bin); ok && b.Op == OpAnd {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// Atom is a comparison of one column with a constant, column first:
// vals[Col] Op Const. Const is never NULL.
type Atom struct {
	Col   int
	Op    BinOp
	Const data.Value
}

// Holds reports whether a Compare result c of the column's value against
// Const satisfies the atom.
func (a Atom) Holds(c int) bool { return a.Op.holds(c) }

// flipped maps a comparison to the one that holds with its operands swapped.
var flipped = map[BinOp]BinOp{OpEq: OpEq, OpNe: OpNe, OpLt: OpGt, OpLe: OpGe, OpGt: OpLt, OpGe: OpLe}

// Atoms splits a predicate into atoms when every one of its conjuncts is a
// comparison between a column of s and a non-NULL literal, on either side
// (the operator flips when the literal is on the left); ok is false for any
// other shape. The predicate is TRUE exactly when every atom holds: that is
// how EvalBool reads a conjunction of comparisons.
func Atoms(e Expr, s *data.Schema) (atoms []Atom, ok bool) {
	for _, f := range Conjuncts(e) {
		b, isBin := f.(Bin)
		if !isBin || !b.Op.Comparison() {
			return nil, false
		}
		op, col, lit := b.Op, b.L, b.R
		if _, isLit := col.(Lit); isLit {
			op, col, lit = flipped[op], b.R, b.L
		}
		c, isCol := col.(Col)
		l, isLit := lit.(Lit)
		if !isCol || !isLit || l.V.IsNull() {
			return nil, false
		}
		i, err := s.ColIndex(c.Ref)
		if err != nil {
			return nil, false
		}
		atoms = append(atoms, Atom{Col: i, Op: op, Const: l.V})
	}
	return atoms, len(atoms) > 0
}

// Conjoin combines factors with AND; nil for an empty list.
func Conjoin(factors []Expr) Expr {
	var out Expr
	for _, f := range factors {
		if f == nil {
			continue
		}
		if out == nil {
			out = f
		} else {
			out = Bin{Op: OpAnd, L: out, R: f}
		}
	}
	return out
}

// Columns returns the sorted set of column references appearing in e.
func Columns(e Expr) []string {
	set := map[string]bool{}
	collectCols(e, set)
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

func collectCols(e Expr, set map[string]bool) {
	switch x := e.(type) {
	case nil:
	case Lit:
	case Col:
		set[x.Ref] = true
	case Bin:
		collectCols(x.L, set)
		collectCols(x.R, set)
	case Un:
		collectCols(x.X, set)
	case IsNull:
		collectCols(x.X, set)
	case Call:
		for _, a := range x.Args {
			collectCols(a, set)
		}
	}
}

// BoundBy reports whether every column in e resolves in schema.
func BoundBy(e Expr, s *data.Schema) bool {
	for _, c := range Columns(e) {
		if !s.HasCol(c) {
			return false
		}
	}
	return true
}

// EquiJoin inspects a conjunct and, when it is an equality between one
// column of left and one column of right, returns the two column refs
// (oriented left, right).
func EquiJoin(e Expr, left, right *data.Schema) (lref, rref string, ok bool) {
	b, isBin := e.(Bin)
	if !isBin || b.Op != OpEq {
		return "", "", false
	}
	lc, lok := b.L.(Col)
	rc, rok := b.R.(Col)
	if !lok || !rok {
		return "", "", false
	}
	switch {
	case left.HasCol(lc.Ref) && right.HasCol(rc.Ref):
		return lc.Ref, rc.Ref, true
	case left.HasCol(rc.Ref) && right.HasCol(lc.Ref):
		return rc.Ref, lc.Ref, true
	}
	return "", "", false
}

// Requalify rewrites every column reference "oldRel.col" to "newRel.col",
// and re-qualifies bare references belonging to cols. Used when inlining
// views under an alias.
func Requalify(e Expr, oldRel, newRel string) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case Lit:
		return x
	case Col:
		rel, name := data.SplitQualified(x.Ref)
		if strings.EqualFold(rel, oldRel) {
			return Col{Ref: newRel + "." + name}
		}
		return x
	case Bin:
		return Bin{Op: x.Op, L: Requalify(x.L, oldRel, newRel), R: Requalify(x.R, oldRel, newRel)}
	case Un:
		return Un{Op: x.Op, X: Requalify(x.X, oldRel, newRel)}
	case IsNull:
		return IsNull{X: Requalify(x.X, oldRel, newRel), Neg: x.Neg}
	case Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = Requalify(a, oldRel, newRel)
		}
		return Call{Name: x.Name, Args: args}
	}
	return e
}

// Substitute replaces column references per the mapping (exact, qualified
// match) with replacement expressions. Used to inline view projections.
func Substitute(e Expr, mapping map[string]Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case Lit:
		return x
	case Col:
		if rep, ok := mapping[strings.ToLower(x.Ref)]; ok {
			return rep
		}
		return x
	case Bin:
		return Bin{Op: x.Op, L: Substitute(x.L, mapping), R: Substitute(x.R, mapping)}
	case Un:
		return Un{Op: x.Op, X: Substitute(x.X, mapping)}
	case IsNull:
		return IsNull{X: Substitute(x.X, mapping), Neg: x.Neg}
	case Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = Substitute(a, mapping)
		}
		return Call{Name: x.Name, Args: args}
	}
	return e
}

// Selectivity gives a crude textbook selectivity estimate for a conjunct,
// used by both per-engine optimizers when the catalog has no statistics.
func Selectivity(e Expr) float64 {
	switch x := e.(type) {
	case Bin:
		switch x.Op {
		case OpEq:
			return 0.1
		case OpNe:
			return 0.9
		case OpLt, OpLe, OpGt, OpGe:
			return 0.3
		case OpLike:
			return 0.25
		case OpAnd:
			return Selectivity(x.L) * Selectivity(x.R)
		case OpOr:
			l, r := Selectivity(x.L), Selectivity(x.R)
			return l + r - l*r
		}
	case Un:
		if x.Op == OpNot {
			return 1 - Selectivity(x.X)
		}
	case IsNull:
		return 0.05
	}
	return 0.5
}
