package expr

import (
	"reflect"
	"testing"

	"aspen/internal/data"
)

// Eq builds l = r.
func Eq(l, r Expr) Bin { return Bin{Op: OpEq, L: l, R: r} }

// And conjoins two expressions.
func And(l, r Expr) Bin { return Bin{Op: OpAnd, L: l, R: r} }

// Equal reports structural equality of expression trees.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.String() == b.String()
}

func TestConjunctsAndConjoin(t *testing.T) {
	e := And(And(Eq(C("a"), L(1)), Eq(C("b"), L(2))), Eq(C("c"), L(3)))
	cs := Conjuncts(e)
	if len(cs) != 3 {
		t.Fatalf("Conjuncts = %d, want 3", len(cs))
	}
	back := Conjoin(cs)
	if !Equal(back, e) {
		t.Fatalf("Conjoin(Conjuncts(e)) = %s, want %s", back, e)
	}
	if Conjuncts(nil) != nil {
		t.Fatal("Conjuncts(nil) should be nil")
	}
	if Conjoin(nil) != nil {
		t.Fatal("Conjoin(nil) should be nil")
	}
	if got := Conjoin([]Expr{nil, Eq(C("a"), L(1)), nil}); !Equal(got, Eq(C("a"), L(1))) {
		t.Fatalf("Conjoin with nils = %v", got)
	}
	// OR is not split
	or := Bin{OpOr, Eq(C("a"), L(1)), Eq(C("b"), L(2))}
	if len(Conjuncts(or)) != 1 {
		t.Fatal("OR must not be split")
	}
}

func TestColumnsAndRels(t *testing.T) {
	e := And(
		Eq(C("r.start"), C("p.room")),
		Bin{OpLike, C("p.needed"), C("m.software")},
	)
	cols := Columns(e)
	want := []string{"m.software", "p.needed", "p.room", "r.start"}
	if !reflect.DeepEqual(cols, want) {
		t.Fatalf("Columns = %v, want %v", cols, want)
	}
	if len(Columns(Call{Name: "abs", Args: []Expr{Un{OpNeg, C("x.y")}}})) != 1 {
		t.Fatal("Columns through call/unary")
	}
	if len(Columns(IsNull{X: C("z.w")})) != 1 {
		t.Fatal("Columns through IsNull")
	}
}

func TestBoundBy(t *testing.T) {
	s := data.NewSchema("ss", data.Col("room", data.TString), data.Col("desk", data.TInt))
	if !BoundBy(Eq(C("ss.room"), L("L1")), s) {
		t.Fatal("should be bound")
	}
	if BoundBy(Eq(C("sa.room"), L("L1")), s) {
		t.Fatal("should not be bound")
	}
}

func TestEquiJoin(t *testing.T) {
	l := data.NewSchema("sa", data.Col("room", data.TString), data.Col("status", data.TString))
	r := data.NewSchema("ss", data.Col("room", data.TString), data.Col("desk", data.TInt))
	lref, rref, ok := EquiJoin(Eq(C("sa.room"), C("ss.room")), l, r)
	if !ok || lref != "sa.room" || rref != "ss.room" {
		t.Fatalf("EquiJoin = %q %q %t", lref, rref, ok)
	}
	// reversed orientation
	lref, rref, ok = EquiJoin(Eq(C("ss.room"), C("sa.room")), l, r)
	if !ok || lref != "sa.room" || rref != "ss.room" {
		t.Fatalf("reversed EquiJoin = %q %q %t", lref, rref, ok)
	}
	if _, _, ok := EquiJoin(Eq(C("sa.room"), L("L1")), l, r); ok {
		t.Fatal("literal comparison is not an equi-join")
	}
	if _, _, ok := EquiJoin(Bin{OpLt, C("sa.room"), C("ss.room")}, l, r); ok {
		t.Fatal("< is not an equi-join")
	}
	if _, _, ok := EquiJoin(Eq(C("sa.room"), C("sa.status")), l, r); ok {
		t.Fatal("same-side equality is not a join predicate")
	}
}

func TestRequalify(t *testing.T) {
	e := And(Eq(C("v.room"), C("ss.room")), Bin{OpGt, C("v.desk"), L(3)})
	got := Requalify(e, "v", "omi")
	wantCols := []string{"omi.desk", "omi.room", "ss.room"}
	if !reflect.DeepEqual(Columns(got), wantCols) {
		t.Fatalf("Requalify cols = %v, want %v", Columns(got), wantCols)
	}
	// does not touch other qualifiers
	if !Equal(Requalify(C("x.y"), "v", "omi"), C("x.y")) {
		t.Fatal("Requalify touched unrelated qualifier")
	}
}

func TestSubstitute(t *testing.T) {
	e := Eq(C("omi.room"), C("other.room"))
	got := Substitute(e, map[string]Expr{"omi.room": C("ss.room")})
	if !Equal(got, Eq(C("ss.room"), C("other.room"))) {
		t.Fatalf("Substitute = %s", got)
	}
	// substitution into nested structures
	nested := Call{Name: "abs", Args: []Expr{Un{OpNeg, C("a.x")}}}
	got2 := Substitute(nested, map[string]Expr{"a.x": L(5)})
	if got2.String() != "ABS((-5))" {
		t.Fatalf("nested Substitute = %s", got2)
	}
}

func TestSelectivity(t *testing.T) {
	if s := Selectivity(Eq(C("a"), L(1))); s != 0.1 {
		t.Fatalf("eq selectivity = %v", s)
	}
	and := Selectivity(And(Eq(C("a"), L(1)), Eq(C("b"), L(2))))
	if and >= 0.1 {
		t.Fatalf("AND should compound: %v", and)
	}
	or := Selectivity(Bin{OpOr, Eq(C("a"), L(1)), Eq(C("b"), L(2))})
	if or <= 0.1 || or > 0.2 {
		t.Fatalf("OR selectivity = %v", or)
	}
	not := Selectivity(Un{OpNot, Eq(C("a"), L(1))})
	if not != 0.9 {
		t.Fatalf("NOT selectivity = %v", not)
	}
	if Selectivity(C("a")) != 0.5 {
		t.Fatal("default selectivity")
	}
	lt := Selectivity(Bin{OpLt, C("a"), L(1)})
	if lt != 0.3 {
		t.Fatalf("range selectivity = %v", lt)
	}
}

func TestEqual(t *testing.T) {
	if !Equal(nil, nil) {
		t.Fatal("nil == nil")
	}
	if Equal(nil, C("a")) || Equal(C("a"), nil) {
		t.Fatal("nil != expr")
	}
	if !Equal(Eq(C("a"), L(1)), Eq(C("a"), L(1))) {
		t.Fatal("identical exprs")
	}
	if Equal(Eq(C("a"), L(1)), Eq(C("a"), L(2))) {
		t.Fatal("different exprs")
	}
}
