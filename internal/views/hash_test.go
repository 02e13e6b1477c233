package views

import (
	"fmt"
	"testing"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/stream"
)

// tcView builds a transitive-closure view (the E6 shape) delivering deltas
// to a collector.
func tcView(t *testing.T) (*View, *stream.Collector) {
	t.Helper()
	vs := data.NewSchema("p", data.Col("src", data.TString), data.Col("dst", data.TString))
	es := data.NewSchema("e", data.Col("src", data.TString), data.Col("dst", data.TString))
	col := stream.NewCollector(vs)
	v, err := New(Config{
		Schema: vs, EdgeSchema: es,
		ViewKey: []string{"p.dst"}, EdgeKey: []string{"e.src"},
		Project: []stream.ProjectItem{{Expr: expr.C("p.src")}, {Expr: expr.C("e.dst")}},
	}, col)
	if err != nil {
		t.Fatal(err)
	}
	return v, col
}

func pair(a, b string) data.Tuple {
	return data.NewTuple(0, data.Str(a), data.Str(b))
}

// Forcing every fact and edge into one hash bucket must not change the
// maintained closure: identity, join index, and provenance all run through
// collision verification.
func TestRecursiveViewUnderForcedCollisions(t *testing.T) {
	old := testHashMask
	testHashMask = 0
	t.Cleanup(func() { testHashMask = old })

	v, _ := tcView(t)
	// Chain a -> b -> c -> d as base facts + edges (the bench idiom).
	names := []string{"a", "b", "c", "d"}
	for i := 0; i+1 < len(names); i++ {
		tu := pair(names[i], names[i+1])
		v.BaseInput().Push(tu)
		v.EdgeInput().Push(tu)
	}
	// Closure of a 4-chain: (a,b),(a,c),(a,d),(b,c),(b,d),(c,d).
	if v.Len() != 6 {
		t.Fatalf("closure size = %d, want 6: %v", v.Len(), v.Snapshot())
	}
	if got := v.Explain(pair("a", "c")); len(got) == 0 {
		t.Fatal("no provenance for derived fact")
	}

	// Deleting the middle edge must retract exactly the paths through it.
	mid := pair("b", "c")
	v.BaseInput().Push(mid.Negate())
	v.EdgeInput().Push(mid.Negate())
	// Remaining: (a,b),(c,d).
	if v.Len() != 2 {
		t.Fatalf("after delete, closure = %d, want 2: %v", v.Len(), v.Snapshot())
	}
	snap := v.Snapshot()
	want := map[string]bool{"a|b": true, "c|d": true}
	for _, s := range snap {
		k := fmt.Sprintf("%s|%s", s.Vals[0].AsString(), s.Vals[1].AsString())
		if !want[k] {
			t.Fatalf("unexpected survivor %v", s)
		}
	}

	// Re-inserting restores the closure through resurrection paths.
	v.BaseInput().Push(mid)
	v.EdgeInput().Push(mid)
	if v.Len() != 6 {
		t.Fatalf("after re-insert, closure = %d, want 6", v.Len())
	}
}

// Repeated insert/delete of a base fact under a long-lived edge must not
// accumulate dead children in the surviving edge's provenance set.
func TestProvenanceBoundedUnderChurn(t *testing.T) {
	v, _ := tcView(t)
	v.EdgeInput().Push(pair("b", "c"))
	for i := 0; i < 100; i++ {
		v.BaseInput().Push(pair("a", "b"))
		v.BaseInput().Push(pair("a", "b").Negate())
	}
	if v.Len() != 0 {
		t.Fatalf("facts leaked: %d", v.Len())
	}
	e := v.findEdge(pair("b", "c"), indexHash(pair("b", "c"), nil))
	if e == nil {
		t.Fatal("edge vanished")
	}
	if n := len(e.children); n != 0 {
		t.Fatalf("edge retains %d dead children after churn", n)
	}
}

// Distinct tuples with a forced-equal hash must stay distinct facts.
func TestRecursiveViewCollisionIdentity(t *testing.T) {
	old := testHashMask
	testHashMask = 0
	t.Cleanup(func() { testHashMask = old })

	v, _ := tcView(t)
	v.BaseInput().Push(pair("x", "y"))
	v.BaseInput().Push(pair("x", "z"))
	v.BaseInput().Push(pair("x", "y")) // duplicate: multiplicity, not a new fact
	if v.Len() != 2 {
		t.Fatalf("facts = %d, want 2", v.Len())
	}
	v.BaseInput().Push(pair("x", "y").Negate())
	if v.Len() != 2 {
		t.Fatalf("multiplicity delete removed a fact: %d", v.Len())
	}
	v.BaseInput().Push(pair("x", "y").Negate())
	if v.Len() != 1 {
		t.Fatalf("facts after full delete = %d, want 1", v.Len())
	}
}
