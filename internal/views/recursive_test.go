package views

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/stream"
)

// Snapshot returns the current view contents in the value order
// (data.CompareRows).
func (v *View) Snapshot() []data.Tuple {
	out := make([]data.Tuple, 0, v.nFacts)
	for _, bucket := range v.facts {
		for _, f := range bucket {
			out = append(out, f.t.Clone())
		}
	}
	slices.SortFunc(out, func(a, b data.Tuple) int { return data.CompareRows(a.Vals, b.Vals) })
	return out
}

// Derivation is one recorded way a view tuple was produced, exposed by
// Explain.
type Derivation struct {
	// Base marks a tuple inserted directly through the base input.
	Base bool
	// ViewParent and EdgeParent render the antecedent tuples.
	ViewParent, EdgeParent string
}

// Explain returns the recorded derivations of a tuple currently in the
// view (nil when absent).
func (v *View) Explain(t data.Tuple) []Derivation {
	f := v.findFact(t, indexHash(t, nil))
	if f == nil {
		return nil
	}
	var out []Derivation
	if f.baseMult > 0 {
		out = append(out, Derivation{Base: true})
	}
	for d := range f.derivs {
		vp, ep := "", ""
		if d.vParent != nil && d.vParent.live {
			vp = d.vParent.t.String()
		}
		if d.eParent != nil && d.eParent.live {
			ep = d.eParent.t.String()
		}
		out = append(out, Derivation{ViewParent: vp, EdgeParent: ep})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Base != out[j].Base {
			return out[i].Base
		}
		if out[i].ViewParent != out[j].ViewParent {
			return out[i].ViewParent < out[j].ViewParent
		}
		return out[i].EdgeParent < out[j].EdgeParent
	})
	return out
}

// tcSchemas builds the classic transitive-closure view:
//
//	paths(src, dst) = edges(src, dst) ∪ π_{p.src, e.dst}(paths p ⋈_{p.dst=e.src} edges e)
func tcSchemas() (view, edges *data.Schema) {
	view = data.NewSchema("p", data.Col("src", data.TString), data.Col("dst", data.TString))
	edges = data.NewSchema("e", data.Col("src", data.TString), data.Col("dst", data.TString))
	return view, edges
}

func newTC(t *testing.T, maxDepth int) (*View, *stream.Materialize) {
	t.Helper()
	vs, es := tcSchemas()
	mat := stream.NewMaterialize(vs)
	v, err := New(Config{
		Schema:     vs,
		EdgeSchema: es,
		ViewKey:    []string{"p.dst"},
		EdgeKey:    []string{"e.src"},
		Project: []stream.ProjectItem{
			{Expr: expr.C("p.src")},
			{Expr: expr.C("e.dst")},
		},
		MaxDepth: maxDepth,
	}, mat)
	if err != nil {
		t.Fatal(err)
	}
	return v, mat
}

func edgeT(src, dst string) data.Tuple {
	return data.NewTuple(0, data.Str(src), data.Str(dst))
}

// addEdge feeds an edge into both inputs, as the planner wires transitive
// closure: every edge is a base path and a recursive join input.
func addEdge(v *View, src, dst string) {
	v.BaseInput().Push(edgeT(src, dst))
	v.EdgeInput().Push(edgeT(src, dst))
}

func delEdge(v *View, src, dst string) {
	v.BaseInput().Push(edgeT(src, dst).Negate())
	v.EdgeInput().Push(edgeT(src, dst).Negate())
}

func pairs(v *View) map[string]bool {
	out := map[string]bool{}
	for _, t := range v.Snapshot() {
		out[t.Vals[0].AsString()+">"+t.Vals[1].AsString()] = true
	}
	return out
}

// reachBrute computes reachability pairs by Floyd-Warshall-ish closure.
func reachBrute(edges map[string]bool) map[string]bool {
	nodes := map[string]bool{}
	adj := map[string]map[string]bool{}
	for e := range edges {
		var a, b string
		fmt.Sscanf(e, "%s", new(string)) // placeholder to keep fmt import honest
		for i := 0; i < len(e); i++ {
			if e[i] == '>' {
				a, b = e[:i], e[i+1:]
			}
		}
		nodes[a], nodes[b] = true, true
		if adj[a] == nil {
			adj[a] = map[string]bool{}
		}
		adj[a][b] = true
	}
	out := map[string]bool{}
	for e := range edges {
		out[e] = true
	}
	changed := true
	for changed {
		changed = false
		for ab := range out {
			var a, b string
			for i := 0; i < len(ab); i++ {
				if ab[i] == '>' {
					a, b = ab[:i], ab[i+1:]
				}
			}
			for c := range adj[b] {
				key := a + ">" + c
				if !out[key] {
					out[key] = true
					changed = true
				}
			}
		}
	}
	_ = nodes
	return out
}

func TestTransitiveClosureInsert(t *testing.T) {
	v, mat := newTC(t, 0)
	addEdge(v, "a", "b")
	addEdge(v, "b", "c")
	addEdge(v, "c", "d")
	got := pairs(v)
	want := []string{"a>b", "b>c", "c>d", "a>c", "b>d", "a>d"}
	if len(got) != len(want) {
		t.Fatalf("pairs = %v", got)
	}
	for _, w := range want {
		if !got[w] {
			t.Fatalf("missing %s in %v", w, got)
		}
	}
	// materialized downstream agrees
	if mat.Len() != len(want) {
		t.Fatalf("mat = %d", mat.Len())
	}
}

func TestTransitiveClosureDeleteSimple(t *testing.T) {
	v, mat := newTC(t, 0)
	addEdge(v, "a", "b")
	addEdge(v, "b", "c")
	delEdge(v, "b", "c")
	got := pairs(v)
	if len(got) != 1 || !got["a>b"] {
		t.Fatalf("after delete = %v", got)
	}
	if mat.Len() != 1 {
		t.Fatalf("mat after delete = %d", mat.Len())
	}
}

func TestDeleteKeepsAlternatePath(t *testing.T) {
	v, _ := newTC(t, 0)
	addEdge(v, "a", "b")
	addEdge(v, "b", "d")
	addEdge(v, "a", "c")
	addEdge(v, "c", "d")
	delEdge(v, "b", "d") // a>d still reachable via c
	got := pairs(v)
	if !got["a>d"] {
		t.Fatalf("alternate path lost: %v", got)
	}
	if got["b>d"] {
		t.Fatalf("deleted edge lingers: %v", got)
	}
}

// The cyclic-support case where derivation counting is wrong: a→b→c→a.
// Deleting a→b must retract everything derived through it even though the
// cycle tuples mutually support each other.
func TestDeleteBreaksCyclicSupport(t *testing.T) {
	v, _ := newTC(t, 0)
	addEdge(v, "a", "b")
	addEdge(v, "b", "c")
	addEdge(v, "c", "a")
	before := pairs(v)
	if len(before) != 9 { // complete closure of a 3-cycle
		t.Fatalf("closure = %v", before)
	}
	delEdge(v, "a", "b")
	got := pairs(v)
	want := map[string]bool{"b>c": true, "c>a": true, "b>a": true}
	if len(got) != len(want) {
		t.Fatalf("after breaking cycle = %v, want %v", got, want)
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing %s: %v", k, got)
		}
	}
}

func TestSelfLoopIsHarmless(t *testing.T) {
	v, _ := newTC(t, 0)
	addEdge(v, "a", "a")
	addEdge(v, "a", "b")
	got := pairs(v)
	if !got["a>a"] || !got["a>b"] || len(got) != 2 {
		t.Fatalf("self loop closure = %v", got)
	}
	delEdge(v, "a", "a")
	got = pairs(v)
	if got["a>a"] || !got["a>b"] {
		t.Fatalf("after self-loop delete = %v", got)
	}
}

func TestMaxDepthBoundsRecursion(t *testing.T) {
	v, _ := newTC(t, 2)
	addEdge(v, "a", "b")
	addEdge(v, "b", "c")
	addEdge(v, "c", "d")
	addEdge(v, "d", "e")
	got := pairs(v)
	// depth ≤ 2 recursive steps: paths of length ≤ 3 edges
	if !got["a>d"] {
		t.Fatalf("length-3 path missing: %v", got)
	}
	if got["a>e"] {
		t.Fatalf("length-4 path should be pruned at MaxDepth=2: %v", got)
	}
}

func TestExplainProvenance(t *testing.T) {
	v, _ := newTC(t, 0)
	addEdge(v, "a", "b")
	addEdge(v, "b", "c")
	base := v.Explain(edgeT("a", "b"))
	if len(base) != 1 || !base[0].Base {
		t.Fatalf("base provenance = %+v", base)
	}
	derived := v.Explain(edgeT("a", "c"))
	if len(derived) != 1 || derived[0].Base {
		t.Fatalf("derived provenance = %+v", derived)
	}
	if derived[0].ViewParent == "" || derived[0].EdgeParent == "" {
		t.Fatalf("parents missing: %+v", derived)
	}
	if v.Explain(edgeT("x", "y")) != nil {
		t.Fatal("phantom provenance")
	}
	// multiple derivations recorded
	addEdge(v, "a", "x")
	addEdge(v, "x", "c")
	multi := v.Explain(edgeT("a", "c"))
	if len(multi) != 2 {
		t.Fatalf("expected 2 derivations: %+v", multi)
	}
}

func TestDuplicateInsertIdempotent(t *testing.T) {
	v, mat := newTC(t, 0)
	addEdge(v, "a", "b")
	addEdge(v, "a", "b") // again
	if v.Len() != 1 {
		t.Fatalf("len = %d", v.Len())
	}
	// one delete removes one multiplicity; the fact survives
	delEdge(v, "a", "b")
	if v.Len() != 1 {
		t.Fatalf("multiplicity ignored: %v", v.Snapshot())
	}
	delEdge(v, "a", "b")
	if v.Len() != 0 || mat.Len() != 0 {
		t.Fatalf("fact lingers after final delete")
	}
	// deleting a missing edge/base is a no-op
	delEdge(v, "zz", "qq")
}

func TestResidualPredicate(t *testing.T) {
	vs, es := tcSchemas()
	mat := stream.NewMaterialize(vs)
	v, err := New(Config{
		Schema: vs, EdgeSchema: es,
		ViewKey: []string{"p.dst"}, EdgeKey: []string{"e.src"},
		Residual: expr.Bin{Op: expr.OpNe, L: expr.C("p.src"), R: expr.C("e.dst")},
		Project: []stream.ProjectItem{
			{Expr: expr.C("p.src")}, {Expr: expr.C("e.dst")},
		},
	}, mat)
	if err != nil {
		t.Fatal(err)
	}
	addEdge(v, "a", "b")
	addEdge(v, "b", "a") // residual forbids deriving a>a
	got := pairs(v)
	if got["a>a"] || got["b>b"] {
		t.Fatalf("residual violated: %v", got)
	}
}

func TestConfigErrors(t *testing.T) {
	vs, es := tcSchemas()
	sink := stream.NewCollector(vs)
	bad := []Config{
		{Schema: vs, EdgeSchema: es, ViewKey: []string{"p.dst"}, EdgeKey: nil,
			Project: []stream.ProjectItem{{Expr: expr.C("p.src")}, {Expr: expr.C("e.dst")}}},
		{Schema: vs, EdgeSchema: es, ViewKey: []string{"p.dst"}, EdgeKey: []string{"e.src"},
			Project: []stream.ProjectItem{{Expr: expr.C("p.src")}}},
		{Schema: vs, EdgeSchema: es, ViewKey: []string{"bogus"}, EdgeKey: []string{"e.src"},
			Project: []stream.ProjectItem{{Expr: expr.C("p.src")}, {Expr: expr.C("e.dst")}}},
		{Schema: vs, EdgeSchema: es, ViewKey: []string{"p.dst"}, EdgeKey: []string{"bogus"},
			Project: []stream.ProjectItem{{Expr: expr.C("p.src")}, {Expr: expr.C("e.dst")}}},
		{Schema: vs, EdgeSchema: es, ViewKey: []string{"p.dst"}, EdgeKey: []string{"e.src"},
			Project: []stream.ProjectItem{{Expr: expr.C("zz")}, {Expr: expr.C("e.dst")}}},
		{Schema: vs, EdgeSchema: es, ViewKey: []string{"p.dst"}, EdgeKey: []string{"e.src"},
			Residual: expr.C("zz"),
			Project:  []stream.ProjectItem{{Expr: expr.C("p.src")}, {Expr: expr.C("e.dst")}}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, sink); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// Property test (E6 correctness): under random interleaved inserts and
// deletes, the incrementally maintained closure equals a from-scratch
// recomputation after every operation.
func TestIncrementalEqualsRecompute(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	nodes := []string{"a", "b", "c", "d", "e"}
	v, _ := newTC(t, 0)
	live := map[string]bool{}

	for step := 0; step < 400; step++ {
		a, b := nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]
		key := a + ">" + b
		if live[key] && r.Intn(2) == 0 {
			delEdge(v, a, b)
			delete(live, key)
		} else if !live[key] {
			addEdge(v, a, b)
			live[key] = true
		}
		got := pairs(v)
		want := reachBrute(live)
		if len(got) != len(want) {
			t.Fatalf("step %d: %d pairs, want %d\nedges=%v\ngot=%v\nwant=%v",
				step, len(got), len(want), live, got, want)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("step %d: missing %s", step, k)
			}
		}
	}
	st := v.Stats()
	if st.DerivationsTried == 0 || st.TuplesTouched == 0 || st.Emitted == 0 {
		t.Fatalf("stats not counting: %+v", st)
	}
}

// Distance-annotated closure with bounded depth: the building-routing
// query shape (path cost accumulates through the recursion).
func TestDistanceClosure(t *testing.T) {
	view := data.NewSchema("p", data.Col("src", data.TString),
		data.Col("dst", data.TString), data.Col("dist", data.TFloat))
	es := data.NewSchema("e", data.Col("src", data.TString),
		data.Col("dst", data.TString), data.Col("dist", data.TFloat))
	mat := stream.NewMaterialize(view)
	v, err := New(Config{
		Schema: view, EdgeSchema: es,
		ViewKey: []string{"p.dst"}, EdgeKey: []string{"e.src"},
		Project: []stream.ProjectItem{
			{Expr: expr.C("p.src")},
			{Expr: expr.C("e.dst")},
			{Expr: expr.Bin{Op: expr.OpAdd, L: expr.C("p.dist"), R: expr.C("e.dist")}},
		},
		MaxDepth: 4,
	}, mat)
	if err != nil {
		t.Fatal(err)
	}
	add := func(a, b string, d float64) {
		t := data.NewTuple(0, data.Str(a), data.Str(b), data.Float(d))
		v.BaseInput().Push(t)
		v.EdgeInput().Push(t)
	}
	add("lobby", "hall1", 40)
	add("hall1", "lab101", 25)
	add("lobby", "hall2", 30)
	add("hall2", "lab101", 50)
	found := map[float64]bool{}
	for _, tu := range v.Snapshot() {
		if tu.Vals[0].AsString() == "lobby" && tu.Vals[1].AsString() == "lab101" {
			found[tu.Vals[2].AsFloat()] = true
		}
	}
	if !found[65] || !found[80] {
		t.Fatalf("distances = %v, want 65 and 80", found)
	}
}
