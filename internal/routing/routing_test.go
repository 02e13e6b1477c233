package routing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"aspen/internal/testproc"
)

// Nodes returns all known routing points, sorted.
func (g *Graph) Nodes() []string {
	g.mu.RLock()
	out := slices.Clone(g.names)
	g.mu.RUnlock()
	slices.Sort(out)
	return out
}

func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddBoth("lobby", "h1", 40))
	must(g.AddBoth("h1", "lab101", 25))
	must(g.AddBoth("lobby", "h2", 30))
	must(g.AddBoth("h2", "lab101", 50))
	must(g.AddBoth("h1", "h2", 10))
	return g
}

func TestShortestPath(t *testing.T) {
	g := buildDiamond(t)
	r, ok := g.Shortest("lobby", "lab101")
	if !ok {
		t.Fatal("unreachable")
	}
	if r.Dist != 65 {
		t.Fatalf("dist = %v, want 65", r.Dist)
	}
	want := []string{"lobby", "h1", "lab101"}
	if len(r.Points) != 3 {
		t.Fatalf("points = %v", r.Points)
	}
	for i := range want {
		if r.Points[i] != want[i] {
			t.Fatalf("path = %v, want %v", r.Points, want)
		}
	}
	if !strings.Contains(r.String(), "lobby -> h1 -> lab101") {
		t.Fatalf("String = %q", r.String())
	}
}

func TestShortestSelfAndUnreachable(t *testing.T) {
	g := buildDiamond(t)
	r, ok := g.Shortest("lobby", "lobby")
	if !ok || r.Dist != 0 || len(r.Points) != 1 {
		t.Fatalf("self route = %v %t", r, ok)
	}
	if _, ok := g.Shortest("lobby", "nowhere"); ok {
		t.Fatal("phantom destination reachable")
	}
	if _, ok := g.Shortest("nowhere", "lobby"); ok {
		t.Fatal("phantom source reachable")
	}
	if (Route{}).String() != "(unreachable)" {
		t.Fatal("empty route rendering")
	}
}

func TestEdgeRemovalReroutes(t *testing.T) {
	g := buildDiamond(t)
	g.RemoveBoth("h1", "lab101")
	r, ok := g.Shortest("lobby", "lab101")
	if !ok || r.Dist != 80 {
		t.Fatalf("reroute = %v %t, want dist 80 via h2", r, ok)
	}
	// removing an unknown edge is a no-op
	g.RemoveEdge("x", "y")
	if g.Edges() != 8 {
		t.Fatalf("edges after a no-op removal = %d, want 8", g.Edges())
	}
}

func TestNegativeWeightRejected(t *testing.T) {
	g := NewGraph()
	if err := g.AddEdge("a", "b", -1); err == nil {
		t.Fatal("negative weight accepted")
	}
	if err := g.AddBoth("a", "b", -1); err == nil {
		t.Fatal("negative weight accepted via AddBoth")
	}
}

func TestNearest(t *testing.T) {
	g := buildDiamond(t)
	dest, r, ok := g.Nearest("lobby", []string{"lab101", "h2"})
	if !ok || dest != "h2" || r.Dist != 30 {
		t.Fatalf("nearest = %s %v %t", dest, r, ok)
	}
	if _, _, ok := g.Nearest("lobby", []string{"mars"}); ok {
		t.Fatal("unreachable candidate chosen")
	}
	if _, _, ok := g.Nearest("lobby", nil); ok {
		t.Fatal("empty candidate set chosen")
	}
}

func TestNodesAndEdges(t *testing.T) {
	g := buildDiamond(t)
	ns := g.Nodes()
	if len(ns) != 4 || ns[0] != "h1" {
		t.Fatalf("nodes = %v", ns)
	}
	if g.Edges() != 10 {
		t.Fatalf("edges = %d", g.Edges())
	}
}

func TestDistances(t *testing.T) {
	g := buildDiamond(t)
	d := g.Distances("lobby")
	if d["lab101"] != 65 || d["h2"] != 30 || d["lobby"] != 0 {
		t.Fatalf("distances = %v", d)
	}
}

func TestDirectedEdgesAreOneWay(t *testing.T) {
	g := NewGraph()
	if err := g.AddEdge("a", "b", 5); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Shortest("a", "b"); !ok {
		t.Fatal("forward direction broken")
	}
	if _, ok := g.Shortest("b", "a"); ok {
		t.Fatal("reverse direction should be unreachable")
	}
}

// Property: Dijkstra agrees with Floyd-Warshall on random graphs.
func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		g := NewGraph()
		n := 8 + r.Intn(6)
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("n%d", i)
		}
		edges := n * 2
		for i := 0; i < edges; i++ {
			a, b := nodes[r.Intn(n)], nodes[r.Intn(n)]
			if a == b {
				continue
			}
			if err := g.AddEdge(a, b, float64(1+r.Intn(20))); err != nil {
				t.Fatal(err)
			}
		}
		fw := g.FloydWarshall()
		for _, src := range nodes {
			if _, known := fw[src]; !known {
				continue
			}
			dij := g.Distances(src)
			for _, dst := range nodes {
				fwD, fwOK := fw[src][dst]
				dijD, dijOK := dij[dst]
				if fwOK != dijOK {
					t.Fatalf("trial %d: reachability disagrees for %s->%s (fw=%t dij=%t)",
						trial, src, dst, fwOK, dijOK)
				}
				if fwOK && math.Abs(fwD-dijD) > 1e-9 {
					t.Fatalf("trial %d: %s->%s fw=%v dij=%v", trial, src, dst, fwD, dijD)
				}
			}
		}
	}
}

// Property: path distances are consistent — the reported distance equals
// the sum of edge weights along the reported path.
func TestRouteDistanceConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g := NewGraph()
	var names []string
	for i := 0; i < 15; i++ {
		names = append(names, fmt.Sprintf("p%d", i))
	}
	for i := 0; i < 40; i++ {
		a, b := names[r.Intn(15)], names[r.Intn(15)]
		if a != b {
			_ = g.AddBoth(a, b, float64(1+r.Intn(9)))
		}
	}
	for _, src := range names {
		for _, dst := range names {
			route, ok := g.Shortest(src, dst)
			if !ok {
				continue
			}
			sum := 0.0
			for i := 0; i+1 < len(route.Points); i++ {
				w, ok := g.weight(route.Points[i], route.Points[i+1])
				if !ok {
					t.Fatalf("path uses nonexistent edge %s->%s", route.Points[i], route.Points[i+1])
				}
				sum += w
			}
			if math.Abs(sum-route.Dist) > 1e-9 {
				t.Fatalf("%s->%s: path sums to %v, reported %v", src, dst, sum, route.Dist)
			}
		}
	}
}

// weight returns the weight of the edge from -> to.
func (g *Graph) weight(from, to string) (float64, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	f, okF := g.ids[from]
	t, okT := g.ids[to]
	if !okF || !okT {
		return 0, false
	}
	for _, e := range g.out[f] {
		if e.to == t {
			return e.w, true
		}
	}
	return 0, false
}

// FloydWarshall computes all-pairs shortest distances; the reference
// implementation the property tests compare the search against (O(n³),
// small graphs only).
func (g *Graph) FloydWarshall() map[string]map[string]float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	d := map[string]map[string]float64{}
	for a, es := range g.out {
		row := map[string]float64{g.names[a]: 0}
		for _, e := range es {
			if cur, ok := row[g.names[e.to]]; !ok || e.w < cur {
				row[g.names[e.to]] = e.w
			}
		}
		d[g.names[a]] = row
	}
	for _, k := range g.names {
		for _, i := range g.names {
			dik, ok := d[i][k]
			if !ok {
				continue
			}
			for _, j := range g.names {
				if dkj, ok := d[k][j]; ok {
					if cur, exists := d[i][j]; !exists || dik+dkj < cur {
						d[i][j] = dik + dkj
					}
				}
			}
		}
	}
	return d
}

// tieGraph is a 4-cycle of equal weights on which a -> b -> d and
// a -> c -> d tie, its points first seen in the given order.
func tieGraph(t *testing.T, order ...string) *Graph {
	t.Helper()
	g := NewGraph()
	edges := map[string][2]string{"b": {"a", "b"}, "c": {"a", "c"}}
	for _, mid := range order {
		if err := g.AddBoth(edges[mid][0], edges[mid][1], 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, mid := range order {
		if err := g.AddBoth(mid, "d", 1); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// Routes of equal length tie-break by the order the graph first saw the
// points, never by chance: the same graph built 200 times gives one route.
func TestTiedRoutesAreDeterministic(t *testing.T) {
	for _, c := range []struct {
		order []string
		want  string
	}{{[]string{"b", "c"}, "a -> b -> d (2)"}, {[]string{"c", "b"}, "a -> c -> d (2)"}} {
		for i := 0; i < 200; i++ {
			g := tieGraph(t, c.order...)
			r, ok := g.Shortest("a", "d")
			if !ok || r.String() != c.want {
				t.Fatalf("order %v, build %d: Shortest = %v, want %s", c.order, i, r, c.want)
			}
			_, r, ok = g.Nearest("a", []string{"d"})
			if !ok || r.String() != c.want {
				t.Fatalf("order %v, build %d: Nearest = %v, want %s", c.order, i, r, c.want)
			}
		}
	}
}

func TestNearestWhere(t *testing.T) {
	g := buildDiamond(t)
	var seen []string
	dest, r, ok := g.NearestWhere("lobby", func(p string) bool {
		seen = append(seen, p)
		return strings.HasPrefix(p, "h")
	})
	// h2 (30) is taken; h1 (40) is farther and never shown to accept
	if !ok || dest != "h2" || r.String() != "lobby -> h2 (30)" {
		t.Fatalf("nearest = %s %v %t", dest, r, ok)
	}
	if strings.Join(seen, ",") != "lobby,h2" {
		t.Fatalf("accept saw %v, want lobby,h2", seen)
	}
	if _, _, ok := g.NearestWhere("lobby", func(string) bool { return false }); ok {
		t.Fatal("nothing accepted, yet a destination")
	}
	if _, _, ok := g.NearestWhere("mars", func(string) bool { return true }); ok {
		t.Fatal("unknown source reached something")
	}
	// ties: every point at the least accepted distance is shown, and the
	// last one taken wins
	tg := tieGraph(t, "b", "c")
	seen = seen[:0]
	dest, r, _ = tg.NearestWhere("a", func(p string) bool {
		seen = append(seen, p)
		return p == "b" || p == "c"
	})
	if dest != "c" || r.String() != "a -> c (1)" || strings.Join(seen, ",") != "a,b,c" {
		t.Fatalf("tie: %s %v after %v, want c after a,b,c", dest, r, seen)
	}
	_, r, _ = tg.NearestWhere("a", func(p string) bool { return p == "d" })
	if r.String() != "a -> b -> d (2)" {
		t.Fatalf("tie route = %v", r)
	}
}

// The searches a visitor's request makes allocate only the route they
// return.
func TestSearchAllocatesOnlyTheRoute(t *testing.T) {
	if testproc.Race {
		t.Skip("the race detector drains the search pool at random")
	}
	g := buildDiamond(t)
	for name, search := range map[string]func(){
		"Shortest": func() { g.Shortest("lobby", "lab101") },
		"NearestWhere": func() {
			g.NearestWhere("lobby", func(p string) bool { return p == "lab101" })
		},
	} {
		if n := testing.AllocsPerRun(100, search); n != 1 {
			t.Errorf("%s allocates %v times, want 1 (the route)", name, n)
		}
	}
}

// Searches run beside mutations: each holds the graph still for its run,
// so the lobby -> lab101 route is 65 with the h1 door and 80 without it.
func TestSearchesBesideMutations(t *testing.T) {
	g := buildDiamond(t)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				check := func(call string, r Route, ok bool) {
					if !ok || (r.Dist != 65 && r.Dist != 80) {
						t.Errorf("%s = %v %t, want dist 65 or 80", call, r, ok)
					}
				}
				r, ok := g.Shortest("lobby", "lab101")
				check("Shortest", r, ok)
				_, r, ok = g.Nearest("lobby", []string{"lab101"})
				check("Nearest", r, ok)
				_, r, ok = g.NearestWhere("lobby", func(p string) bool { return p == "lab101" })
				check("NearestWhere", r, ok)
				if d := g.Distances("lobby")["lab101"]; d != 65 && d != 80 {
					t.Errorf("Distances = %v", d)
				}
				_, _ = g.Nodes(), g.Edges()
			}
		}()
	}
	for i := range 300 {
		g.RemoveBoth("h1", "lab101")
		if err := g.AddBoth("h1", "lab101", 25); err != nil {
			t.Error(err)
		}
		if err := g.AddEdge("lab101", fmt.Sprintf("desk%d", i), 1); err != nil {
			t.Error(err)
		}
	}
	close(done)
	wg.Wait()
	if g.Edges() != 10+300 {
		t.Fatalf("edges = %d, want 310", g.Edges())
	}
}

// Searches from a point the graph does not know reach nothing, and
// removing an edge between known points that has none changes nothing.
func TestUnknownSourceAndMissingEdge(t *testing.T) {
	g := buildDiamond(t)
	if d := g.Distances("mars"); len(d) != 0 {
		t.Fatalf("distances from an unknown point = %v", d)
	}
	if _, _, ok := g.Nearest("mars", []string{"lobby"}); ok {
		t.Fatal("unknown source reached a candidate")
	}
	g.RemoveEdge("lobby", "lab101")
	if g.Edges() != 10 {
		t.Fatalf("removing a missing edge: edges %d, want 10", g.Edges())
	}
}
