// Package routing computes suggested routes through the building: shortest
// paths over the "routing points" table (§2: "a table of 'routing points'
// describing possible path segments and distances in the building in order
// to suggest routes to resources").
//
// The stream engine's recursive views (internal/views) answer the same
// queries declaratively; this package is the imperative substrate the
// SmartCIS control logic uses for real-time guidance, plus the reference
// implementation the property tests compare against.
package routing

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// Graph is a directed weighted graph over string-named routing points.
// All methods are safe for concurrent use: mutations take the graph's
// lock, and a search holds its read lock for the whole run, so the
// callback of NearestWhere must not call the graph.
//
// Points get dense ids in the order the graph first sees them, and a
// point's edges keep the order they were first added in. Ties between
// paths of equal length are broken by those ids, so a route never depends
// on anything but the sequence of mutations: a search settles points in
// order of distance, equal distances lowest id first, and a point's route
// runs through the first settled point that reaches it at its least
// distance.
type Graph struct {
	mu    sync.RWMutex
	ids   map[string]int32
	names []string // by id
	out   [][]edge // by id: the point's edges in the order first added
	edges int
}

type edge struct {
	to int32
	w  float64
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{ids: map[string]int32{}}
}

// point returns the named point's id, adding the point when it is new.
// g.mu is held for writing.
func (g *Graph) point(name string) int32 {
	if id, ok := g.ids[name]; ok {
		return id
	}
	id := int32(len(g.names))
	g.ids[name] = id
	g.names = append(g.names, name)
	g.out = append(g.out, nil)
	return id
}

// AddEdge inserts (or updates) a directed edge. Negative weights are
// rejected.
func (g *Graph) AddEdge(from, to string, w float64) error {
	if w < 0 {
		return fmt.Errorf("routing: negative edge weight %v", w)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	f, t := g.point(from), g.point(to)
	if i := slices.IndexFunc(g.out[f], func(e edge) bool { return e.to == t }); i >= 0 {
		g.out[f][i].w = w
	} else {
		g.out[f] = append(g.out[f], edge{to: t, w: w})
		g.edges++
	}
	return nil
}

// AddBoth inserts the edge in both directions (hallways are two-way).
func (g *Graph) AddBoth(a, b string, w float64) error {
	if err := g.AddEdge(a, b, w); err != nil {
		return err
	}
	return g.AddEdge(b, a, w)
}

// RemoveEdge deletes a directed edge; unknown edges are ignored. The
// points stay.
func (g *Graph) RemoveEdge(from, to string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f, okF := g.ids[from]
	t, okT := g.ids[to]
	if !okF || !okT {
		return
	}
	i := slices.IndexFunc(g.out[f], func(e edge) bool { return e.to == t })
	if i < 0 {
		return
	}
	g.out[f] = slices.Delete(g.out[f], i, i+1)
	g.edges--
}

// RemoveBoth deletes the edge in both directions.
func (g *Graph) RemoveBoth(a, b string) {
	g.RemoveEdge(a, b)
	g.RemoveEdge(b, a)
}

// Edges returns the edge count.
func (g *Graph) Edges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.edges
}

// Route is a computed path.
type Route struct {
	Points []string
	Dist   float64
}

// String renders "a -> b -> c (dist)".
func (r Route) String() string {
	if len(r.Points) == 0 {
		return "(unreachable)"
	}
	s := ""
	for i, p := range r.Points {
		if i > 0 {
			s += " -> "
		}
		s += p
	}
	return fmt.Sprintf("%s (%.0f)", s, r.Dist)
}

// Shortest returns the minimum-distance route from src to dst, or ok=false
// when unreachable.
func (g *Graph) Shortest(src, dst string) (Route, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s, okS := g.ids[src]
	d, okD := g.ids[dst]
	if !okS || !okD {
		return Route{}, false
	}
	sr := searches.Get().(*search)
	defer searches.Put(sr)
	sr.run(g, s, func(p int32) bool { return p != d })
	if !sr.done[d] {
		return Route{}, false
	}
	return sr.route(g, d), true
}

// Distances returns shortest distances from src to every reachable node.
func (g *Graph) Distances(src string) map[string]float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := map[string]float64{}
	s, ok := g.ids[src]
	if !ok {
		return out
	}
	sr := searches.Get().(*search)
	defer searches.Put(sr)
	sr.run(g, s, func(p int32) bool {
		out[g.names[p]] = sr.dist[p]
		return true
	})
	return out
}

// Nearest returns the reachable destination among candidates with the
// smallest distance from src, with its route; among equally near ones the
// earliest in candidates wins. ok=false when none is reachable.
func (g *Graph) Nearest(src string, candidates []string) (string, Route, bool) {
	rank := make(map[string]int, len(candidates))
	for i, c := range candidates {
		if _, dup := rank[c]; !dup {
			rank[c] = i
		}
	}
	best := len(candidates)
	return g.NearestWhere(src, func(p string) bool {
		if r, ok := rank[p]; ok && r < best {
			best = r
			return true
		}
		return false
	})
}

// NearestWhere searches outward from src for the nearest point that accept
// takes. accept sees each point at most once, in the order the search
// settles them (distance, then id); once it has taken a point at distance
// d, it sees the rest of the points at d and none farther. The route goes
// to the last point it took, so a caller that breaks ties among equally
// near points its own way takes a point only when it beats the one taken
// before. accept runs under the graph's read lock and must not call the
// graph. ok=false when accept takes no reachable point.
func (g *Graph) NearestWhere(src string, accept func(point string) bool) (string, Route, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s, ok := g.ids[src]
	if !ok {
		return "", Route{}, false
	}
	sr := searches.Get().(*search)
	defer searches.Put(sr)
	best := int32(-1)
	sr.run(g, s, func(p int32) bool {
		if best >= 0 && sr.dist[p] > sr.dist[best] {
			return false
		}
		if accept(g.names[p]) {
			best = p
		}
		return true
	})
	if best < 0 {
		return "", Route{}, false
	}
	return g.names[best], sr.route(g, best), true
}

// search is one search's working state over a graph's ids, pooled so that
// a search allocates nothing but what it returns.
type search struct {
	dist []float64
	prev []int32 // the point a route arrives from; -1 at the source
	done []bool  // settled
	heap []entry // a binary min-heap by (d, p)
}

type entry struct {
	d float64
	p int32
}

var searches = sync.Pool{New: func() any { return new(search) }}

// run settles the points reachable from src in order of distance, equal
// distances lowest id first, and calls visit with each settled point; it
// stops when visit returns false. dist, prev and done then describe every
// point settled so far. g.mu is held for reading.
func (s *search) run(g *Graph, src int32, visit func(p int32) bool) {
	n := len(g.names)
	s.dist, s.prev, s.done = resize(s.dist, n), resize(s.prev, n), resize(s.done, n)
	for i := range n {
		s.dist[i], s.prev[i], s.done[i] = math.Inf(1), -1, false
	}
	s.dist[src] = 0
	s.heap = append(s.heap[:0], entry{0, src})
	for len(s.heap) > 0 {
		e := s.pop()
		if s.done[e.p] {
			continue
		}
		s.done[e.p] = true
		if !visit(e.p) {
			return
		}
		for _, ed := range g.out[e.p] {
			if d := e.d + ed.w; d < s.dist[ed.to] {
				s.dist[ed.to], s.prev[ed.to] = d, e.p
				s.push(entry{d, ed.to})
			}
		}
	}
}

// route returns the settled route to dst: the one allocation of a search.
func (s *search) route(g *Graph, dst int32) Route {
	n := 0
	for p := dst; p >= 0; p = s.prev[p] {
		n++
	}
	points := make([]string, n)
	for p := dst; p >= 0; p = s.prev[p] {
		n--
		points[n] = g.names[p]
	}
	return Route{Points: points, Dist: s.dist[dst]}
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (a entry) less(b entry) bool { return a.d < b.d || (a.d == b.d && a.p < b.p) }

func (s *search) push(e entry) {
	h := append(s.heap, e)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if !h[i].less(h[up]) {
			break
		}
		h[i], h[up] = h[up], h[i]
		i = up
	}
	s.heap = h
}

func (s *search) pop() entry {
	h := s.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	s.heap = h
	return top
}
