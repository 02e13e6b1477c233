package plan

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"aspen/internal/catalog"
	"aspen/internal/data"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// hopsRoutes derives every route over the Hops table from the lobby, through
// a recursive view named paths.
const hopsRoutes = `WITH RECURSIVE paths(src, dst, dist) AS (
	SELECT h.src, h.dst, h.dist FROM Hops h
	UNION ALL
	SELECT p.src, h.dst, p.dist + h.dist FROM paths p, Hops h WHERE p.dst = h.src
) SELECT src, dst, dist FROM paths WHERE src = 'lobby'`

// recursiveCatalog registers a Hops table (lobby → hall1 → hall2) and a
// Links stream, both (src, dst, dist).
func recursiveCatalog() *catalog.Catalog {
	cat := catalog.New()
	hops := data.NewSchema("Hops",
		data.Col("src", data.TString), data.Col("dst", data.TString), data.Col("dist", data.TFloat))
	rel := data.NewRelation(hops)
	rel.MustInsert(data.Str("lobby"), data.Str("hall1"), data.Float(40))
	rel.MustInsert(data.Str("hall1"), data.Str("hall2"), data.Float(35))
	cat.MustAddSource(&catalog.Source{Name: "Hops", Kind: catalog.KindTable, Schema: hops, Table: rel})
	links := data.NewSchema("Links",
		data.Col("src", data.TString), data.Col("dst", data.TString), data.Col("dist", data.TFloat))
	links.IsStream = true
	cat.MustAddSource(&catalog.Source{Name: "Links", Kind: catalog.KindStream, Schema: links, Rate: 1})
	return cat
}

func buildRecursive(src string, cat *catalog.Catalog) (*Built, error) {
	stmt, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	wr, ok := stmt.(*sql.WithRecursive)
	if !ok {
		return nil, fmt.Errorf("%T is not WITH RECURSIVE", stmt)
	}
	return BuildRecursive(wr, cat, 12)
}

func mustBuildRecursive(t *testing.T, src string, cat *catalog.Catalog) *Built {
	t.Helper()
	b, err := buildRecursive(src, cat)
	if err != nil {
		t.Fatalf("BuildRecursive(%s): %v", src, err)
	}
	return b
}

func TestBuildRecursiveErrors(t *testing.T) {
	const rule = ` UNION ALL SELECT p.a, h.dst, p.c FROM p, Hops h WHERE p.b = h.src) SELECT a FROM p`
	for _, c := range []struct{ name, src, want string }{
		{"base over two sources", `WITH RECURSIVE p(a,b,c) AS (SELECT h.src, h.dst, h.dist FROM Hops h, Hops g` + rule,
			"base must scan one source"},
		{"unknown base source", `WITH RECURSIVE p(a,b,c) AS (SELECT z.src, z.dst, z.dist FROM ZZZ z` + rule,
			`unknown source "ZZZ"`},
		{"star base", `WITH RECURSIVE p(a,b,c) AS (SELECT * FROM Hops h` + rule,
			"explicit projection"},
		{"unknown base column", `WITH RECURSIVE p(a,b,c) AS (SELECT h.src, h.nosuch, h.dist FROM Hops h` + rule,
			"recursive base"},
		{"window on a stored base table", `WITH RECURSIVE p(a,b,c) AS (SELECT h.src, h.dst, h.dist FROM Hops h [RANGE 5 SECONDS]` + rule,
			"window on stored table"},
		{"rule missing the view", `WITH RECURSIVE p(a,b,c) AS (SELECT h.src, h.dst, h.dist FROM Hops h UNION ALL
			SELECT h.src, g.dst, g.dist FROM Hops h, Hops g WHERE h.dst = g.src) SELECT a FROM p`,
			"does not reference p"},
		{"rule over three sources", `WITH RECURSIVE p(a,b,c) AS (SELECT h.src, h.dst, h.dist FROM Hops h UNION ALL
			SELECT p.a, h.dst, p.c FROM p, Hops h, Hops g WHERE p.b = h.src AND h.dst = g.src) SELECT a FROM p`,
			"join the view with one source"},
		{"unknown edge source", `WITH RECURSIVE p(a,b,c) AS (SELECT h.src, h.dst, h.dist FROM Hops h UNION ALL
			SELECT p.a, z.dst, p.c FROM p, ZZZ z WHERE p.b = z.src) SELECT a FROM p`,
			`unknown source "ZZZ"`},
		{"window on a stored edge table", `WITH RECURSIVE p(a,b,c) AS (SELECT h.src, h.dst, h.dist FROM Hops h UNION ALL
			SELECT p.a, h.dst, p.c FROM p, Hops h [ROWS 2] WHERE p.b = h.src) SELECT a FROM p`,
			"window on stored table"},
		{"no equi-join in the rule", `WITH RECURSIVE p(a,b,c) AS (SELECT h.src, h.dst, h.dist FROM Hops h UNION ALL
			SELECT p.a, h.dst, p.c FROM p, Hops h WHERE p.b <> h.src) SELECT a FROM p`,
			"needs an equi-join"},
		{"unknown rule column", `WITH RECURSIVE p(a,b,c) AS (SELECT h.src, h.dst, h.dist FROM Hops h UNION ALL
			SELECT p.a, h.dst, p.c FROM p, Hops h WHERE p.b = h.src AND p.nosuch > h.dist) SELECT a FROM p`,
			"references unknown columns"},
		{"rule projection arity", `WITH RECURSIVE p(a,b,c) AS (SELECT h.src, h.dst, h.dist FROM Hops h UNION ALL
			SELECT p.a FROM p, Hops h WHERE p.b = h.src) SELECT a FROM p`,
			"arity 1 != view arity 3"},
		{"view named like a source", `WITH RECURSIVE Links(a,b,c) AS (SELECT h.src, h.dst, h.dist FROM Hops h UNION ALL
			SELECT l.a, h.dst, l.c FROM Links l, Hops h WHERE l.b = h.src) SELECT a FROM Links`,
			"duplicate source"},
		{"unknown body column", `WITH RECURSIVE p(a,b,c) AS (SELECT h.src, h.dst, h.dist FROM Hops h` +
			` UNION ALL SELECT p.a, h.dst, p.c FROM p, Hops h WHERE p.b = h.src) SELECT p.nosuch FROM p`,
			"nosuch"},
	} {
		_, err := buildRecursive(c.src, recursiveCatalog())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: BuildRecursive error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// TestBuildRecursiveView: the plan carries the view — its schema named by the
// statement's column list and typed by the base projection, the rule split
// into keys, an edge-local selection and a residual — and the body scans it
// like a stream source.
func TestBuildRecursiveView(t *testing.T) {
	b := mustBuildRecursive(t, `WITH RECURSIVE paths(src, dst, total) AS (
		SELECT h.src, h.dst, h.dist FROM Hops h WHERE h.dist > 0
		UNION ALL
		SELECT p.src, l.dst, p.total + l.dist FROM paths p, Links l [RANGE 5 SECONDS]
		WHERE p.dst = l.src AND l.dist < 100 AND p.src <> l.dst
	) SELECT src, total FROM paths`, recursiveCatalog())
	v := b.View
	if v == nil {
		t.Fatal("plan carries no view")
	}
	var cols []string
	for _, c := range v.cfg.Schema.Cols {
		cols = append(cols, c.QName()+" "+c.Type.String())
	}
	if want := []string{"paths.src STRING", "paths.dst STRING", "paths.total FLOAT"}; !slices.Equal(cols, want) {
		t.Fatalf("view columns %v, want %v", cols, want)
	}
	if !slices.Equal(v.cfg.ViewKey, []string{"paths.dst"}) || !slices.Equal(v.cfg.EdgeKey, []string{"l.src"}) {
		t.Fatalf("rule keys %v = %v", v.cfg.ViewKey, v.cfg.EdgeKey)
	}
	if v.cfg.Residual == nil || v.cfg.MaxDepth != 12 {
		t.Fatalf("residual %v, max depth %d", v.cfg.Residual, v.cfg.MaxDepth)
	}
	if got := v.base.String(); !strings.HasPrefix(got, "project[") || !strings.Contains(got, "select[") ||
		!strings.Contains(got, "scan(Hops as h)") {
		t.Fatalf("base plan %s", got)
	}
	if got := v.edge.String(); !strings.HasPrefix(got, "select[") || !strings.Contains(got, "scan(Links as l [RANGE") {
		t.Fatalf("edge plan %s", got)
	}
	if sc := Scans(b.Root); len(sc) != 1 || !v.feeds(sc[0]) {
		t.Fatalf("body scans %v, want one scan of paths", sc)
	}
}

// TestCompileRecursiveStaysSerialAndPrivate: a plan carrying a view compiles
// serial at Parallelism 2 on a Sharing host, and its view-fed scan — windowed,
// with a selection, the shape a shared chain and a result group would take —
// joins neither: two deployments of one plan each run a view of their own,
// and no engine input is named after the view. Close detaches the base and
// edge scans' subscriptions.
func TestCompileRecursiveStaysSerialAndPrivate(t *testing.T) {
	cat := recursiveCatalog()
	eng := stream.NewEngine("rec", vtime.NewScheduler())
	s := NewSharing(eng)
	host := Host{Engine: eng, Sharing: s}
	b := mustBuildRecursive(t, strings.Replace(hopsRoutes, "FROM paths WHERE", "FROM paths [RANGE 60 SECONDS] WHERE", 1), cat)
	var deps []*Deployment
	for range 2 {
		dep, err := CompileStreamOpts(b, host, CompileOptions{Topology: Topology{Parallelism: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if dep.Shards != 1 {
			t.Fatalf("recursive plan deployed with %d shards, want 1", dep.Shards)
		}
		hops, _ := cat.Source("Hops")
		var rows []data.Tuple
		hops.Table.Scan(func(tu data.Tuple) bool { rows = append(rows, tu); return true })
		for _, th := range dep.TableHeads { // the base's and the edge's
			th.Load(rows)
		}
		deps = append(deps, dep)
	}
	if chains, attached := s.Stats(); chains != 0 || attached != 0 || len(s.results) != 0 {
		t.Fatalf("sharing holds %d chains, %d attachments, %d result groups; want none", chains, attached, len(s.results))
	}
	if _, ok := eng.Input("paths"); ok {
		t.Fatal("the compile registered an engine input named after the view")
	}
	for i, dep := range deps {
		rows, err := dep.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("deployment %d: rows %v, want lobby's two routes", i, rows)
		}
	}
	hops, _ := eng.Input("Hops")
	if n := hops.Subscribers(); n != 4 {
		t.Fatalf("Hops has %d subscribers, want a base and an edge per deployment", n)
	}
	for _, dep := range deps {
		dep.Close()
	}
	if n := hops.Subscribers(); n != 0 {
		t.Fatalf("Close left %d subscribers on Hops", n)
	}
}
