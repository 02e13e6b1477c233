package core

import (
	"path/filepath"
	"slices"
	"testing"

	"aspen/internal/data"
	"aspen/internal/plan"
	"aspen/internal/vtime"
)

const lobbyRoutes = `WITH RECURSIVE paths(src, dst, dist) AS (
	SELECT r.src, r.dst, r.dist FROM RoutingPoints r
	UNION ALL
	SELECT p.src, r.dst, p.dist + r.dist FROM paths p, RoutingPoints r WHERE p.dst = r.src
) SELECT src, dst, dist FROM paths WHERE src = 'lobby' ORDER BY dist`

// newRoutingRuntime is a runtime with a two-corridor RoutingPoints table
// (lobby → hall1 → hall2) and a Readings stream.
func newRoutingRuntime(t *testing.T, snapshotPath string) *Runtime {
	t.Helper()
	return newRoutingRuntimeCfg(t, Config{SnapshotPath: snapshotPath})
}

// newRoutingRuntimeCfg is newRoutingRuntime on a runtime built from cfg.
func newRoutingRuntimeCfg(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	rt := New(cfg)
	t.Cleanup(rt.Close)
	rel := data.NewRelation(data.NewSchema("RoutingPoints",
		data.Col("src", data.TString), data.Col("dst", data.TString), data.Col("dist", data.TFloat)))
	rel.MustInsert(data.Str("lobby"), data.Str("hall1"), data.Float(40))
	rel.MustInsert(data.Str("hall1"), data.Str("hall2"), data.Float(35))
	if err := rt.RegisterTable("RoutingPoints", rel); err != nil {
		t.Fatal(err)
	}
	readings := data.NewSchema("Readings", data.Col("room", data.TString), data.Col("v", data.TFloat))
	readings.IsStream = true
	if _, err := rt.RegisterStream("Readings", readings, 10); err != nil {
		t.Fatal(err)
	}
	return rt
}

// openCorridor pushes the edge hall2 → L102 and returns q's rows as
// "dst dist" strings.
func openCorridor(t *testing.T, rt *Runtime, q *Query) []string {
	t.Helper()
	in, _ := rt.Stream.Input("RoutingPoints")
	in.Push(data.NewTuple(vtime.Second, data.Str("hall2"), data.Str("L102"), data.Float(20)))
	rows, err := q.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Vals[1].AsString() + " " + r.Vals[2].String()
	}
	return out
}

// subscribers reports the subscriber count of every engine input a lobbyRoutes
// query touches: its source and the view's own input (0 while unregistered).
func subscribers(rt *Runtime) [2]int {
	var n [2]int
	for i, name := range []string{"RoutingPoints", "paths"} {
		if in, ok := rt.Stream.Input(name); ok {
			n[i] = in.Subscribers()
		}
	}
	return n
}

// TestRecursiveStopDetachesView: the coordinator owns a WITH RECURSIVE query
// like any SELECT, so Stop detaches the view's base and edge pipelines with
// the body, and a second Run starts from nothing. At the parent commit the
// stopped view stayed subscribed and kept deriving into the shared view input:
// the re-run counted (lobby, L102, 95) twice.
func TestRecursiveStopDetachesView(t *testing.T) {
	fresh := newRoutingRuntime(t, "")
	want := openCorridor(t, fresh, fresh.MustRun(lobbyRoutes))
	if len(want) != 3 {
		t.Fatalf("single run: rows %v, want hall1, hall2, L102", want)
	}

	rt := newRoutingRuntime(t, "")
	before := subscribers(rt)
	q := rt.MustRun(lobbyRoutes)
	if names := rt.coord.Names(); !slices.Equal(names, []string{q.Name()}) || q.Name() != "q1" {
		t.Fatalf("running: coordinator tracks %v, query is named %q; want [q1]", names, q.Name())
	}
	if during := subscribers(rt); during == before {
		t.Fatalf("running query subscribed nothing: %v", during)
	}
	q.Stop()
	if after := subscribers(rt); after != before {
		t.Fatalf("subscribers after Stop %v, before Run %v", after, before)
	}
	if names := rt.coord.Names(); len(names) != 0 || q.Name() != "" {
		t.Fatalf("stopped: coordinator tracks %v, query is named %q", names, q.Name())
	}

	if got := openCorridor(t, rt, rt.MustRun(lobbyRoutes)); !slices.Equal(got, want) {
		t.Fatalf("Run, Stop, Run: rows %v, a single Run gives %v", got, want)
	}
}

// TestRecursiveFailureTearsBodyDown: a recursive statement that fails after
// its body deployed — the base WHERE names an unknown column, which binds only
// when the base pipeline is built — leaves nothing behind.
func TestRecursiveFailureTearsBodyDown(t *testing.T) {
	rt := newRoutingRuntime(t, "")
	_, err := rt.Run(`WITH RECURSIVE paths(src, dst, dist) AS (
		SELECT r.src, r.dst, r.dist FROM RoutingPoints r WHERE r.nosuch = 'lobby'
		UNION ALL
		SELECT p.src, r.dst, p.dist + r.dist FROM paths p, RoutingPoints r WHERE p.dst = r.src
	) SELECT src, dst, dist FROM paths`)
	if err == nil {
		t.Fatal("base WHERE over an unknown column deployed")
	}
	if n := subscribers(rt); n != [2]int{} {
		t.Fatalf("failed statement left subscribers %v on [RoutingPoints paths]", n)
	}
	if names := rt.coord.Names(); len(names) != 0 {
		t.Fatalf("failed statement left %v tracked", names)
	}
	if q := rt.MustRun(lobbyRoutes); q.Name() != "q2" {
		t.Fatalf("next statement deployed as %q, want q2", q.Name())
	}
}

// TestSnapshotNamesRecursiveQueries: a snapshot cannot rebuild a recursive
// view, so SaveSnapshot names the query instead of omitting it silently, and
// RestoreSnapshot in a fresh runtime restores the SELECT beside it and repeats
// the name.
func TestSnapshotNamesRecursiveQueries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.snap")
	rt := newRoutingRuntime(t, path)
	sel := rt.MustRun(`SELECT r.room, count(*) AS n FROM Readings r [RANGE 60 SECONDS] GROUP BY r.room`)
	rec := rt.MustRun(lobbyRoutes)
	in, _ := rt.Stream.Input("Readings")
	for i, room := range []string{"L101", "L102", "L101"} {
		in.Push(data.NewTuple(vtime.Time(i+1)*vtime.Second, data.Str(room), data.Float(20)))
	}
	want, err := sel.Snapshot()
	if err != nil || len(want) != 2 {
		t.Fatalf("SELECT rows %v (err %v), want two rooms", want, err)
	}
	skipped, err := rt.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(skipped, []string{rec.Name()}) {
		t.Fatalf("SaveSnapshot skipped %v, want [%s]", skipped, rec.Name())
	}

	rt2 := newRoutingRuntime(t, path)
	qs, skipped, err := rt2.RestoreSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(skipped, []string{rec.Name()}) {
		t.Fatalf("RestoreSnapshot surfaced %v, want [%s]", skipped, rec.Name())
	}
	if len(qs) != 1 || qs[0].Name() != sel.Name() {
		t.Fatalf("restored %d queries, want just %s", len(qs), sel.Name())
	}
	got, err := qs[0].Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got, want, data.Tuple.EqualVals) {
		t.Fatalf("restored rows %v, saved %v", got, want)
	}
}

// routeRows returns q's rows as "src dst dist" strings.
func routeRows(t *testing.T, q *Query) []string {
	t.Helper()
	rows, err := q.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Vals[0].AsString() + " " + r.Vals[1].AsString() + " " + r.Vals[2].String()
	}
	return out
}

// TestRecursiveQueriesReadOnlyTheirOwnFacts deploys two standing recursive
// queries that both name their view paths, with different base WHEREs, and
// requires each to read exactly what it reads deployed alone: a view feeds
// its own deployment's scans, never another query's. Once both stop, the
// name paths is free. Serial, on shared prefixes, and at Parallelism 2. At
// the parent commit both views pushed into one engine input named paths:
// from-lobby's rows gained from-hall1's (hall1 hall2 35), and registering
// paths afterwards failed with "duplicate input".
func TestRecursiveQueriesReadOnlyTheirOwnFacts(t *testing.T) {
	const body = `
		UNION ALL
		SELECT p.src, r.dst, p.dist + r.dist FROM paths p, RoutingPoints r WHERE p.dst = r.src
	) SELECT src, dst, dist FROM paths ORDER BY dist`
	const (
		fromLobby = `WITH RECURSIVE paths(src, dst, dist) AS (
		SELECT r.src, r.dst, r.dist FROM RoutingPoints r WHERE r.src = 'lobby'` + body
		fromHall1 = `WITH RECURSIVE paths(src, dst, dist) AS (
		SELECT r.src, r.dst, r.dist FROM RoutingPoints r WHERE r.src = 'hall1'` + body
	)
	for _, v := range []struct {
		name string
		cfg  Config
	}{
		{"serial", Config{}},
		{"shared-prefixes", Config{SharedPrefixes: true}},
		{"parallelism-2", Config{Topology: plan.Topology{Parallelism: 2}}},
	} {
		t.Run(v.name, func(t *testing.T) {
			alone := func(src string) []string {
				return routeRows(t, newRoutingRuntimeCfg(t, v.cfg).MustRun(src))
			}
			wantLobby, wantHall1 := alone(fromLobby), alone(fromHall1)
			if !slices.Equal(wantLobby, []string{"lobby hall1 40", "lobby hall2 75"}) ||
				!slices.Equal(wantHall1, []string{"hall1 hall2 35"}) {
				t.Fatalf("alone: from lobby %v, from hall1 %v", wantLobby, wantHall1)
			}

			rt := newRoutingRuntimeCfg(t, v.cfg)
			ql, qh := rt.MustRun(fromLobby), rt.MustRun(fromHall1)
			if got := routeRows(t, ql); !slices.Equal(got, wantLobby) {
				t.Fatalf("from lobby beside from hall1: rows %v, alone %v", got, wantLobby)
			}
			if got := routeRows(t, qh); !slices.Equal(got, wantHall1) {
				t.Fatalf("from hall1 beside from lobby: rows %v, alone %v", got, wantHall1)
			}
			if _, ok := rt.Stream.Input("paths"); ok {
				t.Fatal("a recursive query registered an engine input named after its view")
			}
			ql.Stop()
			qh.Stop()
			s := data.NewSchema("paths", data.Col("src", data.TString))
			s.IsStream = true
			if _, err := rt.RegisterStream("paths", s, 1); err != nil {
				t.Fatalf("paths after both queries stopped: %v", err)
			}
		})
	}
}

// TestRecursiveEdgeWindowExpires: the edge scan takes its FROM item's window,
// so a route derived through an edge of a [RANGE 5 SECONDS] stream retracts
// once that edge leaves the window, and the base facts stay. At the parent
// commit the window was dropped and the derived routes never retracted.
func TestRecursiveEdgeWindowExpires(t *testing.T) {
	rt := newRoutingRuntime(t, "")
	links := data.NewSchema("Links",
		data.Col("src", data.TString), data.Col("dst", data.TString), data.Col("dist", data.TFloat))
	links.IsStream = true
	in, err := rt.RegisterStream("Links", links, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := rt.MustRun(`WITH RECURSIVE paths(src, dst, dist) AS (
		SELECT r.src, r.dst, r.dist FROM RoutingPoints r
		UNION ALL
		SELECT p.src, l.dst, p.dist + l.dist FROM paths p, Links l [RANGE 5 SECONDS] WHERE p.dst = l.src
	) SELECT src, dst, dist FROM paths ORDER BY dist`)
	base := []string{"hall1 hall2 35", "lobby hall1 40"}
	if got := routeRows(t, q); !slices.Equal(got, base) {
		t.Fatalf("before any link: rows %v, want %v", got, base)
	}
	in.PushBatch([]data.Tuple{
		data.NewTuple(vtime.Second, data.Str("hall2"), data.Str("L102"), data.Float(20)),
		data.NewTuple(vtime.Second, data.Str("hall1"), data.Str("L101"), data.Float(25)),
	})
	linked := []string{"hall1 hall2 35", "lobby hall1 40", "hall1 L102 55", "lobby L101 65"}
	if got := routeRows(t, q); !slices.Equal(got, linked) {
		t.Fatalf("links at 1s: rows %v, want %v", got, linked)
	}
	rt.Sched.RunUntil(5 * vtime.Second)
	if got := routeRows(t, q); !slices.Equal(got, linked) {
		t.Fatalf("links still in the window at 5s: rows %v, want %v", got, linked)
	}
	rt.Sched.RunUntil(7 * vtime.Second)
	if got := routeRows(t, q); !slices.Equal(got, base) {
		t.Fatalf("links expired at 6s: rows %v, want the base facts %v", got, base)
	}
}
