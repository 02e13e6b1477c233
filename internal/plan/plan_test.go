package plan

import (
	"strings"
	"testing"

	"aspen/internal/catalog"
	"aspen/internal/data"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// mustView parses a CREATE VIEW statement.
func mustView(t *testing.T, src string) *sql.CreateView {
	t.Helper()
	st, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sql.CreateView)
}

// testCatalog registers the paper's sources: AreaSensors and SeatSensors
// (sensor streams), Machines and Person and Route (tables).
func testCatalog() *catalog.Catalog {
	cat := catalog.New()
	area := data.NewSchema("AreaSensors",
		data.Col("room", data.TString), data.Col("status", data.TString))
	area.IsStream = true
	cat.MustAddSource(&catalog.Source{Name: "AreaSensors", Kind: catalog.KindSensorStream,
		Schema: area, Rate: 5})
	seat := data.NewSchema("SeatSensors",
		data.Col("room", data.TString), data.Col("desk", data.TInt), data.Col("status", data.TString))
	seat.IsStream = true
	cat.MustAddSource(&catalog.Source{Name: "SeatSensors", Kind: catalog.KindSensorStream,
		Schema: seat, Rate: 20})

	mach := data.NewSchema("Machines",
		data.Col("room", data.TString), data.Col("desk", data.TInt), data.Col("software", data.TString))
	// software holds the capability pattern matched against p.needed, per
	// the paper's "p.needed like m.software" predicate.
	machRel := data.NewRelation(mach)
	machRel.MustInsert(data.Str("L101"), data.Int(1), data.Str("%fedora%"))
	machRel.MustInsert(data.Str("L101"), data.Int(2), data.Str("%windows%"))
	machRel.MustInsert(data.Str("L102"), data.Int(1), data.Str("%fedora%"))
	cat.MustAddSource(&catalog.Source{Name: "Machines", Kind: catalog.KindTable,
		Schema: mach, Table: machRel})

	person := data.NewSchema("Person",
		data.Col("id", data.TString), data.Col("room", data.TString), data.Col("needed", data.TString))
	personRel := data.NewRelation(person)
	personRel.MustInsert(data.Str("visitor1"), data.Str("lobby"), data.Str("fedora"))
	cat.MustAddSource(&catalog.Source{Name: "Person", Kind: catalog.KindTable,
		Schema: person, Table: personRel})

	route := data.NewSchema("Route",
		data.Col("start", data.TString), data.Col("end", data.TString), data.Col("path", data.TString))
	routeRel := data.NewRelation(route)
	routeRel.MustInsert(data.Str("lobby"), data.Str("L101"), data.Str("lobby->hall1->L101"))
	routeRel.MustInsert(data.Str("lobby"), data.Str("L102"), data.Str("lobby->hall1->hall2->L102"))
	cat.MustAddSource(&catalog.Source{Name: "Route", Kind: catalog.KindTable,
		Schema: route, Table: routeRel})
	return cat
}

func mustBuild(t *testing.T, src string, cat *catalog.Catalog) *Built {
	t.Helper()
	stmt, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(stmt, cat)
	if err != nil {
		t.Fatalf("Build(%s): %v", src, err)
	}
	return b
}

func TestBuildSimpleSelect(t *testing.T) {
	b := mustBuild(t, `SELECT ss.room, ss.desk FROM SeatSensors ss WHERE ss.status = 'free'`, testCatalog())
	s := b.Root.String()
	if !strings.Contains(s, "select[") || !strings.Contains(s, "scan(SeatSensors as ss") {
		t.Fatalf("plan = %s", s)
	}
	// predicate pushed below projection
	if strings.Index(s, "project") > strings.Index(s, "select[") {
		t.Fatalf("projection should be outermost: %s", s)
	}
	if b.Root.Schema().Arity() != 2 {
		t.Fatalf("schema = %s", b.Root.Schema())
	}
}

func TestBuildPushdownAndJoinOrder(t *testing.T) {
	b := mustBuild(t, `SELECT ss.room, ss.desk FROM AreaSensors sa, SeatSensors ss
		WHERE sa.room = ss.room AND sa.status = 'open' AND ss.status = 'free'`, testCatalog())
	js := b.Root.String()
	if !strings.Contains(js, "join[") {
		t.Fatalf("no join: %s", js)
	}
	// local predicates must appear below the join (pushdown)
	joinIdx := strings.Index(js, "join[")
	openIdx := strings.Index(js, "'open'")
	if openIdx < joinIdx {
		t.Fatalf("local predicate above join: %s", js)
	}
}

func TestBuildFig1ViewInlining(t *testing.T) {
	cat := testCatalog()
	view := mustView(t, `create view OpenMachineInfo as (
		select ss.room, ss.desk from AreaSensors sa, SeatSensors ss
		where sa.room = ss.room ^ sa.status = 'open' ^ ss.status = 'free')`)
	if err := cat.AddView(view); err != nil {
		t.Fatal(err)
	}
	b := mustBuild(t, `select p.id, O.room, O.desk, r.path
		from Person p, Route r, OpenMachineInfo O, Machines m
		where O.room = m.room ^ O.desk = m.desk ^ p.needed like m.software ^
		r.start = p.room ^ r.end = O.room
		order by p.id`, cat)
	scans := Scans(b.Root)
	if len(scans) != 5 {
		t.Fatalf("scans = %d, want 5 (view inlined into two)", len(scans))
	}
	names := map[string]bool{}
	for _, s := range scans {
		names[s.Input] = true
	}
	for _, want := range []string{"Person", "Route", "Machines", "AreaSensors", "SeatSensors"} {
		if !names[want] {
			t.Fatalf("missing scan of %s: %v", want, names)
		}
	}
	if len(b.OrderBy) != 1 || b.OrderBy[0].Col != "p.id" {
		t.Fatalf("order by = %v", b.OrderBy)
	}
}

func TestBuildViewInliningNested(t *testing.T) {
	cat := testCatalog()
	v1 := mustView(t, `create view FreeSeats as (
		select ss.room, ss.desk from SeatSensors ss where ss.status = 'free')`)
	v2 := mustView(t, `create view OpenFree as (
		select fs.room AS room from FreeSeats fs, AreaSensors sa
		where sa.room = fs.room ^ sa.status = 'open')`)
	if err := cat.AddView(v1); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddView(v2); err != nil {
		t.Fatal(err)
	}
	b := mustBuild(t, `select x.room from OpenFree x`, cat)
	if len(Scans(b.Root)) != 2 {
		t.Fatalf("nested inline scans = %d", len(Scans(b.Root)))
	}
}

func TestBuildAggregates(t *testing.T) {
	cat := testCatalog()
	b := mustBuild(t, `SELECT ss.room, count(*) AS n FROM SeatSensors ss
		WHERE ss.status = 'free' GROUP BY ss.room HAVING count(*) > 1`, cat)
	if !strings.Contains(b.Root.String(), "agg[") {
		t.Fatalf("plan = %s", b.Root)
	}
	cols := b.Root.Schema()
	if cols.Cols[0].Name != "room" || cols.Cols[1].Name != "n" {
		t.Fatalf("schema = %s", cols)
	}
	// aggregate first in select list
	b2 := mustBuild(t, `SELECT count(*) AS n, ss.room FROM SeatSensors ss GROUP BY ss.room`, cat)
	if b2.Root.Schema().Cols[0].Name != "n" {
		t.Fatalf("reprojection order: %s", b2.Root.Schema())
	}
}

func TestBuildErrors(t *testing.T) {
	cat := testCatalog()
	bad := []string{
		`SELECT x.a FROM NoSuch x`,
		`SELECT a.room FROM SeatSensors a, SeatSensors a`,
		`SELECT m.room FROM Machines m [ROWS 5]`,
		`SELECT ss.room FROM SeatSensors ss GROUP BY ss.room`,
		`SELECT ss.desk FROM SeatSensors ss, AreaSensors sa GROUP BY ss.room`,
		`SELECT zz.q FROM SeatSensors ss`,
		`SELECT ss.room FROM SeatSensors ss ORDER BY zz.q`,
		`SELECT min(*) FROM SeatSensors ss`,
		`SELECT avg(ss.desk, ss.desk) FROM SeatSensors ss`,
	}
	for _, src := range bad {
		stmt, err := sql.ParseSelect(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := Build(stmt, cat); err == nil {
			t.Errorf("Build(%q) should fail", src)
		}
	}
}

func TestBuildStar(t *testing.T) {
	b := mustBuild(t, `SELECT * FROM SeatSensors ss`, testCatalog())
	if b.Root.Schema().Arity() != 3 {
		t.Fatalf("star schema = %s", b.Root.Schema())
	}
}

func TestBuildCrossJoinFallback(t *testing.T) {
	b := mustBuild(t, `SELECT p.id, m.room FROM Person p, Machines m`, testCatalog())
	if !strings.Contains(b.Root.String(), "join[]") {
		t.Fatalf("cross join plan = %s", b.Root)
	}
}

func TestCostModel(t *testing.T) {
	cat := testCatalog()
	small := mustBuild(t, `SELECT ss.room FROM SeatSensors ss WHERE ss.status = 'free'`, cat)
	big := mustBuild(t, `SELECT ss.room FROM SeatSensors ss, AreaSensors sa WHERE ss.room = sa.room`, cat)
	if Work(small.Root) >= Work(big.Root) {
		t.Fatalf("join should cost more: %v vs %v", Work(small.Root), Work(big.Root))
	}
	if Card(small.Root) >= 20 {
		t.Fatalf("selection should reduce card: %v", Card(small.Root))
	}
	// aggregates collapse cardinality
	agg := mustBuild(t, `SELECT count(*) FROM SeatSensors ss`, cat)
	if Card(agg.Root) != 1 {
		t.Fatalf("global agg card = %v", Card(agg.Root))
	}
}

// Full pipeline: build the Fig. 1 query, compile onto a stream engine,
// load tables, push sensor tuples, and check the visitor gets routed to
// the free fedora machine.
func TestCompileFig1EndToEnd(t *testing.T) {
	cat := testCatalog()
	view := mustView(t, `create view OpenMachineInfo as (
		select ss.room, ss.desk from AreaSensors sa, SeatSensors ss
		where sa.room = ss.room ^ sa.status = 'open' ^ ss.status = 'free')`)
	if err := cat.AddView(view); err != nil {
		t.Fatal(err)
	}
	b := mustBuild(t, `select p.id, O.room, O.desk, r.path
		from Person p, Route r, OpenMachineInfo O, Machines m
		where O.room = m.room ^ O.desk = m.desk ^ p.needed like m.software ^
		r.start = p.room ^ r.end = O.room
		order by p.id`, cat)

	sched := vtime.NewScheduler()
	eng := stream.NewEngine("pc1", sched)
	dep, err := CompileStreamOpts(b, Host{Engine: eng}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// load tables into their inputs
	for _, name := range []string{"Person", "Route", "Machines"} {
		src, _ := cat.Source(name)
		in, ok := eng.Input(name)
		if !ok {
			t.Fatalf("input %s not registered", name)
		}
		src.Table.Scan(func(tu data.Tuple) bool {
			in.Push(tu)
			return true
		})
	}
	// sensor readings arrive: L101 open, desk 1 free (fedora machine)
	areaIn, _ := eng.Input("AreaSensors")
	seatIn, _ := eng.Input("SeatSensors")
	areaIn.Push(data.NewTuple(1, data.Str("L101"), data.Str("open")))
	seatIn.Push(data.NewTuple(2, data.Str("L101"), data.Int(1), data.Str("free")))
	seatIn.Push(data.NewTuple(2, data.Str("L101"), data.Int(2), data.Str("free"))) // windows machine: LIKE fails

	rows, err := dep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("results = %v", rows)
	}
	got := rows[0]
	if got.Vals[0].AsString() != "visitor1" || got.Vals[1].AsString() != "L101" ||
		got.Vals[2].AsInt() != 1 || !strings.Contains(got.Vals[3].AsString(), "hall1") {
		t.Fatalf("row = %v", got)
	}

	// the lab closes: the result must retract
	areaIn.Push(data.NewTuple(3, data.Str("L101"), data.Str("open")).Negate())
	rows, _ = dep.Snapshot()
	if len(rows) != 0 {
		t.Fatalf("stale results after close: %v", rows)
	}
}

func TestCompileWindowedAggregate(t *testing.T) {
	cat := testCatalog()
	b := mustBuild(t, `SELECT ss.room, count(*) AS n FROM SeatSensors ss [ROWS 2] GROUP BY ss.room`, cat)
	eng := stream.NewEngine("pc1", vtime.NewScheduler())
	dep, err := CompileStreamOpts(b, Host{Engine: eng}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := eng.Input("SeatSensors")
	for i := 0; i < 5; i++ {
		in.Push(data.NewTuple(vtime.Time(i+1), data.Str("L101"), data.Int(int64(i)), data.Str("free")))
	}
	rows, err := dep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Vals[1].AsInt() != 2 {
		t.Fatalf("windowed count = %v", rows)
	}
}

func TestCompileOutputToDisplay(t *testing.T) {
	cat := testCatalog()
	b := mustBuild(t, `SELECT ss.room FROM SeatSensors ss OUTPUT TO lobbyScreen`, cat)
	eng := stream.NewEngine("pc1", vtime.NewScheduler())
	if _, err := CompileStreamOpts(b, Host{Engine: eng}, CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	in, _ := eng.Input("SeatSensors")
	in.Push(data.NewTuple(1, data.Str("L101"), data.Int(1), data.Str("free")))
	disp := eng.MustDisplay("lobbyScreen", b.Root.Schema())
	if disp.Len() != 1 {
		t.Fatalf("display rows = %d", disp.Len())
	}
}

func TestBuiltString(t *testing.T) {
	cat := testCatalog()
	b := mustBuild(t, `SELECT ss.room AS r FROM SeatSensors ss ORDER BY r DESC LIMIT 3 OUTPUT TO d`, cat)
	s := b.String()
	for _, want := range []string{"output[d]", "limit[3]", "sort[r desc]"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Built.String = %s (missing %s)", s, want)
		}
	}
}

// viewCatalog registers a stream T(a, b) and the view V over it that renames
// its columns.
func viewCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	ts := data.NewSchema("T", data.Col("a", data.TInt), data.Col("b", data.TInt))
	ts.IsStream = true
	cat.MustAddSource(&catalog.Source{Name: "T", Kind: catalog.KindStream, Schema: ts, Rate: 1})
	if err := cat.AddView(mustView(t, `CREATE VIEW V AS (SELECT t.a AS x, t.b AS y FROM T t)`)); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestInlineLeavesStatement: inlining a view substitutes into copies of the
// select list, GROUP BY and ORDER BY, so the caller's statement reads as it
// was written afterwards, and planning it twice gives the same plan.
func TestInlineLeavesStatement(t *testing.T) {
	cat := viewCatalog(t)
	src := `SELECT v.x, count(*) AS n FROM V v WHERE v.y > 1 GROUP BY v.x ORDER BY v.x`
	stmt, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatal(err)
	}
	before := stmt.String()
	flat, err := Inline(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	if got := stmt.String(); got != before {
		t.Fatalf("Inline wrote into its input:\n got %s\nwant %s", got, before)
	}
	if want := "SELECT v_t.a, COUNT(*) AS n FROM T v_t WHERE (v_t.b > 1) GROUP BY v_t.a ORDER BY v_t.a"; flat.String() != want {
		t.Fatalf("inlined = %s\n   want %s", flat, want)
	}
	b1, err := Build(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Build(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() || stmt.String() != before {
		t.Fatalf("Build moved the statement: %s then %s; statement %s", b1, b2, stmt)
	}
}

// TestWindowOnViewRefused: a window written on a view reference is refused
// with the view's name, not dropped; the view's own window is kept.
func TestWindowOnViewRefused(t *testing.T) {
	cat := viewCatalog(t)
	stmt, err := sql.ParseSelect(`SELECT v.x FROM V v [RANGE 2 SECONDS] WHERE v.y > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(stmt, cat); err == nil || !strings.Contains(err.Error(), "window on view V") {
		t.Fatalf("Build = %v, want the window on view V refused", err)
	}
	if err := cat.AddView(mustView(t, `CREATE VIEW W AS (SELECT t.a AS x FROM T t [RANGE 2 SECONDS])`)); err != nil {
		t.Fatal(err)
	}
	b := mustBuild(t, `SELECT w.x FROM W w`, cat)
	if !strings.Contains(b.String(), "RANGE 2") {
		t.Fatalf("the view's own window is lost: %s", b)
	}
}
