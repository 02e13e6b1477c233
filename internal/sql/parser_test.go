package sql

import (
	"strings"
	"testing"
	"time"

	"aspen/internal/expr"
)

// fig1Federated is the federated query from the paper's Figure 1, verbatim
// (with ^ conjunction).
const fig1Federated = `select p.id, ss.room, ss.desk, r.path
from Person p, Route r, AreaSensors sa, SeatSensors ss, Machines m
where r.start = p.room ^ r.end = sa.room ^ p.needed like m.software ^
sa.room = ss.room ^ m.desk = ss.desk ^ sa.status = 'open' ^
ss.status = 'free'
order by p.id`

// fig1Rewritten is the second Figure 1 query, over the OpenMachineInfo view.
const fig1Rewritten = `select p.id, O.room, O.desk, r.path
from Person p, Route r, OpenMachineInfo O, Machines m
where O.room = m.room ^ O.desk = m.desk ^ p.needed like m.software ^
r.start = p.room ^ r.end = O.room
order by p.id`

// fig1View is the CREATE VIEW from Figure 1.
const fig1View = `create view OpenMachineInfo as (
select ss.room, ss.desk from AreaSensors sa, SeatSensors ss
where sa.room = ss.room ^ sa.status = 'open' ^ ss.status = 'free'
)`

func TestParseFig1Federated(t *testing.T) {
	st, err := Parse(fig1Federated)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	sel := st.(*SelectStmt)
	if len(sel.Items) != 4 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	if len(sel.From) != 5 {
		t.Fatalf("from = %d", len(sel.From))
	}
	if sel.From[0].Name != "Person" || sel.From[0].Alias != "p" {
		t.Fatalf("from[0] = %+v", sel.From[0])
	}
	conj := expr.Conjuncts(sel.Where)
	if len(conj) != 7 {
		t.Fatalf("conjuncts = %d, want 7", len(conj))
	}
	if len(sel.OrderBy) != 1 || sel.OrderBy[0].Ref != "p.id" || sel.OrderBy[0].Desc {
		t.Fatalf("order by = %+v", sel.OrderBy)
	}
}

func TestParseFig1View(t *testing.T) {
	st, err := Parse(fig1View)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cv := st.(*CreateView)
	if cv.Name != "OpenMachineInfo" {
		t.Fatalf("name = %q", cv.Name)
	}
	if len(cv.Query.From) != 2 || len(expr.Conjuncts(cv.Query.Where)) != 3 {
		t.Fatalf("view query = %v", cv.Query)
	}
}

func TestParseFig1Rewritten(t *testing.T) {
	st, err := Parse(fig1Rewritten)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	sel := st.(*SelectStmt)
	if len(sel.From) != 4 {
		t.Fatalf("from = %d", len(sel.From))
	}
	found := false
	for _, f := range sel.From {
		if f.Name == "OpenMachineInfo" && f.Alias == "O" {
			found = true
		}
	}
	if !found {
		t.Fatal("OpenMachineInfo O not in FROM")
	}
}

func TestParseWindows(t *testing.T) {
	sel, err := ParseSelect(`SELECT * FROM Temps t [RANGE 30 SECONDS SLIDE 10 SECONDS], Light l [ROWS 100], Conf c [NOW], Machines m`)
	if err != nil {
		t.Fatal(err)
	}
	w := sel.From[0].Window
	if w == nil || w.Kind != WindowRange || w.Range != 30*time.Second || w.Slide != 10*time.Second {
		t.Fatalf("range window = %+v", w)
	}
	w = sel.From[1].Window
	if w == nil || w.Kind != WindowRows || w.Rows != 100 {
		t.Fatalf("rows window = %+v", w)
	}
	if sel.From[2].Window == nil || sel.From[2].Window.Kind != WindowNow {
		t.Fatalf("now window = %+v", sel.From[2].Window)
	}
	if sel.From[3].Window != nil {
		t.Fatalf("table should have no window")
	}
}

func TestParseDeviceExtensions(t *testing.T) {
	sel, err := ParseSelect(`SELECT mote, temp FROM Temperature SAMPLE PERIOD 10 SECONDS OUTPUT TO lobbyDisplay`)
	if err != nil {
		t.Fatal(err)
	}
	if sel.SamplePeriod != 10*time.Second {
		t.Fatalf("sample period = %v", sel.SamplePeriod)
	}
	if sel.OutputTo != "lobbyDisplay" {
		t.Fatalf("output to = %q", sel.OutputTo)
	}
	// EVERY is a synonym
	sel2, err := ParseSelect(`SELECT mote FROM Temperature EVERY 500 MILLISECONDS`)
	if err != nil {
		t.Fatal(err)
	}
	if sel2.SamplePeriod != 500*time.Millisecond {
		t.Fatalf("EVERY = %v", sel2.SamplePeriod)
	}
}

func TestParseRecursive(t *testing.T) {
	src := `WITH RECURSIVE paths(src, dst, dist) AS (
		SELECT r.src, r.dst, r.dist FROM RoutingPoints r
		UNION ALL
		SELECT p.src, r.dst, p.dist + r.dist FROM paths p, RoutingPoints r WHERE p.dst = r.src
	) SELECT src, dst, dist FROM paths WHERE dst = 'L101' ORDER BY dist LIMIT 1`
	st, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	wr := st.(*WithRecursive)
	if wr.Name != "paths" || !wr.All {
		t.Fatalf("recursive = %+v", wr)
	}
	if len(wr.Cols) != 3 || wr.Cols[2] != "dist" {
		t.Fatalf("cols = %v", wr.Cols)
	}
	if wr.Body.Limit != 1 || len(wr.Body.OrderBy) != 1 {
		t.Fatalf("body = %v", wr.Body)
	}
}

func TestParseAggregates(t *testing.T) {
	sel, err := ParseSelect(`SELECT room, avg(temp) AS avgtemp, count(*) FROM Temps [RANGE 1 MINUTES] GROUP BY room HAVING avg(temp) > 30.5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.GroupBy) != 1 || sel.GroupBy[0] != "room" {
		t.Fatalf("group by = %v", sel.GroupBy)
	}
	call, ok := sel.Items[1].Expr.(expr.Call)
	if !ok || !strings.EqualFold(call.Name, "avg") || sel.Items[1].Alias != "avgtemp" {
		t.Fatalf("item[1] = %+v", sel.Items[1])
	}
	star, ok := sel.Items[2].Expr.(expr.Call)
	if !ok || len(star.Args) != 1 {
		t.Fatalf("count(*) = %+v", sel.Items[2])
	}
	if sel.Having == nil {
		t.Fatal("missing HAVING")
	}
}

func TestParseDistinctLimitDesc(t *testing.T) {
	sel, err := ParseSelect(`SELECT DISTINCT room FROM Temps ORDER BY room DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Distinct || sel.Limit != 5 || !sel.OrderBy[0].Desc {
		t.Fatalf("%+v", sel)
	}
}

func TestParsePrecedence(t *testing.T) {
	sel, err := ParseSelect(`SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3`)
	if err != nil {
		t.Fatal(err)
	}
	b := sel.Where.(expr.Bin)
	if b.Op != expr.OpOr {
		t.Fatalf("top op = %v, want OR (AND binds tighter)", b.Op)
	}
	sel2, _ := ParseSelect(`SELECT * FROM t WHERE a + 2 * 3 = 7`)
	eq := sel2.Where.(expr.Bin)
	add := eq.L.(expr.Bin)
	if add.Op != expr.OpAdd {
		t.Fatalf("want a + (2*3): %v", sel2.Where)
	}
	if mul := add.R.(expr.Bin); mul.Op != expr.OpMul {
		t.Fatalf("want 2*3 nested: %v", add.R)
	}
	// NOT binds tighter than AND
	sel3, _ := ParseSelect(`SELECT * FROM t WHERE NOT a = 1 AND b = 2`)
	if sel3.Where.(expr.Bin).Op != expr.OpAnd {
		t.Fatalf("NOT precedence: %v", sel3.Where)
	}
}

func TestParseLiteralsAndOperators(t *testing.T) {
	sel, err := ParseSelect(`SELECT * FROM t WHERE a = -5 AND b = 2.5 AND c = 'it''s' AND d = TRUE AND e IS NOT NULL AND f <> 3 AND g != 4 AND h NOT LIKE 'x%'`)
	if err != nil {
		t.Fatal(err)
	}
	conj := expr.Conjuncts(sel.Where)
	if len(conj) != 8 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	lit := conj[0].(expr.Bin).R.(expr.Lit)
	if lit.V.AsInt() != -5 {
		t.Fatalf("negative literal folded to %v", lit.V)
	}
	if s := conj[2].(expr.Bin).R.(expr.Lit).V.AsString(); s != "it's" {
		t.Fatalf("escaped string = %q", s)
	}
}

func TestParseComments(t *testing.T) {
	sel, err := ParseSelect("SELECT * -- trailing comment\nFROM t -- another\nWHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if sel.Where == nil {
		t.Fatal("comment swallowed WHERE")
	}
}

func TestParseQuotedIdent(t *testing.T) {
	sel, err := ParseSelect(`SELECT "room number" FROM "Seat Sensors"`)
	if err != nil {
		t.Fatal(err)
	}
	if sel.From[0].Name != "Seat Sensors" {
		t.Fatalf("quoted from = %q", sel.From[0].Name)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t [RANGE]",
		"SELECT * FROM t [BOGUS 5]",
		"SELECT * FROM t [ROWS 5",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t LIMIT x",
		"SELECT a FROM t SAMPLE 5 SECONDS",
		"SELECT a FROM t OUTPUT display",
		"CREATE VIEW v",
		"CREATE TABLE t AS SELECT 1 FROM x",
		"WITH RECURSIVE p AS (SELECT a FROM t) SELECT * FROM p",
		"SELECT * FROM t WHERE 'unterminated",
		"SELECT * FROM t trailing garbage (",
		"SELECT * FROM t WHERE a = 5 SECONDS",
		"SELECT * FROM t WHERE a ! b",
		"SELECT * FROM t WHERE (a = 1",
		`SELECT * FROM "unterminated`,
		"SELECT * FROM t [RANGE 9999999999999 HOURS]",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseSelectRejectsView(t *testing.T) {
	if _, err := ParseSelect(fig1View); err == nil {
		t.Fatal("ParseSelect should reject CREATE VIEW")
	}
}

// roundTripQueries cover every clause and expression form the printer
// writes.
var roundTripQueries = []string{
	fig1Federated,
	fig1Rewritten,
	fig1View,
	`SELECT * FROM Temps t [RANGE 30 SECONDS SLIDE 10 SECONDS] WHERE t.v > 3 LIMIT 10`,
	`SELECT DISTINCT a, b AS bee FROM t [ROWS 50] ORDER BY a DESC, b`,
	`SELECT room, avg(temp) AS a FROM Temps [RANGE 2 MINUTES] GROUP BY room HAVING avg(temp) > 30`,
	`SELECT mote FROM Temperature [NOW] SAMPLE PERIOD 10 SECONDS OUTPUT TO hall`,
	`WITH RECURSIVE paths(src, dst) AS (SELECT r.src, r.dst FROM edges r UNION ALL SELECT p.src, r.dst FROM paths p, edges r WHERE p.dst = r.src) SELECT src FROM paths`,
	`SELECT a FROM t WHERE a + 2 * 3 = 7 AND NOT b LIKE 'x%' OR c IS NOT NULL`,
	`SELECT coalesce(a, b), abs(-c) FROM t WHERE dist(x1, y1, x2, y2) < 5.5`,
	`SELECT "room number", x."select" AS "from", "f n"(a) FROM "Seat Sensors" "s s", t x GROUP BY "s s"."room number" ORDER BY "9lives" DESC OUTPUT TO "lobby display"`,
	`CREATE VIEW "open seats" AS SELECT a FROM t`,
	`WITH RECURSIVE "all paths"("from", dst) AS (SELECT a, b FROM e UNION SELECT a, b FROM e) SELECT dst FROM "all paths"`,
	`SELECT a FROM t WHERE b > 100000000000000000000000.0 AND c < 0.0000001 AND d = 2.0 AND e = -0.0`,
}

// requirePrintFixpoint fails unless src, when it parses, prints to a text
// that parses again and prints the same.
func requirePrintFixpoint(t *testing.T, src string) {
	t.Helper()
	st1, err := Parse(src)
	if err != nil {
		return
	}
	printed := st1.String()
	st2, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse of %q failed: %v\n(original: %q)", printed, err, src)
	}
	if st2.String() != printed {
		t.Fatalf("not a fixpoint:\n1st: %s\n2nd: %s\n(original: %q)", printed, st2.String(), src)
	}
}

// Round-trip: parse → String → parse yields an identical String.
func TestRoundTrip(t *testing.T) {
	for _, q := range roundTripQueries {
		if _, err := Parse(q); err != nil {
			t.Fatalf("Parse(%q): %v", q, err)
		}
		requirePrintFixpoint(t, q)
	}
}

// FuzzParsePrint: any text that parses prints to StreamSQL that parses
// again, and the reprint equals the first print. Seeded with the Figure 1
// statements and every statement the parser tests use.
func FuzzParsePrint(f *testing.F) {
	for _, q := range roundTripQueries {
		f.Add(q)
	}
	for _, q := range []string{
		`SELECT * FROM Temps t [RANGE 30 SECONDS SLIDE 10 SECONDS], Light l [ROWS 100], Conf c [NOW], Machines m`,
		`SELECT mote, temp FROM Temperature SAMPLE PERIOD 10 SECONDS OUTPUT TO lobbyDisplay`,
		`SELECT mote FROM Temperature EVERY 500 MILLISECONDS`,
		`WITH RECURSIVE paths(src, dst, dist) AS (SELECT r.src, r.dst, r.dist FROM RoutingPoints r UNION ALL SELECT p.src, r.dst, p.dist + r.dist FROM paths p, RoutingPoints r WHERE p.dst = r.src) SELECT src, dst, dist FROM paths WHERE dst = 'L101' ORDER BY dist LIMIT 1`,
		`SELECT room, avg(temp) AS avgtemp, count(*) FROM Temps [RANGE 1 MINUTES] GROUP BY room HAVING avg(temp) > 30.5`,
		`SELECT DISTINCT room FROM Temps ORDER BY room DESC LIMIT 5`,
		`SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3`,
		`SELECT * FROM t WHERE NOT a = 1 AND b = 2`,
		`SELECT * FROM t WHERE a = -5 AND b = 2.5 AND c = 'it''s' AND d = TRUE AND e IS NOT NULL AND f <> 3 AND g != 4 AND h NOT LIKE 'x%'`,
		"SELECT * -- trailing comment\nFROM t -- another\nWHERE a = 1",
		`SELECT "room number" FROM "Seat Sensors"`,
		"SELECT * FROM t WHERE 'unterminated",
		"SELECT * FROM t WHERE (a = 1",
	} {
		f.Add(q)
	}
	f.Fuzz(requirePrintFixpoint)
}
