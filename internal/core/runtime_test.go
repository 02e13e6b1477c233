package core

import (
	"testing"

	"aspen/internal/data"
	"aspen/internal/federation"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/vtime"
)

// MustRun deploys a statically known statement, panicking on error.
func (rt *Runtime) MustRun(sqlText string) *Query {
	q, err := rt.Run(sqlText)
	if err != nil {
		panic(err)
	}
	return q
}

// newTestRuntime assembles a runtime over a 3x3 desk grid where desk mote 4
// is occupied (dark chair light).
func newTestRuntime(t *testing.T) (*Runtime, *vtime.Scheduler) {
	t.Helper()
	nw := sensornet.Grid(sensornet.DefaultConfig(), 3, 3, 100, 3,
		sensornet.SensorTemperature, sensornet.SensorLight)
	env := sensor.EnvFunc(func(n sensornet.Node, kind sensornet.SensorKind, now vtime.Time) (float64, bool) {
		switch kind {
		case sensornet.SensorTemperature:
			return 20 + float64(n.ID), true
		case sensornet.SensorLight:
			if n.ID == 4 {
				return 3, true
			}
			return 70, true
		}
		return 0, false
	})
	sched := vtime.NewScheduler()
	rt := New(Config{
		Scheduler:    sched,
		SensorEngine: sensor.NewEngine(nw, env),
	})
	t.Cleanup(rt.Close)
	if err := rt.RegisterSensorStream("Temperature", sensornet.SensorTemperature, 9); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterSensorStream("Light", sensornet.SensorLight, 9); err != nil {
		t.Fatal(err)
	}
	return rt, sched
}

func TestRunFederatedOccupancyQuery(t *testing.T) {
	rt, sched := newTestRuntime(t)
	q, err := rt.Run(`SELECT t.room, t.desk, t.value FROM Temperature t, Light l
		WHERE t.room = l.room AND t.desk = l.desk AND l.value < 10`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Partition == nil || q.Partition.Chosen == nil {
		t.Fatal("no partition recorded")
	}
	if q.Partition.Chosen.Fragments[0].Kind != federation.FragJoin {
		t.Fatalf("chosen = %s", q.Partition.Chosen.Desc)
	}
	sched.RunUntil(3 * vtime.Second) // a few sensor epochs
	rows, err := q.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no results after epochs")
	}
	for _, r := range rows {
		if r.Vals[2].AsFloat() != 24 { // mote 4's temperature
			t.Fatalf("row = %v", r)
		}
	}
	q.Stop()
	before := len(rows)
	sched.RunUntil(10 * vtime.Second)
	rows, _ = q.Snapshot()
	if len(rows) != before {
		t.Fatal("results changed after Stop")
	}
}

func TestRunCreateViewThenQuery(t *testing.T) {
	rt, sched := newTestRuntime(t)
	if _, err := rt.Run(`CREATE VIEW Occupied AS (
		SELECT t.room, t.desk, t.value FROM Temperature t, Light l
		WHERE t.room = l.room AND t.desk = l.desk AND l.value < 10)`); err != nil {
		t.Fatal(err)
	}
	q, err := rt.Run(`SELECT o.room, o.value FROM Occupied o`)
	if err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(2 * vtime.Second)
	rows, err := q.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("view query returned nothing")
	}
	if rows[0].Vals[1].AsFloat() != 24 {
		t.Fatalf("row = %v", rows[0])
	}
}

func TestRunWithTables(t *testing.T) {
	rt, sched := newTestRuntime(t)
	mach := data.NewSchema("Machines",
		data.Col("name", data.TString), data.Col("room", data.TString), data.Col("desk", data.TInt))
	rel := data.NewRelation(mach)
	rel.MustInsert(data.Str("ws-a"), data.Str("L2"), data.Int(2)) // desk of mote 4
	rel.MustInsert(data.Str("ws-b"), data.Str("L1"), data.Int(1))
	if err := rt.RegisterTable("Machines", rel); err != nil {
		t.Fatal(err)
	}
	q, err := rt.Run(`SELECT m.name, t.value FROM Temperature t, Light l, Machines m
		WHERE t.room = l.room AND t.desk = l.desk AND l.value < 10
		AND m.room = t.room AND m.desk = t.desk`)
	if err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(2 * vtime.Second)
	rows, err := q.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no joined rows")
	}
	if rows[0].Vals[0].AsString() != "ws-a" {
		t.Fatalf("row = %v", rows[0])
	}
}

func TestRunRecursiveRouting(t *testing.T) {
	rt, _ := newTestRuntime(t)
	edges := data.NewSchema("RoutingPoints",
		data.Col("src", data.TString), data.Col("dst", data.TString), data.Col("dist", data.TFloat))
	rel := data.NewRelation(edges)
	add := func(a, b string, d float64) {
		rel.MustInsert(data.Str(a), data.Str(b), data.Float(d))
	}
	add("lobby", "hall1", 40)
	add("hall1", "hall2", 35)
	add("hall2", "L102", 20)
	add("hall1", "L101", 25)
	if err := rt.RegisterTable("RoutingPoints", rel); err != nil {
		t.Fatal(err)
	}

	q, err := rt.Run(`WITH RECURSIVE paths(src, dst, dist) AS (
		SELECT r.src, r.dst, r.dist FROM RoutingPoints r
		UNION ALL
		SELECT p.src, r.dst, p.dist + r.dist FROM paths p, RoutingPoints r WHERE p.dst = r.src
	) SELECT src, dst, dist FROM paths WHERE src = 'lobby' ORDER BY dist`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := q.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// lobby reaches hall1(40), L101(65), hall2(75), L102(95)
	if len(rows) != 4 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].Vals[1].AsString() != "hall1" || rows[0].Vals[2].AsFloat() != 40 {
		t.Fatalf("first = %v", rows[0])
	}
	if rows[3].Vals[1].AsString() != "L102" || rows[3].Vals[2].AsFloat() != 95 {
		t.Fatalf("last = %v", rows[3])
	}

	// Incremental maintenance: a corridor closes, routes through it vanish.
	in, _ := rt.Stream.Input("RoutingPoints")
	in.Push(data.NewTuple(vtime.Second, data.Str("hall1"), data.Str("hall2"), data.Float(35)).Negate())
	rows, _ = q.Snapshot()
	if len(rows) != 2 {
		t.Fatalf("after edge delete: %v", rows)
	}
	for _, r := range rows {
		if r.Vals[1].AsString() == "L102" {
			t.Fatalf("stale route to L102: %v", rows)
		}
	}
}

func TestRunParseAndPlanErrors(t *testing.T) {
	rt, _ := newTestRuntime(t)
	if _, err := rt.Run(`SELEC nonsense`); err == nil {
		t.Fatal("parse error accepted")
	}
	if _, err := rt.Run(`SELECT x.a FROM NoSuch x`); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := rt.Run(`CREATE VIEW V AS (SELECT t.room FROM Temperature t)`); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(`CREATE VIEW V AS (SELECT t.room FROM Temperature t)`); err == nil {
		t.Fatal("duplicate view accepted")
	}
	// CREATE VIEW has no snapshot
	q := rt.MustRun(`CREATE VIEW W AS (SELECT t.room FROM Temperature t)`)
	if _, err := q.Snapshot(); err == nil {
		t.Fatal("view snapshot should error")
	}
}

func TestMustRunPanics(t *testing.T) {
	rt, _ := newTestRuntime(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rt.MustRun("garbage")
}

func TestRegisterErrors(t *testing.T) {
	rt, _ := newTestRuntime(t)
	if err := rt.RegisterSensorStream("Temperature", sensornet.SensorTemperature, 1); err == nil {
		t.Fatal("duplicate sensor stream accepted")
	}
	s := data.NewSchema("S", data.Col("a", data.TInt))
	if _, err := rt.RegisterStream("Temperature", s, 1); err == nil {
		t.Fatal("name clash accepted")
	}
	noSensors := New(Config{})
	defer noSensors.Close()
	if err := noSensors.RegisterSensorStream("X", sensornet.SensorLight, 1); err == nil {
		t.Fatal("sensor stream without engine accepted")
	}
}

func TestWindowedQueryExpiresViaTicker(t *testing.T) {
	rt, sched := newTestRuntime(t)
	in, err := rt.RegisterStream("Pulse", pulseSchema(), 1)
	if err != nil {
		t.Fatal(err)
	}
	q := rt.MustRun(`SELECT p.v FROM Pulse p [RANGE 5 SECONDS]`)
	in.Push(data.NewTuple(sched.Now().Add(1e9), data.Int(1)))
	sched.RunUntil(2 * vtime.Second)
	if rows, _ := q.Snapshot(); len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	// after the window passes, the runtime's tick must expire the tuple
	sched.RunUntil(20 * vtime.Second)
	if rows, _ := q.Snapshot(); len(rows) != 0 {
		t.Fatalf("window did not expire: %v", rows)
	}
}

func pulseSchema() *data.Schema {
	s := data.NewSchema("Pulse", data.Col("v", data.TInt))
	s.IsStream = true
	return s
}

func TestQueryOutputToDisplay(t *testing.T) {
	rt, sched := newTestRuntime(t)
	rt.MustRun(`SELECT t.room, t.value FROM Temperature t WHERE t.value > 26 OUTPUT TO lobbyboard`)
	sched.RunUntil(2 * vtime.Second)
	disp := rt.Stream.MustDisplay("lobbyboard", nil)
	if disp.Len() == 0 {
		t.Fatal("display never updated")
	}
}

// TestSharedPrefixesRuntime wires Config.SharedPrefixes end to end: two
// SELECTs over the same windowed source run one physical chain (one input
// subscriber, one tracked window), see identical filtered data, and
// Query.Stop detaches everything — the last stop tears the chain down.
func TestSharedPrefixesRuntime(t *testing.T) {
	sched := vtime.NewScheduler()
	rt := New(Config{Scheduler: sched, SharedPrefixes: true})
	defer rt.Close()
	in, err := rt.RegisterStream("Pulse", pulseSchema(), 1)
	if err != nil {
		t.Fatal(err)
	}
	q1 := rt.MustRun(`SELECT p.v FROM Pulse p [RANGE 5 SECONDS] WHERE p.v >= 1`)
	q2 := rt.MustRun(`SELECT x.v FROM Pulse x [RANGE 5 SECONDS] WHERE x.v >= 1`)
	if got := in.Subscribers(); got != 1 {
		t.Fatalf("subscribers = %d, want 1 shared chain for both queries", got)
	}
	if got, _ := rt.Sharing().Stats(); got == 0 {
		t.Fatal("no shared chains despite SharedPrefixes")
	}
	in.Push(data.NewTuple(sched.Now().Add(1e9), data.Int(0)))
	in.Push(data.NewTuple(sched.Now().Add(1e9), data.Int(2)))
	r1, _ := q1.Snapshot()
	r2, _ := q2.Snapshot()
	if len(r1) != 1 || len(r2) != 1 {
		t.Fatalf("rows = %v / %v, want 1 filtered row each", r1, r2)
	}
	q1.Stop()
	in.Push(data.NewTuple(sched.Now().Add(2e9), data.Int(3)))
	if r2, _ = q2.Snapshot(); len(r2) != 2 {
		t.Fatalf("survivor rows = %v, want 2", r2)
	}
	if r1, _ = q1.Snapshot(); len(r1) != 1 {
		t.Fatalf("stopped query updated after Stop: %v", r1)
	}
	q2.Stop()
	if got, _ := rt.Sharing().Stats(); got != 0 {
		t.Fatalf("chains = %d after last stop, want 0", got)
	}
	if got := in.Subscribers(); got != 0 {
		t.Fatalf("subscribers = %d after last stop, want 0", got)
	}
}

// TestQueryChurnRuntime loops deploy/stop at the runtime layer (the path
// the paper's ad-hoc visitor queries exercise): registries must return to
// baseline every iteration, with sharing on and off.
func TestQueryChurnRuntime(t *testing.T) {
	for _, shared := range []bool{false, true} {
		sched := vtime.NewScheduler()
		rt := New(Config{Scheduler: sched, SharedPrefixes: shared})
		in, err := rt.RegisterStream("Pulse", pulseSchema(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			qa := rt.MustRun(`SELECT p.v FROM Pulse p [RANGE 2 SECONDS]`)
			qb := rt.MustRun(`SELECT p.v FROM Pulse p [RANGE 2 SECONDS] WHERE p.v >= 1`)
			in.Push(data.NewTuple(sched.Now().Add(1e9), data.Int(int64(i))))
			qa.Stop()
			qa.Stop() // idempotent
			qb.Stop()
			if n := in.Subscribers(); n != 0 {
				t.Fatalf("shared=%v iter %d: %d subscribers after Stop", shared, i, n)
			}
			if n := rt.Stream.Advancers(); n != 0 {
				t.Fatalf("shared=%v iter %d: %d advancers after Stop", shared, i, n)
			}
			if shared {
				if n, _ := rt.Sharing().Stats(); n != 0 {
					t.Fatalf("shared=%v iter %d: %d chains after Stop", shared, i, n)
				}
			}
		}
		rt.Close()
	}
}
