// Benchmarks: one per paper experiment E1–E6 and E8–E10 (see the
// internal/experiments package doc). Each benchmark exercises the
// experiment's inner operation; cmd/benchharness regenerates the full
// parameter-sweep tables. The stream pipelines' own benchmarks live beside
// their code: BenchmarkJoinAgg in internal/stream, BenchmarkRemoteJoinAgg
// and BenchmarkQueryDensity in internal/plan.
package aspen_test

import (
	"fmt"
	"testing"
	"time"

	"aspen/internal/building"
	"aspen/internal/catalog"
	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/federation"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/smartcis"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/views"
	"aspen/internal/vtime"
)

func benchEnv(dark map[int]bool) sensor.Env {
	return sensor.EnvFunc(func(n sensornet.Node, kind sensornet.SensorKind, _ vtime.Time) (float64, bool) {
		switch kind {
		case sensornet.SensorTemperature:
			return 20 + float64(n.ID%17), true
		case sensornet.SensorLight:
			if dark[n.ID] {
				return 4, true
			}
			return 70, true
		}
		return 0, false
	})
}

func benchJoinState(b *testing.B, e *sensor.Engine, p sensor.Placement) *sensor.JoinState {
	b.Helper()
	q := &sensor.JoinQuery{
		Left:      sensor.JoinSide{Rel: "t", Sensor: sensornet.SensorTemperature},
		Right:     sensor.JoinSide{Rel: "l", Sensor: sensornet.SensorLight},
		PairBy:    sensor.PairSameDesk,
		Placement: p,
	}
	q.Right.Pred = expr.MustBind(
		expr.Bin{Op: expr.OpLt, L: expr.C("value"), R: expr.L(10.0)},
		sensor.ReadingSchema("l"))
	st, err := e.PlanJoin(q)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkE1FederatedPartitioning measures one full federated optimization
// of the Fig. 1 query: partition enumeration, capability checks, per-engine
// costing, unification.
func BenchmarkE1FederatedPartitioning(b *testing.B) {
	app, err := smartcis.New(smartcis.Options{
		Building:       building.GenConfig{Labs: 4, DesksPerLab: 6, HallSpacing: 100, Offices: 2},
		SkipPDUServers: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	stmt, err := sql.ParseSelect(`SELECT t.room, t.desk, m.name
		FROM Temperature t [RANGE 2 SECONDS], Light l, Machines m
		WHERE t.room = l.room AND t.desk = l.desk AND l.value < 10
		AND m.room = t.room AND m.desk = t.desk`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.RT.Federator().Optimize(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2InNetworkJoin measures one epoch of the occupancy join under
// both placements on an 8x8 grid.
func BenchmarkE2InNetworkJoin(b *testing.B) {
	for _, mode := range []sensor.Placement{sensor.PlaceOptimized, sensor.PlaceAtBase} {
		b.Run(mode.String(), func(b *testing.B) {
			nw := sensornet.Grid(sensornet.DefaultConfig(), 8, 8, 100, 8,
				sensornet.SensorTemperature, sensornet.SensorLight)
			e := sensor.NewEngine(nw, benchEnv(map[int]bool{3: true, 17: true}))
			st := benchJoinState(b, e, mode)
			sink := func(data.Tuple) {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.RunJoinEpoch(st, vtime.Time(i), sink)
			}
			b.ReportMetric(float64(nw.Metrics().Sent)/float64(b.N), "msgs/epoch")
		})
	}
}

// BenchmarkE3JoinPlacement measures the placement decision itself: cost
// evaluation across converged statistics.
func BenchmarkE3JoinPlacement(b *testing.B) {
	nw := sensornet.Grid(sensornet.DefaultConfig(), 8, 8, 100, 8,
		sensornet.SensorTemperature, sensornet.SensorLight)
	e := sensor.NewEngine(nw, benchEnv(map[int]bool{3: true}))
	st := benchJoinState(b, e, sensor.PlaceOptimized)
	for ep := 0; ep < 20; ep++ {
		e.RunJoinEpoch(st, vtime.Time(ep), func(data.Tuple) {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EstimateJoin(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4InNetworkAgg measures one aggregation epoch, TAG vs
// centralized, on a 10x10 grid.
func BenchmarkE4InNetworkAgg(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    sensor.AggMode
	}{{"tag", sensor.AggInNetwork}, {"central", sensor.AggCentralized}} {
		b.Run(mode.name, func(b *testing.B) {
			nw := sensornet.Grid(sensornet.DefaultConfig(), 10, 10, 100, 10,
				sensornet.SensorTemperature)
			e := sensor.NewEngine(nw, benchEnv(nil))
			q := &sensor.AggregateQuery{Rel: "t", Sensor: sensornet.SensorTemperature,
				Func: sensor.AggAvg, Mode: mode.m}
			sink := func(data.Tuple) {}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.RunAggregateEpoch(q, vtime.Time(i), sink)
			}
			b.ReportMetric(float64(nw.Metrics().Sent)/float64(b.N), "msgs/epoch")
		})
	}
}

// BenchmarkE5RouteLatency measures one guidance route computation on a
// large building.
func BenchmarkE5RouteLatency(b *testing.B) {
	bld := building.Generate(building.GenConfig{Labs: 48, DesksPerLab: 4, HallSpacing: 100, Offices: 24})
	g := bld.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Shortest("lobby", "L148"); !ok {
			b.Fatal("unreachable")
		}
	}
}

// BenchmarkE6IncrementalView measures one incremental edge delete+insert on
// a maintained transitive closure, against full recomputation.
func BenchmarkE6IncrementalView(b *testing.B) {
	mkView := func() (*views.View, func(a, c string, del bool)) {
		vs := data.NewSchema("p", data.Col("src", data.TString), data.Col("dst", data.TString))
		es := data.NewSchema("e", data.Col("src", data.TString), data.Col("dst", data.TString))
		v, err := views.New(views.Config{
			Schema: vs, EdgeSchema: es,
			ViewKey: []string{"p.dst"}, EdgeKey: []string{"e.src"},
			Project: []stream.ProjectItem{{Expr: expr.C("p.src")}, {Expr: expr.C("e.dst")}},
		}, stream.NewCallback(vs, func([]data.Tuple) {}))
		if err != nil {
			b.Fatal(err)
		}
		feed := func(a, c string, del bool) {
			t := data.NewTuple(0, data.Str(a), data.Str(c))
			if del {
				t = t.Negate()
			}
			one := []data.Tuple{t}
			v.BaseInput().PushBatch(one)
			v.EdgeInput().PushBatch(one)
		}
		return v, feed
	}
	load := func(feed func(a, c string, del bool)) {
		for i := 0; i+1 < 30; i++ {
			feed(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1), false)
		}
	}
	b.Run("incremental", func(b *testing.B) {
		_, feed := mkView()
		load(feed)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			feed("n27", "n28", true)
			feed("n27", "n28", false)
		}
	})
	b.Run("recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, feed := mkView()
			load(feed)
		}
	})
}

// BenchmarkE8CostUnification measures one optimization under modified
// radio statistics (the cost-conversion path).
func BenchmarkE8CostUnification(b *testing.B) {
	nw := sensornet.Grid(sensornet.DefaultConfig(), 6, 6, 100, 6,
		sensornet.SensorTemperature, sensornet.SensorLight)
	eng := sensor.NewEngine(nw, benchEnv(map[int]bool{7: true}))
	cat := catalog.New()
	st := cat.Stats()
	st.RadioMsgLatency = 200 * time.Millisecond
	cat.SetStats(st)
	for _, name := range []string{"Temperature", "Light"} {
		cat.MustAddSource(&catalog.Source{Name: name, Kind: catalog.KindSensorStream,
			Schema: sensor.ReadingSchema(name), Rate: 36})
	}
	fed := &federation.Federator{Cat: cat, Sensors: &federation.Binding{
		Kinds: map[string]sensornet.SensorKind{
			"temperature": sensornet.SensorTemperature,
			"light":       sensornet.SensorLight,
		},
		Engine: eng,
	}}
	stmt, err := sql.ParseSelect(`SELECT t.room, t.value FROM Temperature t, Light l
		WHERE t.room = l.room AND t.desk = l.desk AND l.value < 10`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fed.Optimize(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9EndToEnd measures one full virtual second of the running
// SmartCIS deployment: sensing epochs, engine ticks, query maintenance.
func BenchmarkE9EndToEnd(b *testing.B) {
	app, err := smartcis.New(smartcis.Options{
		Building:       building.GenConfig{Labs: 4, DesksPerLab: 6, HallSpacing: 100, Offices: 2},
		SkipPDUServers: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	if _, err := app.OccupancyQuery(); err != nil {
		b.Fatal(err)
	}
	app.SetDeskOccupied("L101", 1, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Sched.RunFor(time.Second)
	}
	b.ReportMetric(float64(app.Net.Metrics().Sent)/float64(b.N), "msgs/vsec")
}

// BenchmarkE10Alarms measures one sensing epoch with an active alarm query
// and a per-user aggregation.
func BenchmarkE10Alarms(b *testing.B) {
	app, err := smartcis.New(smartcis.Options{
		Building:       building.GenConfig{Labs: 3, DesksPerLab: 4, HallSpacing: 100},
		SkipPDUServers: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer app.Close()
	if _, err := app.AlarmQuery(45); err != nil {
		b.Fatal(err)
	}
	if _, err := app.ResourcesByUser(); err != nil {
		b.Fatal(err)
	}
	app.SetRoomTemp("L102", 55)
	app.Fleet.StartJob("ws-L101-1", "marie", "sim", 0.5, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.SampleJobsNow()
		app.Sched.RunFor(time.Second)
	}
}
