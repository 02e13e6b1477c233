package sensor

import (
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sensornet"
	"aspen/internal/vtime"
)

// constEnv returns fixed per-node values: temp = 20 + id, light = high
// unless the node id is in dark.
func constEnv(dark map[int]bool) Env {
	return EnvFunc(func(n sensornet.Node, kind sensornet.SensorKind, now vtime.Time) (float64, bool) {
		switch kind {
		case sensornet.SensorTemperature:
			return 20 + float64(n.ID), true
		case sensornet.SensorLight:
			if dark[n.ID] {
				return 5, true // occupied chair blocks the light sensor
			}
			return 80, true
		}
		return 0, false
	})
}

func collect(sink *[]data.Tuple) Sink {
	return func(t data.Tuple) { *sink = append(*sink, t) }
}

// collectBatch is collect for the periodic runners: the epoch slice is
// reused, the tuples are the receiver's.
func collectBatch(sink *[]data.Tuple) BatchSink {
	return func(ts []data.Tuple) { *sink = append(*sink, ts...) }
}

func TestSelectEpochFiltersInNetwork(t *testing.T) {
	nw := sensornet.Line(sensornet.DefaultConfig(), 5, 100, sensornet.SensorTemperature)
	e := NewEngine(nw, constEnv(nil))
	q := &SelectQuery{Rel: "t", Sensor: sensornet.SensorTemperature}
	q.Pred = expr.MustBind(
		expr.Bin{Op: expr.OpGe, L: expr.C("value"), R: expr.L(22.0)}, q.Schema())

	var got []data.Tuple
	n := e.RunSelectEpoch(q, 0, collect(&got))
	// temps are 20..24; >=22 passes for nodes 2,3,4
	if n != 3 || len(got) != 3 {
		t.Fatalf("delivered = %d (%v)", n, got)
	}
	// messages: node 2 (2 hops) + node 3 (3) + node 4 (4) = 9; filtered
	// nodes send nothing.
	if m := nw.Metrics(); m.Sent != 9 {
		t.Fatalf("sent = %d, want 9", m.Sent)
	}
	for _, tu := range got {
		if tu.Vals[3].AsFloat() < 22 {
			t.Fatalf("filter leaked %v", tu)
		}
	}
}

func TestSelectSchemaShape(t *testing.T) {
	q := &SelectQuery{Rel: "temps", Sensor: sensornet.SensorTemperature}
	s := q.Schema()
	if !s.IsStream || s.Arity() != 4 || s.Cols[0].QName() != "temps.mote" {
		t.Fatalf("schema = %s", s)
	}
}

func TestSelectBaseNodeDeliversFree(t *testing.T) {
	nw := sensornet.Line(sensornet.DefaultConfig(), 1, 100, sensornet.SensorTemperature)
	e := NewEngine(nw, constEnv(nil))
	var got []data.Tuple
	e.RunSelectEpoch(&SelectQuery{Rel: "t", Sensor: sensornet.SensorTemperature}, 0, collect(&got))
	if len(got) != 1 {
		t.Fatalf("got = %v", got)
	}
	if nw.Metrics().Sent != 0 {
		t.Fatal("base's own reading should not use radio")
	}
}

func TestAggregateTAGMatchesCentralized(t *testing.T) {
	for _, fn := range []AggFunc{AggCount, AggSum, AggAvg, AggMin, AggMax} {
		nwA := sensornet.Grid(sensornet.DefaultConfig(), 4, 4, 100, 4, sensornet.SensorTemperature)
		nwB := sensornet.Grid(sensornet.DefaultConfig(), 4, 4, 100, 4, sensornet.SensorTemperature)
		eA := NewEngine(nwA, constEnv(nil))
		eB := NewEngine(nwB, constEnv(nil))

		var inNet, central []data.Tuple
		eA.RunAggregateEpoch(&AggregateQuery{Rel: "t", Sensor: sensornet.SensorTemperature,
			Func: fn, Mode: AggInNetwork, GroupByRoom: true}, 0, collect(&inNet))
		eB.RunAggregateEpoch(&AggregateQuery{Rel: "t", Sensor: sensornet.SensorTemperature,
			Func: fn, Mode: AggCentralized, GroupByRoom: true}, 0, collect(&central))

		if len(inNet) != len(central) || len(inNet) == 0 {
			t.Fatalf("%v: group counts differ: %d vs %d", fn, len(inNet), len(central))
		}
		for i := range inNet {
			if !inNet[i].EqualVals(central[i]) {
				t.Fatalf("%v group %d: TAG %v != central %v", fn, i, inNet[i], central[i])
			}
		}
	}
}

func TestAggregateTAGSavesMessages(t *testing.T) {
	nwA := sensornet.Grid(sensornet.DefaultConfig(), 6, 6, 100, 6, sensornet.SensorTemperature)
	nwB := sensornet.Grid(sensornet.DefaultConfig(), 6, 6, 100, 6, sensornet.SensorTemperature)
	eA := NewEngine(nwA, constEnv(nil))
	eB := NewEngine(nwB, constEnv(nil))
	drop := func(data.Tuple) {}
	eA.RunAggregateEpoch(&AggregateQuery{Rel: "t", Sensor: sensornet.SensorTemperature,
		Func: AggAvg, Mode: AggInNetwork}, 0, drop)
	eB.RunAggregateEpoch(&AggregateQuery{Rel: "t", Sensor: sensornet.SensorTemperature,
		Func: AggAvg, Mode: AggCentralized}, 0, drop)
	tag, central := nwA.Metrics().Sent, nwB.Metrics().Sent
	if tag >= central {
		t.Fatalf("TAG (%d msgs) should beat centralized (%d msgs)", tag, central)
	}
	// TAG: exactly one message per non-base node (single group)
	if tag != 35 {
		t.Fatalf("TAG msgs = %d, want 35", tag)
	}
}

func TestAggregateGlobalValue(t *testing.T) {
	nw := sensornet.Line(sensornet.DefaultConfig(), 3, 100, sensornet.SensorTemperature)
	e := NewEngine(nw, constEnv(nil))
	var got []data.Tuple
	e.RunAggregateEpoch(&AggregateQuery{Rel: "t", Sensor: sensornet.SensorTemperature,
		Func: AggAvg, Mode: AggInNetwork}, 0, collect(&got))
	if len(got) != 1 {
		t.Fatalf("groups = %d", len(got))
	}
	if v := got[0].Vals[0].AsFloat(); v != 21 { // (20+21+22)/3
		t.Fatalf("avg = %v", v)
	}
	// min / max / count / sum
	checks := map[AggFunc]float64{AggMin: 20, AggMax: 22, AggCount: 3, AggSum: 63}
	for fn, want := range checks {
		var out []data.Tuple
		e.RunAggregateEpoch(&AggregateQuery{Rel: "t", Sensor: sensornet.SensorTemperature,
			Func: fn, Mode: AggInNetwork}, 0, collect(&out))
		if out[0].Vals[0].AsFloat() != want {
			t.Fatalf("%v = %v, want %v", fn, out[0].Vals[0], want)
		}
	}
}

func TestAggregateWithPredicate(t *testing.T) {
	nw := sensornet.Line(sensornet.DefaultConfig(), 5, 100, sensornet.SensorTemperature)
	e := NewEngine(nw, constEnv(nil))
	q := &AggregateQuery{Rel: "t", Sensor: sensornet.SensorTemperature, Func: AggCount, Mode: AggInNetwork}
	q.Pred = expr.MustBind(expr.Bin{Op: expr.OpGt, L: expr.C("value"), R: expr.L(21.5)},
		ReadingSchema("t"))
	var got []data.Tuple
	e.RunAggregateEpoch(q, 0, collect(&got))
	if got[0].Vals[0].AsFloat() != 3 { // nodes 2,3,4
		t.Fatalf("count = %v", got[0].Vals[0])
	}
}

func TestAggregateSchemas(t *testing.T) {
	g := &AggregateQuery{Rel: "a", GroupByRoom: true}
	if g.Schema().Arity() != 2 || g.Schema().Cols[0].Name != "room" {
		t.Fatalf("grouped schema = %s", g.Schema())
	}
	u := &AggregateQuery{Rel: "a"}
	if u.Schema().Arity() != 1 {
		t.Fatalf("global schema = %s", u.Schema())
	}
}

func TestAggFuncString(t *testing.T) {
	names := map[AggFunc]string{AggCount: "count", AggSum: "sum", AggAvg: "avg", AggMin: "min", AggMax: "max"}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("%d.String() = %q", f, f.String())
		}
	}
	if AggFunc(99).String() != "agg?" {
		t.Error("unknown agg should format")
	}
}

func TestStartSelectPeriodic(t *testing.T) {
	nw := sensornet.Line(sensornet.DefaultConfig(), 2, 100, sensornet.SensorTemperature)
	e := NewEngine(nw, constEnv(nil))
	sched := vtime.NewScheduler()
	var got []data.Tuple
	r := e.StartSelect(&SelectQuery{Rel: "t", Sensor: sensornet.SensorTemperature,
		Period: 10 * time.Second}, sched, collectBatch(&got))
	sched.RunUntil(35 * vtime.Second)
	if len(got) != 3*2 { // 3 epochs × 2 nodes
		t.Fatalf("tuples = %d", len(got))
	}
	r.Stop()
	sched.RunUntil(100 * vtime.Second)
	if len(got) != 6 {
		t.Fatalf("tuples after stop = %d", len(got))
	}
	// timestamps carry virtual time
	if got[0].TS != 10*vtime.Second {
		t.Fatalf("ts = %v", got[0].TS)
	}
}

func TestStartAggregateAndJoinPeriodic(t *testing.T) {
	nw := sensornet.Grid(sensornet.DefaultConfig(), 2, 2, 90, 2,
		sensornet.SensorTemperature, sensornet.SensorLight)
	e := NewEngine(nw, constEnv(nil))
	sched := vtime.NewScheduler()
	var aggs, joins []data.Tuple
	ra := e.StartAggregate(&AggregateQuery{Rel: "t", Sensor: sensornet.SensorTemperature,
		Func: AggAvg}, sched, collectBatch(&aggs))
	st, err := e.PlanJoin(&JoinQuery{
		Left:   JoinSide{Rel: "temp", Sensor: sensornet.SensorTemperature},
		Right:  JoinSide{Rel: "light", Sensor: sensornet.SensorLight},
		PairBy: PairSameDesk,
	})
	if err != nil {
		t.Fatal(err)
	}
	rj := e.StartJoin(st, sched, collectBatch(&joins))
	sched.RunUntil(2 * vtime.Second) // default period 1s → 2 epochs
	ra.Stop()
	rj.Stop()
	if len(aggs) != 2 {
		t.Fatalf("agg results = %d", len(aggs))
	}
	if len(joins) == 0 {
		t.Fatalf("no join results")
	}
}
