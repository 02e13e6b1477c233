package sensor

import (
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/sensornet"
	"aspen/internal/vtime"
)

// TestStartSelectBatchDeliversOneBatchPerEpoch runs a periodic selection
// through the batch sink and checks each epoch's readings arrive as a
// single batch matching the per-tuple path.
func TestStartSelectBatchDeliversOneBatchPerEpoch(t *testing.T) {
	nw := sensornet.Grid(sensornet.DefaultConfig(), 3, 3, 100, 3, sensornet.SensorTemperature)
	env := EnvFunc(func(n sensornet.Node, kind sensornet.SensorKind, _ vtime.Time) (float64, bool) {
		return 20 + float64(n.ID), true
	})
	e := NewEngine(nw, env)
	q := &SelectQuery{Rel: "t", Sensor: sensornet.SensorTemperature, Period: time.Second}

	sched := vtime.NewScheduler()
	var batches int
	var tuples []data.Tuple
	r := e.StartSelect(q, sched, func(ts []data.Tuple) {
		batches++
		for _, tu := range ts {
			tuples = append(tuples, tu) // tuples are receiver-owned; keep them
		}
	})
	defer r.Stop()

	const epochs = 4
	sched.RunFor(epochs * time.Second)
	if batches != epochs {
		t.Fatalf("batches = %d, want one per epoch (%d)", batches, epochs)
	}
	// Reference: the per-tuple epoch runner on an identical fresh network.
	nw2 := sensornet.Grid(sensornet.DefaultConfig(), 3, 3, 100, 3, sensornet.SensorTemperature)
	e2 := NewEngine(nw2, env)
	perEpoch := e2.RunSelectEpoch(q, vtime.Time(time.Second), func(data.Tuple) {})
	if len(tuples) != epochs*perEpoch {
		t.Fatalf("delivered %d tuples over %d epochs, want %d per epoch",
			len(tuples), epochs, perEpoch)
	}
	// Retained tuples must stay intact after later epochs reused the
	// delivery slice: every reading carries its own Vals.
	seen := map[int64]bool{}
	for _, tu := range tuples {
		if len(tu.Vals) != 4 {
			t.Fatalf("malformed reading %v", tu)
		}
		seen[tu.Vals[0].AsInt()] = true
	}
	if len(seen) != perEpoch {
		t.Fatalf("distinct motes = %d, want %d", len(seen), perEpoch)
	}
}

// TestStartAggregateBatchMatchesPerTuple compares the batch aggregate sink
// against a direct epoch run.
func TestStartAggregateBatchMatchesPerTuple(t *testing.T) {
	nw := sensornet.Grid(sensornet.DefaultConfig(), 4, 4, 100, 4, sensornet.SensorTemperature)
	env := EnvFunc(func(n sensornet.Node, kind sensornet.SensorKind, _ vtime.Time) (float64, bool) {
		return float64(20 + n.ID%5), true
	})
	e := NewEngine(nw, env)
	q := &AggregateQuery{Rel: "t", Sensor: sensornet.SensorTemperature,
		Func: AggAvg, GroupByRoom: true, Mode: AggInNetwork, Period: time.Second}

	sched := vtime.NewScheduler()
	var batches [][]data.Tuple
	r := e.StartAggregate(q, sched, func(ts []data.Tuple) {
		cp := make([]data.Tuple, len(ts))
		copy(cp, ts) // the slice is reused across epochs; the tuples are ours
		batches = append(batches, cp)
	})
	defer r.Stop()
	sched.RunFor(2 * time.Second)

	if len(batches) != 2 {
		t.Fatalf("epoch batches = %d, want 2", len(batches))
	}
	nw2 := sensornet.Grid(sensornet.DefaultConfig(), 4, 4, 100, 4, sensornet.SensorTemperature)
	e2 := NewEngine(nw2, env)
	want := e2.RunAggregateEpoch(q, vtime.Time(time.Second), func(data.Tuple) {})
	for i, b := range batches {
		if len(b) != want {
			t.Fatalf("epoch %d delivered %d groups, want %d", i, len(b), want)
		}
	}
}
