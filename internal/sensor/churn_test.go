package sensor

import (
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/sensornet"
	"aspen/internal/vtime"
)

// TestEpochBatchDetachReleasesBuffer is the PR-9 bugfix probe: a stopped
// epoch runner must release its pooled buffer and sever the sink, even when
// the stop lands mid-epoch (collects already issued, flush still pending).
func TestEpochBatchDetachReleasesBuffer(t *testing.T) {
	delivered := 0
	b := &epochBatch{sink: func(ts []data.Tuple) { delivered += len(ts) }}
	b.collect(data.NewTuple(0, data.Int(1)))
	b.collect(data.NewTuple(0, data.Int(2)))
	b.detach() // Stop lands mid-epoch, before the flush
	if b.buf != nil {
		t.Fatal("detach must release the pooled buffer")
	}
	b.collect(data.NewTuple(0, data.Int(3))) // epoch keeps running; must no-op
	b.flush()
	if delivered != 0 {
		t.Fatalf("delivered %d tuples after detach, want 0", delivered)
	}
	if b.buf != nil || b.sink != nil {
		t.Fatal("post-detach collect must not regrow the buffer or revive the sink")
	}
}

// TestRunnerStopMidEpochFromSink stops a batch runner from inside its own
// sink — the reentrant case where a downstream consumer tears the query
// down in reaction to a delivery — and checks nothing arrives afterwards.
func TestRunnerStopMidEpochFromSink(t *testing.T) {
	nw := sensornet.Line(sensornet.DefaultConfig(), 4, 50, sensornet.SensorTemperature)
	e := NewEngine(nw, constEnv(nil))
	sched := vtime.NewScheduler()

	var r Runner
	batches := 0
	r = e.StartSelect(&SelectQuery{Rel: "T", Sensor: sensornet.SensorTemperature},
		sched, func(ts []data.Tuple) {
			batches++
			r.Stop() // reentrant: the delivery stops its own runner
		})
	sched.RunUntil(5 * vtime.Second)
	if batches != 1 {
		t.Fatalf("got %d batches after a first-delivery Stop, want exactly 1", batches)
	}
}

// TestRunnerChurn starts and stops many batch runners against one engine,
// interleaved with epochs, and checks stopped runners never deliver again
// while the survivor keeps going — the leak/aliasing churn probe.
func TestRunnerChurn(t *testing.T) {
	nw := sensornet.Line(sensornet.DefaultConfig(), 4, 50, sensornet.SensorTemperature)
	e := NewEngine(nw, constEnv(nil))
	sched := vtime.NewScheduler()
	q := &SelectQuery{Rel: "T", Sensor: sensornet.SensorTemperature, Period: time.Second}

	counts := make([]int, 8)
	var runners []Runner
	for i := range counts {
		i := i
		runners = append(runners, e.StartSelect(q, sched, func(ts []data.Tuple) {
			counts[i] += len(ts)
		}))
	}
	sched.RunUntil(2 * vtime.Second)
	// Stop all but the last, remembering where each stood; double-Stop one
	// to check idempotence.
	frozen := make([]int, len(counts))
	copy(frozen, counts)
	for _, r := range runners[:len(runners)-1] {
		r.Stop()
	}
	runners[0].Stop()
	sched.RunUntil(6 * vtime.Second)
	for i, r := range counts[:len(counts)-1] {
		if r != frozen[i] {
			t.Fatalf("stopped runner %d delivered %d more tuples", i, r-frozen[i])
		}
	}
	last := len(counts) - 1
	if counts[last] <= frozen[last] {
		t.Fatal("surviving runner stalled after its peers stopped")
	}
}
