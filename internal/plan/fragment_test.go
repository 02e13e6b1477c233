package plan

import (
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

func newFragTestHosts() *SensorHosts {
	nw := sensornet.Grid(sensornet.DefaultConfig(), 3, 3, 100, 3,
		sensornet.SensorTemperature, sensornet.SensorLight)
	env := sensor.EnvFunc(func(n sensornet.Node, kind sensornet.SensorKind, now vtime.Time) (float64, bool) {
		return float64(n.ID) + float64(uint8(kind)), true
	})
	eng := sensor.NewEngine(nw, env)
	h := NewSensorHosts()
	h.Add("light", eng)
	h.Add("temperature", eng)
	return h
}

type collectOp struct {
	schema *data.Schema
	got    []data.Tuple
}

func (c *collectOp) Schema() *data.Schema { return c.schema }
func (c *collectOp) Push(t data.Tuple)    { c.got = append(c.got, t.Clone()) }
func (c *collectOp) PushBatch(ts []data.Tuple) {
	for _, t := range ts {
		c.Push(t)
	}
}

// TestFragmentCheckpointRoundTrip advances a select fragment runner, moves
// its checkpoint into a fresh runner, and checks the restored runner
// resumes at the anchor — regenerating exactly the not-yet-checkpointed
// epochs and none of the checkpointed ones.
func TestFragmentCheckpointRoundTrip(t *testing.T) {
	h := newFragTestHosts()
	f := &SensorFragment{Name: "d", Sources: []string{"light"},
		Select: &sensor.SelectQuery{Rel: "l", Sensor: sensornet.SensorLight, Period: time.Second}}
	w, err := encodeFragment(f, "s0", []int{1}, 2, vtime.Time(1*vtime.Second))
	if err != nil {
		t.Fatal(err)
	}

	sink := &collectOp{schema: sensor.ReadingSchema("l")}
	r1, err := h.buildFragRunners([]wireFragment{w}, 0, map[string]stream.Operator{"s0": sink})
	if err != nil {
		t.Fatal(err)
	}
	r1[0].Advance(vtime.Time(3 * vtime.Second)) // epochs at 1s, 2s, 3s
	ck := r1[0].CheckpointState()
	upto := len(sink.got)
	if upto == 0 {
		t.Fatal("runner delivered nothing")
	}

	sink2 := &collectOp{schema: sensor.ReadingSchema("l")}
	r2, err := h.buildFragRunners([]wireFragment{w}, 0, map[string]stream.Operator{"s0": sink2})
	if err != nil {
		t.Fatal(err)
	}
	if err := r2[0].RestoreState(ck); err != nil {
		t.Fatal(err)
	}
	r2[0].Advance(vtime.Time(5 * vtime.Second)) // must regenerate 4s and 5s only
	for _, got := range sink2.got {
		if got.TS <= vtime.Time(3*vtime.Second) {
			t.Fatalf("restored runner regenerated checkpointed epoch %v", got.TS)
		}
	}
	r1[0].Advance(vtime.Time(5 * vtime.Second))
	cont := sink.got[upto:]
	if len(cont) != len(sink2.got) {
		t.Fatalf("restored runner delivered %d tuples, continuous run %d", len(sink2.got), len(cont))
	}
	for i := range cont {
		if !cont[i].EqualVals(sink2.got[i]) || cont[i].TS != sink2.got[i].TS {
			t.Fatalf("tuple %d: restored %v, continuous %v", i, sink2.got[i], cont[i])
		}
	}
}

// TestFragmentPartitionsUnionToWhole runs every shard's partition of one
// fragment over the same instant and checks the union is exactly the
// central epoch — no tuple lost, none duplicated.
func TestFragmentPartitionsUnionToWhole(t *testing.T) {
	h := newFragTestHosts()
	f := &SensorFragment{Name: "d", Sources: []string{"light"},
		Select: &sensor.SelectQuery{Rel: "l", Sensor: sensornet.SensorLight, Period: time.Second}}
	const p = 3
	w, err := encodeFragment(f, "s0", []int{0}, p, vtime.Time(1*vtime.Second))
	if err != nil {
		t.Fatal(err)
	}

	var union []data.Tuple
	for shard := 0; shard < p; shard++ {
		sink := &collectOp{schema: sensor.ReadingSchema("l")}
		rs, err := h.buildFragRunners([]wireFragment{w}, shard, map[string]stream.Operator{"s0": sink})
		if err != nil {
			t.Fatal(err)
		}
		rs[0].Advance(vtime.Time(1 * vtime.Second))
		union = append(union, sink.got...)
	}

	eng, _ := h.Engine("light")
	var central []data.Tuple
	eng.RunSelectEpoch(&sensor.SelectQuery{Rel: "l", Sensor: sensornet.SensorLight},
		vtime.Time(1*vtime.Second), func(t data.Tuple) { central = append(central, t.Clone()) })
	if len(union) != len(central) {
		t.Fatalf("partition union has %d tuples, central %d", len(union), len(central))
	}
	seen := map[int64]int{}
	for _, t := range union {
		seen[t.Vals[0].AsInt()]++
	}
	for _, c := range central {
		if seen[c.Vals[0].AsInt()] != 1 {
			t.Fatalf("mote %d appears %d times across partitions", c.Vals[0].AsInt(), seen[c.Vals[0].AsInt()])
		}
	}
}

// TestFragmentKeyEligibility covers the node-determined key rules per
// fragment kind.
func TestFragmentKeyEligibility(t *testing.T) {
	sel := &SensorFragment{Select: &sensor.SelectQuery{Rel: "l"}}
	selScan := NewScan("d", "d", sensor.ReadingSchema("d"), nil, 1, false)
	if _, ok := fragmentKeyIdx(sel, selScan, []expr.Expr{expr.Col{Ref: "room"}}); !ok {
		t.Fatal("select fragment keyed on room must be eligible")
	}
	if _, ok := fragmentKeyIdx(sel, selScan, []expr.Expr{expr.Col{Ref: "value"}}); ok {
		t.Fatal("value is reading-dependent; must not be a sampling partition key")
	}
	if _, ok := fragmentKeyIdx(sel, selScan, nil); ok {
		t.Fatal("nil keys hash every column (value included); must be ineligible")
	}
	if _, ok := fragmentKeyIdx(sel, selScan, []expr.Expr{
		expr.Bin{Op: expr.OpAdd, L: expr.Col{Ref: "desk"}, R: expr.Lit{V: data.Int(1)}}}); ok {
		t.Fatal("expression keys must be ineligible")
	}

	agg := &SensorFragment{Agg: &sensor.AggregateQuery{Rel: "l", GroupByRoom: true}}
	aggScan := NewScan("d", "d", agg.Agg.Schema(), nil, 1, false)
	if _, ok := fragmentKeyIdx(agg, aggScan, []expr.Expr{expr.Col{Ref: "room"}}); !ok {
		t.Fatal("grouped aggregate keyed on room must be eligible")
	}
	if _, ok := fragmentKeyIdx(agg, aggScan, []expr.Expr{expr.Col{Ref: "value"}}); ok {
		t.Fatal("aggregate value column must be ineligible")
	}
	global := &SensorFragment{Agg: &sensor.AggregateQuery{Rel: "l"}}
	globalScan := NewScan("d", "d", global.Agg.Schema(), nil, 1, false)
	if _, ok := fragmentKeyIdx(global, globalScan, []expr.Expr{expr.Col{Ref: "value"}}); ok {
		t.Fatal("global aggregate has no node-determined columns")
	}
}

func TestAlignedWithTicks(t *testing.T) {
	sec := time.Second
	cases := []struct {
		period, tick time.Duration
		now          vtime.Time
		want         bool
	}{
		{sec, sec, 0, true},
		{2 * sec, sec, 0, true},
		{sec, 2 * sec, 0, false},                               // epochs between ticks
		{700 * time.Millisecond, sec, 0, false},                // never on a tick
		{sec, sec, vtime.Time(500 * vtime.Millisecond), false}, // deploy off-tick
		{sec, sec, vtime.Time(3 * vtime.Second), true},
		{0, sec, 0, false},
		{sec, 0, 0, false},
	}
	for _, c := range cases {
		if got := alignedWithTicks(c.period, c.tick, c.now); got != c.want {
			t.Fatalf("alignedWithTicks(%v, %v, %v) = %v, want %v", c.period, c.tick, c.now, got, c.want)
		}
	}
}
