package plan

import (
	"slices"
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
		{sec, 2 * sec, 0, false},                // epochs between ticks
		{700 * time.Millisecond, sec, 0, false}, // never on a tick
		{sec, sec, vtime.Second / 2, false},     // deploy off-tick
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

// runnerEnv reads temperature 20 + mote id at every instant.
func runnerEnv(n sensornet.Node, kind sensornet.SensorKind, _ vtime.Time) (float64, bool) {
	if kind == sensornet.SensorLight {
		return 80, true
	}
	return 20 + float64(n.ID), true
}

// startCentral starts a central runner of f on sched, sampling on eng and
// feeding head — the runner a serial compile builds for a fragment.
func startCentral(t *testing.T, eng *sensor.Engine, f SensorFragment, sched *vtime.Scheduler, head stream.Operator) *fragRunner {
	t.Helper()
	h := NewSensorHosts()
	for _, src := range f.Sources {
		h.Add(src, eng)
	}
	sc := &Scan{Input: f.Name}
	var dep Deployment
	if err := dep.buildRunners(Host{Sensors: h, Sched: sched}, []SensorFragment{f}, []*Scan{sc}, map[*Scan]stream.Operator{sc: head}); err != nil {
		t.Fatal(err)
	}
	dep.startRunners(sched)
	return dep.runners[0]
}

func tempSelect(period time.Duration) SensorFragment {
	return SensorFragment{Name: "t", Sources: []string{"temperature"},
		Select: &sensor.SelectQuery{Rel: "t", Sensor: sensornet.SensorTemperature, Period: period}}
}

// TestFragRunnerSelectPeriodic fires a central select runner every period:
// every mote's reading each epoch, stamped at the epoch instant, and nothing
// after Close.
func TestFragRunnerSelectPeriodic(t *testing.T) {
	nw := sensornet.Line(sensornet.DefaultConfig(), 2, 100, sensornet.SensorTemperature)
	sched := vtime.NewScheduler()
	sink := &collectOp{schema: sensor.ReadingSchema("t")}
	r := startCentral(t, sensor.NewEngine(nw, sensor.EnvFunc(runnerEnv)), tempSelect(10*time.Second), sched, sink)
	sched.RunUntil(35 * vtime.Second)
	if len(sink.got) != 3*2 { // 3 epochs × 2 nodes
		t.Fatalf("tuples = %d, want 6", len(sink.got))
	}
	for i, tu := range sink.got {
		if want := vtime.Time(i/2+1) * 10 * vtime.Second; tu.TS != want {
			t.Fatalf("tuple %d stamped %v, want the epoch instant %v", i, tu.TS, want)
		}
	}
	r.Close()
	sched.RunUntil(100 * vtime.Second)
	if len(sink.got) != 6 {
		t.Fatalf("tuples after Close = %d, want 6", len(sink.got))
	}
}

// TestFragRunnerOneBatchPerEpoch checks a central select runner hands its
// head each epoch's readings as one batch, with a 1s default period, and
// that the tuples it handed over stay intact while later epochs reuse the
// batch slice.
func TestFragRunnerOneBatchPerEpoch(t *testing.T) {
	nw := sensornet.Grid(sensornet.DefaultConfig(), 3, 3, 100, 3, sensornet.SensorTemperature)
	eng := sensor.NewEngine(nw, sensor.EnvFunc(runnerEnv))
	sched := vtime.NewScheduler()
	var batches int
	var tuples []data.Tuple
	head := stream.NewCallback(sensor.ReadingSchema("t"), func(ts []data.Tuple) {
		batches++
		tuples = append(tuples, ts...) // the tuples are the head's to keep
	})
	r := startCentral(t, eng, tempSelect(0), sched, head)
	defer r.Close()

	const epochs = 4
	sched.RunFor(epochs * time.Second)
	if batches != epochs {
		t.Fatalf("batches = %d, want one per epoch (%d)", batches, epochs)
	}
	fresh := sensor.NewEngine(sensornet.Grid(sensornet.DefaultConfig(), 3, 3, 100, 3, sensornet.SensorTemperature),
		sensor.EnvFunc(runnerEnv))
	perEpoch := fresh.RunSelectEpoch(tempSelect(0).Select, vtime.Time(vtime.Second), func(data.Tuple) {})
	if len(tuples) != epochs*perEpoch {
		t.Fatalf("delivered %d tuples over %d epochs, want %d per epoch", len(tuples), epochs, perEpoch)
	}
	seen := map[int64]bool{}
	for _, tu := range tuples {
		if len(tu.Vals) != 4 || tu.Vals[3].AsFloat() != 20+float64(tu.Vals[0].AsInt()) {
			t.Fatalf("malformed reading %v", tu)
		}
		seen[tu.Vals[0].AsInt()] = true
	}
	if len(seen) != perEpoch {
		t.Fatalf("distinct motes = %d, want %d", len(seen), perEpoch)
	}
}

// tempGrid is a 4×4 grid of temperature and light motes read through
// runnerEnv.
func tempGrid() *sensor.Engine {
	return sensor.NewEngine(sensornet.Grid(sensornet.DefaultConfig(), 4, 4, 100, 4,
		sensornet.SensorTemperature, sensornet.SensorLight), sensor.EnvFunc(runnerEnv))
}

// TestFragRunnerJoinPeriodic runs a central join runner on its 1s default
// period: one batch per epoch, the first matching a direct epoch run of the
// same query.
func TestFragRunnerJoinPeriodic(t *testing.T) {
	join := SensorFragment{Name: "j", Sources: []string{"temperature", "light"},
		Join: &sensor.JoinQuery{
			Left:   sensor.JoinSide{Rel: "t", Sensor: sensornet.SensorTemperature},
			Right:  sensor.JoinSide{Rel: "l", Sensor: sensornet.SensorLight},
			PairBy: sensor.PairSameDesk,
		}}
	ref := tempGrid()
	st, err := ref.PlanJoin(join.Join)
	if err != nil {
		t.Fatal(err)
	}
	wantJoin := ref.RunJoinEpoch(st, vtime.Time(vtime.Second), func(data.Tuple) {})
	if wantJoin == 0 {
		t.Fatal("the reference join epoch delivers no pairs; the probe is vacuous")
	}

	sched := vtime.NewScheduler()
	var joinBatches []int
	rj := startCentral(t, tempGrid(), join, sched, stream.NewCallback(join.Schema(), func(ts []data.Tuple) {
		joinBatches = append(joinBatches, len(ts))
	}))
	sched.RunUntil(2 * vtime.Second)
	rj.Close()
	if len(joinBatches) != 2 {
		t.Fatalf("join batches %v; want 2 epochs", joinBatches)
	}
	if joinBatches[0] != wantJoin {
		t.Fatalf("join epoch delivered %d pairs, want %d", joinBatches[0], wantJoin)
	}
}

// TestFragRunnerCloseMidEpochFromHead closes a central runner from inside
// its own delivery — a consumer tearing its query down in reaction to a
// batch — and checks nothing is pushed afterwards.
func TestFragRunnerCloseMidEpochFromHead(t *testing.T) {
	nw := sensornet.Line(sensornet.DefaultConfig(), 4, 50, sensornet.SensorTemperature)
	sched := vtime.NewScheduler()
	var r *fragRunner
	batches := 0
	r = startCentral(t, sensor.NewEngine(nw, sensor.EnvFunc(runnerEnv)), tempSelect(0), sched,
		stream.NewCallback(sensor.ReadingSchema("t"), func([]data.Tuple) {
			batches++
			r.Close() // reentrant: the delivery closes its own runner
		}))
	sched.RunUntil(5 * vtime.Second)
	if batches != 1 {
		t.Fatalf("got %d batches after a first-delivery Close, want exactly 1", batches)
	}
}

// TestFragRunnerCloseReleasesBuffer checks a closed runner retains neither
// tuples nor its head, and that an epoch run after Close pushes nothing.
func TestFragRunnerCloseReleasesBuffer(t *testing.T) {
	nw := sensornet.Line(sensornet.DefaultConfig(), 4, 50, sensornet.SensorTemperature)
	sched := vtime.NewScheduler()
	sink := &collectOp{schema: sensor.ReadingSchema("t")}
	r := startCentral(t, sensor.NewEngine(nw, sensor.EnvFunc(runnerEnv)), tempSelect(0), sched, sink)
	sched.RunUntil(2 * vtime.Second)
	delivered := len(sink.got)
	if delivered == 0 || cap(r.buf) == 0 {
		t.Fatal("the runner delivered nothing; the probe is vacuous")
	}
	r.Close()
	r.Close() // idempotent
	if r.buf != nil || r.head != nil {
		t.Fatal("Close must release the epoch buffer and the head")
	}
	r.epoch(3 * vtime.Second) // an epoch already under way when Close landed
	if len(sink.got) != delivered {
		t.Fatalf("delivered %d tuples after Close", len(sink.got)-delivered)
	}
}

// TestFragRunnerChurn starts and closes many central runners against one
// engine, interleaved with epochs, and checks closed runners never deliver
// again while the survivor keeps going.
func TestFragRunnerChurn(t *testing.T) {
	nw := sensornet.Line(sensornet.DefaultConfig(), 4, 50, sensornet.SensorTemperature)
	eng := sensor.NewEngine(nw, sensor.EnvFunc(runnerEnv))
	sched := vtime.NewScheduler()
	counts := make([]int, 8)
	var runners []*fragRunner
	for i := range counts {
		runners = append(runners, startCentral(t, eng, tempSelect(time.Second), sched,
			stream.NewCallback(sensor.ReadingSchema("t"), func(ts []data.Tuple) { counts[i] += len(ts) })))
	}
	sched.RunUntil(2 * vtime.Second)
	frozen := slices.Clone(counts)
	for _, r := range runners[:len(runners)-1] {
		r.Close()
	}
	runners[0].Close()
	sched.RunUntil(6 * vtime.Second)
	for i, n := range counts[:len(counts)-1] {
		if n != frozen[i] {
			t.Fatalf("closed runner %d delivered %d more tuples", i, n-frozen[i])
		}
	}
	last := len(counts) - 1
	if counts[last] <= frozen[last] {
		t.Fatal("surviving runner stalled after its peers closed")
	}
}
