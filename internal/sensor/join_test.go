package sensor

import (
	"math/rand"
	"testing"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sensornet"
	"aspen/internal/vtime"
)

// deskGrid builds a grid where every mote has both temperature and light
// sensors (one mote per desk).
func deskGrid(rows, cols int) *sensornet.Network {
	return sensornet.Grid(sensornet.DefaultConfig(), rows, cols, 100, cols,
		sensornet.SensorTemperature, sensornet.SensorLight)
}

// occupancyJoin is the paper's workstation-monitoring query: temperature
// joined with chair light level, returning temperature only for desks whose
// light sensor reads dark (someone seated).
func occupancyJoin(t *testing.T, e *Engine, placement Placement) *JoinState {
	t.Helper()
	q := &JoinQuery{
		Left:      JoinSide{Rel: "temp", Sensor: sensornet.SensorTemperature},
		Right:     JoinSide{Rel: "light", Sensor: sensornet.SensorLight},
		PairBy:    PairSameDesk,
		Placement: placement,
	}
	q.Right.Pred = expr.MustBind(
		expr.Bin{Op: expr.OpLt, L: expr.C("value"), R: expr.L(10.0)},
		ReadingSchema("light"))
	st, err := e.PlanJoin(q)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestJoinPairingSameDesk(t *testing.T) {
	nw := deskGrid(2, 3)
	e := NewEngine(nw, constEnv(nil))
	st := occupancyJoin(t, e, PlaceOptimized)
	// every mote carries both sensors on its desk → one pair per mote
	if st.Pairs() != 6 {
		t.Fatalf("pairs = %d, want 6", st.Pairs())
	}
}

func TestJoinProducesOnlyOccupiedDesks(t *testing.T) {
	nw := deskGrid(2, 3)
	dark := map[int]bool{2: true, 5: true}
	e := NewEngine(nw, constEnv(dark))
	st := occupancyJoin(t, e, PlaceAtBase)
	var got []data.Tuple
	e.RunJoinEpoch(st, 0, collect(&got))
	if len(got) != 2 {
		t.Fatalf("joined = %d, want 2: %v", len(got), got)
	}
	for _, tu := range got {
		mote := tu.Vals[0].AsInt()
		if !dark[int(mote)] {
			t.Fatalf("unoccupied desk leaked: %v", tu)
		}
		if tu.Vals[7].AsFloat() >= 10 {
			t.Fatalf("light value not dark: %v", tu)
		}
		// temp value carried through
		if tu.Vals[3].AsFloat() != 20+float64(mote) {
			t.Fatalf("temperature mangled: %v", tu)
		}
	}
}

// All placements must produce identical result sets on a loss-free network.
func TestJoinPlacementsEquivalent(t *testing.T) {
	dark := map[int]bool{1: true, 4: true, 7: true}
	results := map[Placement][]data.Tuple{}
	for _, pl := range []Placement{PlaceAtLeft, PlaceAtRight, PlaceAtBase, PlaceOptimized} {
		nw := deskGrid(3, 3)
		e := NewEngine(nw, constEnv(dark))
		st := occupancyJoin(t, e, pl)
		var got []data.Tuple
		e.RunJoinEpoch(st, 0, collect(&got))
		results[pl] = got
	}
	want := results[PlaceAtBase]
	for pl, got := range results {
		if len(got) != len(want) {
			t.Fatalf("%v: %d results, want %d", pl, len(got), len(want))
		}
		for i := range got {
			if !got[i].EqualVals(want[i]) {
				t.Fatalf("%v result %d = %v, want %v", pl, i, got[i], want[i])
			}
		}
	}
}

// The headline claim (E2): with few occupied desks, in-network placement
// sends far fewer messages than shipping everything to the base station.
func TestJoinInNetworkSavesMessages(t *testing.T) {
	dark := map[int]bool{7: true} // one occupied desk out of 25
	run := func(pl Placement) int64 {
		nw := deskGrid(5, 5)
		e := NewEngine(nw, constEnv(dark))
		st := occupancyJoin(t, e, pl)
		for epoch := 0; epoch < 20; epoch++ {
			e.RunJoinEpoch(st, vtime.Time(epoch)*vtime.Second, func(data.Tuple) {})
		}
		return nw.Metrics().Sent
	}
	atBase := run(PlaceAtBase)
	optimized := run(PlaceOptimized)
	if optimized >= atBase {
		t.Fatalf("optimized (%d msgs) should beat ship-to-base (%d msgs)", optimized, atBase)
	}
	// The co-located pair join (hop distance 0) should approach zero
	// shipping for unoccupied desks once estimates converge.
	if optimized > atBase/2 {
		t.Fatalf("expected ≥2× saving: optimized=%d base=%d", optimized, atBase)
	}
}

func TestJoinAdaptivePlacementConverges(t *testing.T) {
	nw := deskGrid(4, 4)
	dark := map[int]bool{}
	e := NewEngine(nw, constEnv(dark)) // nothing occupied: σR → 0
	st := occupancyJoin(t, e, PlaceOptimized)
	for epoch := 0; epoch < 30; epoch++ {
		e.RunJoinEpoch(st, vtime.Time(epoch)*vtime.Second, func(data.Tuple) {})
	}
	// With all desks unoccupied, the optimizer should avoid at-base
	// placement everywhere (it would ship σL=1 temperature readings).
	if st.Decisions[PlaceAtBase] != 0 {
		t.Fatalf("decisions = %v; at-base chosen despite empty room", st.Decisions)
	}
}

// TestJoinStatsSnapshotRestore: the adaptive selectivity state a runner
// checkpoints moves to a freshly planned join — as when a shard-hosted
// fragment is rescaled or failed over — which then places every pair as the
// original would have; entries for pairs the new plan does not have (a
// drifted topology) are ignored.
func TestJoinStatsSnapshotRestore(t *testing.T) {
	dark := map[int]bool{1: true, 6: true, 11: true}
	e := NewEngine(deskGrid(4, 4), constEnv(dark))
	learned := occupancyJoin(t, e, PlaceOptimized)
	for epoch := 0; epoch < 30; epoch++ {
		e.RunJoinEpoch(learned, vtime.Time(epoch)*vtime.Second, func(data.Tuple) {})
	}
	snap := learned.SnapshotStats()
	if len(snap) != learned.Pairs() {
		t.Fatalf("snapshot has %d pairs, join has %d", len(snap), learned.Pairs())
	}

	fresh := occupancyJoin(t, e, PlaceOptimized)
	drifted := append([]PairStatsSnapshot{{L: -1, R: -1, N: 99}}, snap...)
	fresh.RestoreStats(drifted)
	got := fresh.SnapshotStats()
	if len(got) != len(snap) {
		t.Fatalf("restored join has %d pairs, want %d", len(got), len(snap))
	}
	for i := range snap {
		if got[i] != snap[i] {
			t.Fatalf("pair %d restored as %+v, want %+v", i, got[i], snap[i])
		}
	}
	for i, p := range fresh.pairs {
		if a, b := fresh.choose(p), learned.choose(learned.pairs[i]); a != b {
			t.Fatalf("pair %d: restored join places %v, the original %v", i, a, b)
		}
	}
}

func TestJoinSameRoomAndProximityPairing(t *testing.T) {
	nw := sensornet.New(sensornet.DefaultConfig())
	nw.MustAddNode(sensornet.Node{ID: 0, X: 0, Y: 0, Room: "A",
		Sensors: []sensornet.SensorKind{sensornet.SensorTemperature}})
	nw.MustAddNode(sensornet.Node{ID: 1, X: 50, Y: 0, Room: "A",
		Sensors: []sensornet.SensorKind{sensornet.SensorLight}})
	nw.MustAddNode(sensornet.Node{ID: 2, X: 100, Y: 0, Room: "B",
		Sensors: []sensornet.SensorKind{sensornet.SensorLight}})
	_ = nw.SetBase(0)
	nw.BuildTree()
	e := NewEngine(nw, constEnv(nil))

	room, err := e.PlanJoin(&JoinQuery{
		Left:   JoinSide{Rel: "t", Sensor: sensornet.SensorTemperature},
		Right:  JoinSide{Rel: "l", Sensor: sensornet.SensorLight},
		PairBy: PairSameRoom,
	})
	if err != nil {
		t.Fatal(err)
	}
	if room.Pairs() != 1 { // only node 1 shares room A
		t.Fatalf("same-room pairs = %d", room.Pairs())
	}

	prox, err := e.PlanJoin(&JoinQuery{
		Left:   JoinSide{Rel: "t", Sensor: sensornet.SensorTemperature},
		Right:  JoinSide{Rel: "l", Sensor: sensornet.SensorLight},
		PairBy: PairProximity, Radius: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prox.Pairs() != 1 {
		t.Fatalf("proximity pairs = %d", prox.Pairs())
	}
	wide, _ := e.PlanJoin(&JoinQuery{
		Left:   JoinSide{Rel: "t", Sensor: sensornet.SensorTemperature},
		Right:  JoinSide{Rel: "l", Sensor: sensornet.SensorLight},
		PairBy: PairProximity, Radius: 150,
	})
	if wide.Pairs() != 2 {
		t.Fatalf("wide proximity pairs = %d", wide.Pairs())
	}
}

func TestJoinNoBaseError(t *testing.T) {
	nw := sensornet.New(sensornet.DefaultConfig())
	nw.MustAddNode(sensornet.Node{ID: 0})
	e := NewEngine(nw, constEnv(nil))
	if _, err := e.PlanJoin(&JoinQuery{PairBy: PairSameDesk}); err == nil {
		t.Fatal("expected error without base station")
	}
	if _, err := e.EstimateSelect(&SelectQuery{}); err == nil {
		t.Fatal("estimate should fail without base")
	}
}

func TestJoinResidualPredicate(t *testing.T) {
	nw := deskGrid(2, 2)
	e := NewEngine(nw, constEnv(map[int]bool{0: true, 1: true, 2: true, 3: true}))
	q := &JoinQuery{
		Left:   JoinSide{Rel: "temp", Sensor: sensornet.SensorTemperature},
		Right:  JoinSide{Rel: "light", Sensor: sensornet.SensorLight},
		PairBy: PairSameDesk,
	}
	// residual: temperature above 21.5 only (nodes 2, 3)
	q.On = expr.MustBind(
		expr.Bin{Op: expr.OpGt, L: expr.C("temp.value"), R: expr.L(21.5)},
		q.Schema())
	st, err := e.PlanJoin(q)
	if err != nil {
		t.Fatal(err)
	}
	var got []data.Tuple
	e.RunJoinEpoch(st, 0, collect(&got))
	if len(got) != 2 {
		t.Fatalf("residual join = %d results: %v", len(got), got)
	}
}

// Property: on a loss-free network, the in-network join result equals a
// centralized nested-loop join over the same samples, across random
// occupancy patterns.
func TestJoinEquivalenceRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		dark := map[int]bool{}
		for id := 0; id < 16; id++ {
			if r.Intn(3) == 0 {
				dark[id] = true
			}
		}
		nw := deskGrid(4, 4)
		e := NewEngine(nw, constEnv(dark))
		st := occupancyJoin(t, e, PlaceOptimized)
		var got []data.Tuple
		e.RunJoinEpoch(st, 0, collect(&got))

		// reference: centralized evaluation
		want := 0
		for id := 0; id < 16; id++ {
			if dark[id] {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("trial %d: joined %d, want %d (dark=%v)", trial, len(got), want, dark)
		}
	}
}

func TestJoinLossDropsPairs(t *testing.T) {
	cfg := sensornet.DefaultConfig()
	cfg.LossRate = 0.6
	cfg.Seed = 3
	nw := sensornet.Grid(cfg, 3, 3, 100, 3,
		sensornet.SensorTemperature, sensornet.SensorLight)
	dark := map[int]bool{}
	for i := 0; i < 9; i++ {
		dark[i] = true
	}
	e := NewEngine(nw, constEnv(dark))
	st := occupancyJoin(t, e, PlaceAtBase)
	var got []data.Tuple
	for i := 0; i < 10; i++ {
		e.RunJoinEpoch(st, vtime.Time(i), collect(&got))
	}
	if len(got) >= 90 {
		t.Fatalf("no loss visible: %d of 90", len(got))
	}
	if nw.Metrics().Dropped == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestEstimateJoinMatchesReality(t *testing.T) {
	// With converged estimates, predicted messages should be within 2× of
	// actual on a deterministic workload.
	dark := map[int]bool{3: true}
	nw := deskGrid(3, 3)
	e := NewEngine(nw, constEnv(dark))
	st := occupancyJoin(t, e, PlaceOptimized)
	for epoch := 0; epoch < 30; epoch++ {
		e.RunJoinEpoch(st, vtime.Time(epoch)*vtime.Second, func(data.Tuple) {})
	}
	nw.ResetMetrics()
	e.RunJoinEpoch(st, 100*vtime.Second, func(data.Tuple) {})
	actual := float64(nw.Metrics().Sent)
	est, err := e.EstimateJoin(st)
	if err != nil {
		t.Fatal(err)
	}
	if est.MsgsPerEpoch < actual/2-1 || est.MsgsPerEpoch > actual*2+1 {
		t.Fatalf("estimate %v vs actual %v", est.MsgsPerEpoch, actual)
	}
}

func TestEstimateSelect(t *testing.T) {
	nw := sensornet.Line(sensornet.DefaultConfig(), 5, 100, sensornet.SensorTemperature)
	e := NewEngine(nw, constEnv(nil))
	sel, err := e.EstimateSelect(&SelectQuery{Rel: "t", Sensor: sensornet.SensorTemperature})
	if err != nil {
		t.Fatal(err)
	}
	if sel.MsgsPerEpoch != 10 { // hops 0+1+2+3+4, σ=1
		t.Fatalf("select estimate = %v", sel.MsgsPerEpoch)
	}
}

func TestCostEstimatePerSecond(t *testing.T) {
	c := CostEstimate{MsgsPerEpoch: 10, Period: 2 * 1e9}
	if c.PerSecond() != 5 {
		t.Fatalf("per-second = %v", c.PerSecond())
	}
	z := CostEstimate{MsgsPerEpoch: 7}
	if z.PerSecond() != 7 {
		t.Fatalf("zero-period per-second = %v", z.PerSecond())
	}
}

func TestPlacementString(t *testing.T) {
	for p, want := range map[Placement]string{
		PlaceOptimized: "optimized", PlaceAtLeft: "at-left",
		PlaceAtRight: "at-right", PlaceAtBase: "at-base",
	} {
		if p.String() != want {
			t.Errorf("%d = %q", p, p.String())
		}
	}
	q := &JoinQuery{Left: JoinSide{Rel: "a"}, Right: JoinSide{Rel: "b"}}
	if q.String() == "" {
		t.Error("query string empty")
	}
}
