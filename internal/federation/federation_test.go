package federation

import (
	"strings"
	"testing"

	"aspen/internal/catalog"
	"aspen/internal/data"
	"aspen/internal/plan"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// fixture builds a desk grid (temp+light on every desk), a catalog with
// the raw sensor sources and a Machines table, and a federator.
func fixture(t *testing.T, rows, cols int) (*Federator, *sensor.Engine, *sensornet.Network) {
	t.Helper()
	nw := sensornet.Grid(sensornet.DefaultConfig(), rows, cols, 100, cols,
		sensornet.SensorTemperature, sensornet.SensorLight)
	env := sensor.EnvFunc(func(n sensornet.Node, kind sensornet.SensorKind, now vtime.Time) (float64, bool) {
		switch kind {
		case sensornet.SensorTemperature:
			return 20 + float64(n.ID), true
		case sensornet.SensorLight:
			if n.ID == 3 {
				return 5, true // one occupied desk
			}
			return 80, true
		}
		return 0, false
	})
	eng := sensor.NewEngine(nw, env)

	cat := catalog.New()
	stats := cat.Stats()
	stats.NetworkDiameter = nw.Diameter()
	cat.SetStats(stats)
	for _, name := range []string{"Temperature", "Light"} {
		s := sensor.ReadingSchema(name)
		cat.MustAddSource(&catalog.Source{Name: name, Kind: catalog.KindSensorStream,
			Schema: s, Rate: float64(rows * cols)})
	}
	mach := data.NewSchema("Machines",
		data.Col("room", data.TString), data.Col("desk", data.TInt), data.Col("software", data.TString))
	machRel := data.NewRelation(mach)
	machRel.MustInsert(data.Str("L1"), data.Int(1), data.Str("%fedora%"))
	cat.MustAddSource(&catalog.Source{Name: "Machines", Kind: catalog.KindTable,
		Schema: mach, Table: machRel})

	fed := &Federator{
		Cat: cat,
		Sensors: &Binding{
			Kinds: map[string]sensornet.SensorKind{
				"temperature": sensornet.SensorTemperature,
				"light":       sensornet.SensorLight,
			},
			Engine: eng,
		},
	}
	return fed, eng, nw
}

const occupancyQuery = `SELECT t.room, t.desk, t.value FROM Temperature t, Light l
WHERE t.room = l.room AND t.desk = l.desk AND l.value < 10`

func TestOptimizeEnumeratesPartitions(t *testing.T) {
	fed, _, _ := fixture(t, 4, 4)
	stmt, err := sql.ParseSelect(occupancyQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Optimize(stmt)
	if err != nil {
		t.Fatal(err)
	}
	// subsets: {}, {t}, {l}, {t,l} — all feasible here
	if len(res.Alternatives) != 4 {
		t.Fatalf("alternatives = %d: %v", len(res.Alternatives), res.Rejected)
	}
	if res.Chosen == nil {
		t.Fatal("no chosen plan")
	}
	// alternatives sorted by unified cost
	for i := 1; i < len(res.Alternatives); i++ {
		if res.Alternatives[i-1].Unified > res.Alternatives[i].Unified {
			t.Fatal("alternatives not sorted")
		}
	}
	// the winner should be the in-network join: the light predicate is
	// pushed next to the chair, so almost nothing crosses the radio
	var joinAlt, allStream *Alternative
	for _, a := range res.Alternatives {
		if len(a.Fragments) == 1 && a.Fragments[0].Kind == FragJoin {
			joinAlt = a
		}
		if strings.HasPrefix(a.Desc, "all-stream") {
			allStream = a
		}
	}
	if joinAlt == nil || allStream == nil {
		t.Fatalf("missing expected alternatives: %+v", res.Alternatives)
	}
	if joinAlt.Unified >= allStream.Unified {
		t.Fatalf("in-network join (%.4f) should beat all-stream (%.4f)",
			joinAlt.Unified, allStream.Unified)
	}
	if res.Chosen != joinAlt {
		t.Fatalf("chosen = %s, want in-network join", res.Chosen.Desc)
	}
	if joinAlt.Fragments[0].Join.PairBy != sensor.PairSameDesk {
		t.Fatalf("pairing = %v", joinAlt.Fragments[0].Join.PairBy)
	}
}

func TestOptimizeAllStreamIncludesAcquisitionCost(t *testing.T) {
	fed, _, _ := fixture(t, 4, 4)
	stmt, _ := sql.ParseSelect(occupancyQuery)
	res, err := fed.Optimize(stmt)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Alternatives {
		if strings.HasPrefix(a.Desc, "all-stream") {
			if a.MsgsPerSec <= 0 {
				t.Fatal("all-stream alternative must still pay radio acquisition")
			}
			if len(a.Fragments) != 2 {
				t.Fatalf("all-stream fragments = %d", len(a.Fragments))
			}
			for _, fr := range a.Fragments {
				if fr.Kind != FragShipAll {
					t.Fatalf("fragment kind = %v", fr.Kind)
				}
			}
		}
	}
}

func TestOptimizeJoinWithTableStaysOnStreamEngine(t *testing.T) {
	fed, _, _ := fixture(t, 3, 3)
	stmt, err := sql.ParseSelect(`SELECT t.room, m.software FROM Temperature t, Machines m
		WHERE t.room = m.room AND t.value > 30`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Optimize(stmt)
	if err != nil {
		t.Fatal(err)
	}
	// Machines is a table: subsets are {} and {t} only.
	if len(res.Alternatives) != 2 {
		t.Fatalf("alternatives = %d", len(res.Alternatives))
	}
	// pushing the selective temperature filter should win
	ch := res.Chosen
	if len(ch.Fragments) != 1 || ch.Fragments[0].Kind != FragSelect {
		t.Fatalf("chosen = %s", ch.Desc)
	}
	if ch.Fragments[0].Select.Pred == nil {
		t.Fatal("local predicate not pushed into fragment")
	}
	// the rewritten stream statement must not re-filter t.value
	if strings.Contains(ch.StreamStmt.String(), "t.value") {
		t.Fatalf("pushed predicate left in stream plan: %s", ch.StreamStmt)
	}
	// the table join survives on the stream side
	if !strings.Contains(ch.StreamPlan.Root.String(), "Machines") {
		t.Fatalf("stream plan = %s", ch.StreamPlan.Root)
	}
}

func TestOptimizeRejectsNonLocalJoin(t *testing.T) {
	fed, _, _ := fixture(t, 3, 3)
	// join on value (not a locality key): the pushed-join partition must be
	// rejected, but select pushdowns still work
	stmt, err := sql.ParseSelect(`SELECT t.room FROM Temperature t, Light l WHERE t.value = l.value`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fed.Optimize(stmt)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Alternatives {
		for _, fr := range a.Fragments {
			if fr.Kind == FragJoin {
				t.Fatalf("non-local join was pushed: %s", a.Desc)
			}
		}
	}
	if len(res.Rejected) == 0 {
		t.Fatal("expected a rejected partition")
	}
}

func TestOptimizeWithoutSensorEngine(t *testing.T) {
	fed, _, _ := fixture(t, 2, 2)
	fed.Sensors = nil
	stmt, _ := sql.ParseSelect(occupancyQuery)
	res, err := fed.Optimize(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Alternatives) != 1 || res.Chosen.MsgsPerSec != 0 {
		t.Fatalf("no-sensor federation = %+v", res.Chosen)
	}
}

func TestOptimizeUnknownSource(t *testing.T) {
	fed, _, _ := fixture(t, 2, 2)
	stmt, _ := sql.ParseSelect(`SELECT x.a FROM NoSuch x`)
	if _, err := fed.Optimize(stmt); err == nil {
		t.Fatal("unknown source accepted")
	}
}

// The chosen partition must execute end to end: run the sensor fragment on
// the sensor engine, feed its output into the stream engine, and check the
// combined result matches the semantics of the original query.
func TestFederatedExecutionEndToEnd(t *testing.T) {
	fed, sEng, _ := fixture(t, 3, 3)
	stmt, _ := sql.ParseSelect(occupancyQuery)
	res, err := fed.Optimize(stmt)
	if err != nil {
		t.Fatal(err)
	}
	ch := res.Chosen
	if ch.Fragments[0].Kind != FragJoin {
		t.Fatalf("expected join push, got %s", ch.Desc)
	}

	eng := stream.NewEngine("pc1", vtime.NewScheduler())
	dep, err := plan.CompileStreamOpts(ch.StreamPlan, plan.Host{Engine: eng}, plan.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Wire the fragment: sensor join results flow into the derived input.
	frag := ch.Fragments[0]
	in, ok := eng.Input(frag.DerivedName)
	if !ok {
		t.Fatalf("derived input %s not registered by plan", frag.DerivedName)
	}
	st, err := sEng.PlanJoin(frag.Join)
	if err != nil {
		t.Fatal(err)
	}
	sEng.RunJoinEpoch(st, vtime.Second, func(tu data.Tuple) { in.Push(tu) })

	rows, err := dep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	// desk mote 3 is the occupied one; its temperature is 23
	if rows[0].Vals[2].AsFloat() != 23 {
		t.Fatalf("row = %v", rows[0])
	}
}

func TestFragmentKindString(t *testing.T) {
	for k, want := range map[FragmentKind]string{
		FragShipAll: "ship-all", FragSelect: "in-network-select",
		FragJoin: "in-network-join",
	} {
		if k.String() != want {
			t.Errorf("%d = %q", k, k.String())
		}
	}
	if FragmentKind(9).String() != "frag?" {
		t.Error("unknown kind")
	}
}
