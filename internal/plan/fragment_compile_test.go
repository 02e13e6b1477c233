package plan

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"aspen/internal/catalog"
	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// fragFeedCatalog registers LightFeed: a derived stream whose rows come
// from a sensor fragment, shaped like a reading (mote, room, desk, value).
func fragFeedCatalog() *catalog.Catalog {
	cat := catalog.New()
	cat.MustAddSource(&catalog.Source{Name: "LightFeed", Kind: catalog.KindSensorStream,
		Schema: sensor.ReadingSchema("LightFeed"), Rate: 10})
	return cat
}

// fragCompileEnv is a pure reading function: identical engines on the
// coordinator and every worker process sample identical values, so
// fragment-at-worker runs compare bit-exactly against central runs.
func fragCompileEnv(n sensornet.Node, kind sensornet.SensorKind, now vtime.Time) (float64, bool) {
	return float64(n.ID%5) + float64(int64(now)/int64(vtime.Second)%3), true
}

// newFragCompileHosts builds one 4x4 light grid host registry; callers on
// different "machines" build their own identical copy.
func newFragCompileHosts() *SensorHosts {
	nw := sensornet.Grid(sensornet.DefaultConfig(), 4, 4, 100, 4, sensornet.SensorLight)
	h := NewSensorHosts()
	h.Add("light", sensor.NewEngine(nw, sensor.EnvFunc(fragCompileEnv)))
	return h
}

// fragHost is a compile host for eng that hosts sensors and ticks every
// second, the cadence lightFeedFragment's epochs align with. Its scheduler
// drives the engine's ticks, so central fragment runners started on it fire
// after the windows advance, as on a core runtime.
func fragHost(eng *stream.Engine, sensors *SensorHosts) Host {
	sched := vtime.NewScheduler()
	sched.Every(time.Second, func() { eng.Advance(sched.Now()) })
	return Host{Engine: eng, Sensors: sensors, Tick: time.Second, Sched: sched}
}

// lightFeedFragment is the fragment producing LightFeed: a filtered light
// select whose epochs land every second.
func lightFeedFragment(t *testing.T) SensorFragment {
	t.Helper()
	pred, err := expr.Bind(
		expr.Bin{Op: expr.OpLt, L: expr.Col{Ref: "value"}, R: expr.Lit{V: data.Float(4)}},
		sensor.ReadingSchema("l"))
	if err != nil {
		t.Fatal(err)
	}
	return SensorFragment{Name: "LightFeed", Sources: []string{"light"},
		Select: &sensor.SelectQuery{Rel: "l", Sensor: sensornet.SensorLight,
			Pred: pred, Period: time.Second}}
}

const lightFeedQuery = `SELECT lf.room, count(*) AS n
	FROM LightFeed lf [RANGE 4 SECONDS] GROUP BY lf.room ORDER BY lf.room`

// runCentralEpochs drives the serial reference: at each tick the windows
// advance first, then the central epoch runner's batch lands — the same
// frame order a shard replica uses.
func runCentralEpochs(t *testing.T, eng *stream.Engine, h *SensorHosts, q *sensor.SelectQuery, upto vtime.Time) {
	t.Helper()
	in, ok := eng.Input("LightFeed")
	if !ok {
		t.Fatal("serial deployment did not register LightFeed")
	}
	se, ok := h.Engine("light")
	if !ok {
		t.Fatal("host registry lost the light engine")
	}
	for now := vtime.Time(vtime.Second); now <= upto; now += vtime.Time(vtime.Second) {
		eng.Advance(now)
		var batch []data.Tuple
		se.RunSelectEpoch(q, now, func(tu data.Tuple) { batch = append(batch, tu) })
		in.PushBatch(batch)
	}
}

// newFragSensorWorkers starts n loopback shard workers, each hosting its
// own identical light engine, and returns their affinity-annotated node
// entries.
func newFragSensorWorkers(t *testing.T, n int) []string {
	t.Helper()
	nodes := make([]string, n)
	for i := range nodes {
		w, err := NewSensorWorker("127.0.0.1:0", newFragCompileHosts())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		nodes[i] = w.Addr() + "=light"
	}
	return nodes
}

// TestCompileShardedRemoteFragmentDifferential compiles the LightFeed plan
// twice — serial with a central epoch runner, and sharded over two sensor
// workers with the fragment pushed into the replicas — and requires
// identical results. Exercises the whole in-package path: eligibility,
// wire encoding, worker-side runner builds, locality placement.
func TestCompileShardedRemoteFragmentDifferential(t *testing.T) {
	const upto = vtime.Time(8 * vtime.Second)
	frag := lightFeedFragment(t)

	sEng := stream.NewEngine("frag-serial", vtime.NewScheduler())
	serial, err := CompileStreamOpts(mustBuild(t, lightFeedQuery, fragFeedCatalog()), Host{Engine: sEng}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	runCentralEpochs(t, sEng, newFragCompileHosts(), frag.Select, upto)
	want, err := serial.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("serial reference is empty; the fragment workload is vacuous")
	}

	nodes := newFragSensorWorkers(t, 2)
	rEng := stream.NewEngine("frag-remote", vtime.NewScheduler())
	dep, err := CompileStreamOpts(mustBuild(t, lightFeedQuery, fragFeedCatalog()), fragHost(rEng, newFragCompileHosts()), CompileOptions{
		Topology:  Topology{Parallelism: 4, Nodes: nodes},
		Fragments: []SensorFragment{frag},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	if len(dep.RemoteFragments) != 1 || dep.RemoteFragments[0] != "LightFeed" {
		t.Fatalf("RemoteFragments = %v, want [LightFeed]", dep.RemoteFragments)
	}
	addrs, affinity, err := ParseNodes(nodes)
	if err != nil {
		t.Fatal(err)
	}
	affine := map[string]bool{}
	for _, a := range addrs {
		for _, src := range affinity[a] {
			if src == "light" {
				affine[a] = true
			}
		}
	}
	for shard, addr := range dep.Placement() {
		if !affine[addr] {
			t.Fatalf("shard %d placed on %q, which does not host light", shard, addr)
		}
	}

	for now := vtime.Time(vtime.Second); now <= upto; now += vtime.Time(vtime.Second) {
		rEng.Advance(now)
	}
	got, err := dep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("remote fragment rows %v, want %v", got, want)
	}
	for i := range want {
		if !want[i].EqualVals(got[i]) {
			t.Fatalf("row %d: remote %v, want %v", i, got[i], want[i])
		}
	}
}

// TestCompileShardedFragmentStaysCentral covers where a fragment runs when
// it cannot go remote. With workers that declare no affinity for its source
// it runs centrally, feeding its scan's Sharder, and matches the serial
// reference. A coordinator that does not host the source cannot run it at
// all: the compile fails and names the source.
func TestCompileShardedFragmentStaysCentral(t *testing.T) {
	const upto = vtime.Time(8 * vtime.Second)
	frag := lightFeedFragment(t)
	sEng := stream.NewEngine("frag-central-serial", vtime.NewScheduler())
	serial, err := CompileStreamOpts(mustBuild(t, lightFeedQuery, fragFeedCatalog()), Host{Engine: sEng}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	runCentralEpochs(t, sEng, newFragCompileHosts(), frag.Select, upto)
	want := snapshotSorted(t, serial)

	cases := []struct {
		name     string
		annotate bool
		hosts    *SensorHosts
	}{
		{"no-worker-affinity", false, newFragCompileHosts()},
		{"no-coordinator-hosts", true, nil},
		{"coordinator-missing-source", true, NewSensorHosts()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, err := NewSensorWorker("127.0.0.1:0", newFragCompileHosts())
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			node := w.Addr()
			if c.annotate {
				node += "=light"
			}
			eng := stream.NewEngine("frag-central-"+c.name, vtime.NewScheduler())
			host := fragHost(eng, c.hosts)
			dep, err := CompileStreamOpts(mustBuild(t, lightFeedQuery, fragFeedCatalog()), host, CompileOptions{
				Topology:  Topology{Parallelism: 2, Nodes: []string{node}},
				Fragments: []SensorFragment{frag},
			})
			if _, hosted := c.hosts.Engine("light"); !hosted {
				if err == nil || !strings.Contains(err.Error(), `"light"`) {
					t.Fatalf("compile error = %v, want one naming the unhosted source light", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer dep.Close()
			if len(dep.RemoteFragments) != 0 {
				t.Fatalf("fragment must stay central, got RemoteFragments = %v", dep.RemoteFragments)
			}
			if _, ok := eng.Input("LightFeed"); ok {
				t.Fatal("a fragment-fed scan registered its derived name as an engine input")
			}
			host.Sched.RunUntil(upto)
			requireEqualRows(t, "central fragment into the Sharder", snapshotSorted(t, dep), want)
		})
	}
}

// TestCompileFragmentErrors covers the fragments a compile refuses: one that
// feeds no scan of the plan, and a central one on a Host without a
// scheduler to fire it.
func TestCompileFragmentErrors(t *testing.T) {
	frag := lightFeedFragment(t)
	stray := frag
	stray.Name = "NoSuchFeed"
	cases := []struct {
		name string
		host func(*stream.Engine) Host
		frag SensorFragment
		want string
	}{
		{"feeds-no-scan", func(eng *stream.Engine) Host { return fragHost(eng, newFragCompileHosts()) }, stray, "feeds no scan"},
		{"no-scheduler", func(eng *stream.Engine) Host { return Host{Engine: eng, Sensors: newFragCompileHosts()} }, frag, "no scheduler"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := stream.NewEngine("frag-err-"+c.name, vtime.NewScheduler())
			_, err := CompileStreamOpts(mustBuild(t, lightFeedQuery, fragFeedCatalog()), c.host(eng),
				CompileOptions{Fragments: []SensorFragment{c.frag}})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("compile error = %v, want one saying %q", err, c.want)
			}
			if n := eng.Advancers(); n != 0 {
				t.Fatalf("a refused compile left %d advancers tracked", n)
			}
		})
	}
}

// TestFragmentJoinRunnerPartitionsUnion partitions a same-desk
// temperature⋈light join fragment across shards and checks the union is
// exactly the central epoch; then round-trips the join runner's
// checkpoint, which carries adaptive placement stats.
func TestFragmentJoinRunnerPartitionsUnion(t *testing.T) {
	h := newFragTestHosts()
	f := &SensorFragment{Name: "d", Sources: []string{"temperature", "light"},
		Join: &sensor.JoinQuery{
			Left:   sensor.JoinSide{Rel: "t", Sensor: sensornet.SensorTemperature},
			Right:  sensor.JoinSide{Rel: "l", Sensor: sensornet.SensorLight},
			PairBy: sensor.PairSameDesk, Period: time.Second,
		}}
	const p = 3
	w, err := encodeFragment(f, "s0", []int{1}, p, vtime.Time(vtime.Second))
	if err != nil {
		t.Fatal(err)
	}

	var union []data.Tuple
	var last *fragRunner
	for shard := 0; shard < p; shard++ {
		sink := &collectOp{schema: f.Join.Schema()}
		rs, err := h.buildFragRunners([]wireFragment{w}, shard, map[string]stream.Operator{"s0": sink})
		if err != nil {
			t.Fatal(err)
		}
		rs[0].Advance(vtime.Time(vtime.Second))
		union = append(union, sink.got...)
		last = rs[0]
	}

	eng, _ := h.Engine("light")
	st, err := eng.PlanJoin(f.Join)
	if err != nil {
		t.Fatal(err)
	}
	var central []data.Tuple
	eng.RunJoinEpoch(st, vtime.Time(vtime.Second), func(tu data.Tuple) { central = append(central, tu.Clone()) })
	if len(central) == 0 {
		t.Fatal("central join epoch is empty; the probe is vacuous")
	}
	if len(union) != len(central) {
		t.Fatalf("partition union has %d pairs, central %d", len(union), len(central))
	}
	seen := map[string]int{}
	for _, tu := range union {
		seen[fmt.Sprint(tu.Vals[0].AsInt(), "/", tu.Vals[4].AsInt())]++
	}
	for _, tu := range central {
		k := fmt.Sprint(tu.Vals[0].AsInt(), "/", tu.Vals[4].AsInt())
		if seen[k] != 1 {
			t.Fatalf("pair %s appears %d times across partitions", k, seen[k])
		}
	}

	// The join runner's checkpoint rides placement stats; a fresh runner
	// must accept it and resume at the anchor.
	ck := last.CheckpointState()
	sink := &collectOp{schema: f.Join.Schema()}
	rs, err := h.buildFragRunners([]wireFragment{w}, p-1, map[string]stream.Operator{"s0": sink})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs[0].RestoreState(ck); err != nil {
		t.Fatal(err)
	}
	if rs[0].next != vtime.Time(2*vtime.Second) {
		t.Fatalf("restored anchor = %v, want 2s", rs[0].next)
	}
	if err := rs[0].RestoreState(stream.OpState{}); err == nil {
		t.Fatal("restoring a non-opaque state must fail")
	}
	if err := rs[0].RestoreState(stream.NewOpaqueState(nil)); err != nil {
		t.Fatalf("an empty opaque payload is a fresh runner, not an error: %v", err)
	}
}

// TestFragmentPeriodDefaults covers the effective-period rule per kind.
func TestFragmentPeriodDefaults(t *testing.T) {
	if got := (&SensorFragment{Select: &sensor.SelectQuery{}}).period(); got != time.Second {
		t.Fatalf("zero select period = %v, want the 1s default", got)
	}
	if got := (&SensorFragment{Join: &sensor.JoinQuery{Period: 2 * time.Second}}).period(); got != 2*time.Second {
		t.Fatalf("join period = %v", got)
	}
}

// TestSensorHostsResolutionErrors covers the registry's failure surface:
// missing sources, fragments spanning engines, bad wire predicates,
// unknown scans and kinds.
func TestSensorHostsResolutionErrors(t *testing.T) {
	if _, ok := (*SensorHosts)(nil).Engine("light"); ok {
		t.Fatal("nil registry must host nothing")
	}

	if _, err := encodeFragment(&SensorFragment{Name: "empty"}, "s0", nil, 1, 0); err == nil {
		t.Fatal("a fragment with no query must not encode")
	}

	mkEngine := func() *sensor.Engine {
		nw := sensornet.Line(sensornet.DefaultConfig(), 4, 50,
			sensornet.SensorTemperature, sensornet.SensorLight)
		return sensor.NewEngine(nw, sensor.EnvFunc(fragCompileEnv))
	}
	split := NewSensorHosts()
	split.Add("temperature", mkEngine())
	split.Add("light", mkEngine())
	if got := len(split.m); got != 2 {
		t.Fatalf("the registry holds %d sources, want 2", got)
	}
	sink := &collectOp{schema: sensor.ReadingSchema("l")}
	heads := map[string]stream.Operator{"s0": sink}

	selWire := func(mut func(*wireFragment)) wireFragment {
		w := wireFragment{Scan: "s0", P: 1, Query: snapFragment{Kind: fragSelect, Sources: []string{"light"},
			Rel: "l", Sensor: sensornet.SensorLight, Period: time.Second}}
		mut(&w)
		return w
	}
	cases := []struct {
		name string
		w    wireFragment
	}{
		{"missing-source", selWire(func(w *wireFragment) { w.Query.Sources = []string{"pdu"} })},
		{"no-sources", selWire(func(w *wireFragment) { w.Query.Sources = nil })},
		{"spanning-engines", wireFragment{Scan: "s0", P: 1, Query: snapFragment{Kind: fragJoin,
			Sources: []string{"temperature", "light"}, Rel: "t", RRel: "l",
			Sensor: sensornet.SensorTemperature, RSensor: sensornet.SensorLight,
			PairBy: sensor.PairSameDesk, Period: time.Second}}},
		{"unknown-kind", selWire(func(w *wireFragment) { w.Query.Kind = fragKind(9) })},
		{"bad-select-pred", selWire(func(w *wireFragment) { w.Query.Pred = expr.Col{Ref: "nosuch"} })},
		{"unknown-scan", selWire(func(w *wireFragment) { w.Scan = "s9" })},
		{"zero-shards", selWire(func(w *wireFragment) { w.P = 0 })},
		{"value-key", selWire(func(w *wireFragment) { w.KeyIdx = []int{3} })},
		{"key-off-row", selWire(func(w *wireFragment) { w.KeyIdx = []int{9} })},
		{"arity-mismatch", selWire(func(w *wireFragment) { // a self-join's 8 columns into a reading's 4
			w.Query.Kind, w.Query.RRel, w.Query.RSensor, w.Query.PairBy = fragJoin, "r", sensornet.SensorLight, sensor.PairSameDesk
		})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := split.buildFragRunners([]wireFragment{c.w}, 0, heads); err == nil {
				t.Fatal("build must fail")
			}
		})
	}

	one := NewSensorHosts()
	one.Add("temperature", mkEngine())
	one.Add("light", one.m["temperature"])
	// Kind 2 named an in-network aggregate fragment, which no longer
	// exists: a worker handed a spec carrying one deploys nothing.
	kind2, hosts := fuzzReplicaSpec(t, func(w *wireFragment) { w.Query.Kind = fragKind(2) })
	got, advs, cks, err := hosts.DeployReplica(kind2, 0, nil, func([]data.Tuple) error { return nil })
	if err == nil || got != nil || advs != nil || cks != nil {
		t.Fatalf("a spec with a kind-2 fragment deployed (err %v, %d heads)", err, len(got))
	}
	joinBadRight := wireFragment{Scan: "s0", P: 1, Query: snapFragment{Kind: fragJoin,
		Sources: []string{"temperature", "light"}, Rel: "t", RRel: "l",
		Sensor: sensornet.SensorTemperature, RSensor: sensornet.SensorLight,
		RPred: expr.Col{Ref: "nosuch"}, PairBy: sensor.PairSameDesk, Period: time.Second}}
	if _, err := one.buildFragRunners([]wireFragment{joinBadRight}, 0, heads); err == nil {
		t.Fatal("join with an unbindable right predicate must fail")
	}
}
