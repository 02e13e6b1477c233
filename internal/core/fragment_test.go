package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/plan"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// fieldEnv is a pure function of (node, sensor, instant): every engine
// built over the same grid sees identical readings, so the coordinator's
// central engine and the shard workers' engines stay bit-equal — the
// property the serial-vs-remote differentials rely on.
func fieldEnv(n sensornet.Node, kind sensornet.SensorKind, now vtime.Time) (float64, bool) {
	switch kind {
	case sensornet.SensorTemperature:
		return 20 + float64(n.ID) + float64(int64(now)/int64(vtime.Second)%7), true
	case sensornet.SensorLight:
		if n.ID%5 == 4 { // every fifth desk is occupied (dark chair sensor)
			return 3, true
		}
		return 70, true
	}
	return 0, false
}

// newFieldEngine builds one deterministic 4x4 desk-grid sensor engine;
// every call returns an identically-behaving engine.
func newFieldEngine() *sensor.Engine {
	nw := sensornet.Grid(sensornet.DefaultConfig(), 4, 4, 100, 4,
		sensornet.SensorTemperature, sensornet.SensorLight)
	return sensor.NewEngine(nw, sensor.EnvFunc(fieldEnv))
}

// newFragmentRuntime assembles a sensor-backed runtime with the given
// parallelism and (annotated) worker topology.
func newFragmentRuntime(t *testing.T, par int, failover bool, nodes ...string) (*Runtime, *vtime.Scheduler) {
	t.Helper()
	topo := plan.Topology{Parallelism: par, Nodes: nodes}
	if failover {
		topo.Failover, topo.CheckpointEvery = true, 2
	}
	return newFragmentRuntimeCfg(t, Config{Topology: topo})
}

// failoverTopology is p shards over nodes with checkpointed failover armed
// every second tick.
func failoverTopology(p int, nodes []string) plan.Topology {
	return plan.Topology{Parallelism: p, Nodes: nodes,
		Recovery: stream.Recovery{Failover: true, CheckpointEvery: 2}}
}

// newFragmentRuntimeCfg is newFragmentRuntime with the full Config surface
// (snapshot path, tick period); Scheduler and SensorEngine are filled in.
func newFragmentRuntimeCfg(t *testing.T, cfg Config) (*Runtime, *vtime.Scheduler) {
	t.Helper()
	sched := vtime.NewScheduler()
	cfg.Scheduler = sched
	cfg.SensorEngine = newFieldEngine()
	rt := New(cfg)
	t.Cleanup(rt.Close)
	if err := rt.RegisterSensorStream("Temperature", sensornet.SensorTemperature, 16); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterSensorStream("Light", sensornet.SensorLight, 16); err != nil {
		t.Fatal(err)
	}
	return rt, sched
}

// newSensorWorkers starts n loopback shard workers, each hosting its own
// deterministic copy of the sensor field under the given source names, and
// returns their affinity-annotated node entries.
func newSensorWorkers(t *testing.T, n int, sources ...string) ([]*stream.ShardWorker, []string) {
	t.Helper()
	var workers []*stream.ShardWorker
	var nodes []string
	for i := 0; i < n; i++ {
		hosts := plan.NewSensorHosts()
		eng := newFieldEngine()
		affinity := ""
		for _, src := range sources {
			hosts.Add(src, eng)
			if affinity != "" {
				affinity += ","
			}
			affinity += src
		}
		w, err := plan.NewSensorWorker("127.0.0.1:0", hosts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers = append(workers, w)
		nodes = append(nodes, w.Addr()+"="+affinity)
	}
	return workers, nodes
}

// runFragmentDifferential deploys src serially and over two sensor-hosting
// loopback workers, runs both for the same virtual time, and requires the
// distributed deployment to (a) have pushed at least one sensor fragment
// into the shard replicas and (b) produce the serial result exactly.
func runFragmentDifferential(t *testing.T, src string, sources ...string) {
	t.Helper()
	srt, ssched := newFragmentRuntime(t, 0, false)
	sq, err := srt.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	ssched.RunUntil(8 * vtime.Second)
	want, err := sq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("serial reference is empty")
	}

	_, nodes := newSensorWorkers(t, 2, sources...)
	prt, psched := newFragmentRuntime(t, 4, false, nodes...)
	pq, err := prt.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if pq.Deployment.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", pq.Deployment.Shards)
	}
	if len(pq.Deployment.RemoteFragments) == 0 {
		t.Fatalf("no sensor fragments were pushed into the shard replicas (fragments: %v)",
			pq.Partition.Chosen.Desc)
	}
	psched.RunUntil(8 * vtime.Second)
	got, err := pq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pq.Stop()
	if len(got) != len(want) {
		t.Fatalf("distributed rows %v, want %v", got, want)
	}
	for i := range want {
		if !want[i].EqualVals(got[i]) {
			t.Fatalf("row %d: distributed %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRemoteSensorFragmentSelectMatchesSerial pushes an in-network select
// fragment into shard replicas hosted by two loopback sensor workers and
// checks the grouped windowed rollup over it against serial execution.
func TestRemoteSensorFragmentSelectMatchesSerial(t *testing.T) {
	runFragmentDifferential(t,
		`SELECT l.room, count(*) AS n FROM Light l [RANGE 4 SECONDS]
		 WHERE l.value < 10 GROUP BY l.room ORDER BY l.room`,
		"light")
}

// TestRemoteSensorFragmentAggregateMatchesSerial does the same for a
// per-room aggregate over temperature readings.
func TestRemoteSensorFragmentAggregateMatchesSerial(t *testing.T) {
	runFragmentDifferential(t,
		`SELECT r.room, count(*) AS n, avg(r.value) AS v
		 FROM Temperature r [RANGE 4 SECONDS] GROUP BY r.room ORDER BY r.room`,
		"temperature")
}

// TestRemoteSensorFragmentJoinMatchesSerial does the same for the SmartCIS
// occupancy join (temperature ⋈ light at the occupied desks).
func TestRemoteSensorFragmentJoinMatchesSerial(t *testing.T) {
	runFragmentDifferential(t,
		`SELECT t.room, count(*) AS n, avg(t.value) AS v
		 FROM Temperature t, Light l [RANGE 4 SECONDS]
		 WHERE t.room = l.room AND t.desk = l.desk AND l.value < 10
		 GROUP BY t.room ORDER BY t.room`,
		"temperature", "light")
}

// TestRemoteSensorFragmentSurvivesWorkerKill runs the select differential
// with failover armed and kills one of the two sensor workers mid-run: the
// dead worker's shards — fragment runners included — must redeploy from
// their checkpoints, regenerate the missed epochs, and still match serial.
func TestRemoteSensorFragmentSurvivesWorkerKill(t *testing.T) {
	const src = `SELECT l.room, count(*) AS n FROM Light l [RANGE 4 SECONDS]
		 WHERE l.value < 10 GROUP BY l.room ORDER BY l.room`

	srt, ssched := newFragmentRuntime(t, 0, false)
	sq, err := srt.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	ssched.RunUntil(9 * vtime.Second)
	want, err := sq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("serial reference is empty")
	}

	workers, nodes := newSensorWorkers(t, 2, "light")
	prt, psched := newFragmentRuntime(t, 4, true, nodes...)
	pq, err := prt.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(pq.Deployment.RemoteFragments) == 0 {
		t.Fatal("no sensor fragments were pushed into the shard replicas")
	}
	psched.RunUntil(4 * vtime.Second)
	workers[1].Close()
	psched.RunUntil(9 * vtime.Second)
	got, err := pq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Failover-armed: the dead worker's shards were redeployed elsewhere.
	if loc := pq.Deployment.Placement(); slices.Contains(loc, workers[1].Addr()) {
		t.Fatalf("placement %v still names the killed worker %s", loc, workers[1].Addr())
	}
	pq.Stop()
	if len(got) != len(want) {
		t.Fatalf("post-kill rows %v, want %v", got, want)
	}
	for i := range want {
		if !want[i].EqualVals(got[i]) {
			t.Fatalf("row %d: post-kill %v, want %v", i, got[i], want[i])
		}
	}
}

// TestRemoteSensorFragmentRescaleKeepsLocality rescales a fragment-carrying
// deployment onto a third sensor worker joining the pool and checks results
// keep matching serial afterwards — and that shards never land on a worker
// without the source.
func TestRemoteSensorFragmentRescaleKeepsLocality(t *testing.T) {
	const src = `SELECT l.room, count(*) AS n FROM Light l [RANGE 4 SECONDS]
		 WHERE l.value < 10 GROUP BY l.room ORDER BY l.room`

	srt, ssched := newFragmentRuntime(t, 0, false)
	sq, err := srt.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	ssched.RunUntil(9 * vtime.Second)
	want, err := sq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	_, nodes := newSensorWorkers(t, 2, "light")
	prt, psched := newFragmentRuntime(t, 4, false, nodes...)
	pq, err := prt.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(pq.Deployment.RemoteFragments) == 0 {
		t.Fatal("no sensor fragments were pushed into the shard replicas")
	}
	psched.RunUntil(4 * vtime.Second)

	_, more := newSensorWorkers(t, 1, "light")
	grown := append(append([]string{}, nodes...), more...)
	if err := prt.coord.Rescale(pq.Name(), grown); err != nil {
		t.Fatal(err)
	}
	addrs, affinity, err := plan.ParseNodes(grown)
	if err != nil {
		t.Fatal(err)
	}
	hosted := map[string]bool{}
	for _, a := range addrs {
		for _, s := range affinity[a] {
			if s == "light" {
				hosted[a] = true
			}
		}
	}
	for j, a := range pq.Deployment.Placement() {
		if a != "" && !hosted[a] {
			t.Fatalf("shard %d rescaled onto %s, which does not host light", j, a)
		}
	}
	psched.RunUntil(9 * vtime.Second)
	got, err := pq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pq.Stop()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-rescale rows %v, want %v", got, want)
	}
}

// newSensorWorkersAt restarts sensor workers bound to explicit addresses —
// the "same machines came back" half of a coordinator-restart scenario.
func newSensorWorkersAt(t *testing.T, addrs []string, sources ...string) []*stream.ShardWorker {
	t.Helper()
	var workers []*stream.ShardWorker
	for _, addr := range addrs {
		hosts := plan.NewSensorHosts()
		eng := newFieldEngine()
		for _, src := range sources {
			hosts.Add(src, eng)
		}
		w, err := plan.NewSensorWorker(addr, hosts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers = append(workers, w)
	}
	return workers
}

const fragRestartSrc = `SELECT l.room, count(*) AS n FROM Light l [RANGE 4 SECONDS]
	 WHERE l.value < 10 GROUP BY l.room ORDER BY l.room`

// fragRestartReference runs fragRestartSrc serially and uninterrupted to
// the final instant; every restart differential must land exactly here.
func fragRestartReference(t *testing.T) []data.Tuple {
	t.Helper()
	srt, ssched := newFragmentRuntime(t, 0, false)
	sq, err := srt.Run(fragRestartSrc)
	if err != nil {
		t.Fatal(err)
	}
	ssched.RunUntil(8 * vtime.Second)
	want, err := sq.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("serial reference is empty")
	}
	return want
}

// fragRestartSnapshot runs fragRestartSrc sharded over two sensor workers,
// saves a coordinator snapshot at the 4s mark, and simulates the crash:
// coordinator, deployments, and workers all die. It returns the worker
// node entries the snapshot recorded.
func fragRestartSnapshot(t *testing.T, path string) []string {
	t.Helper()
	workers, nodes := newSensorWorkers(t, 2, "light")
	rt, sched := newFragmentRuntimeCfg(t, Config{
		Topology:     failoverTopology(4, nodes),
		SnapshotPath: path,
	})
	q, err := rt.Run(fragRestartSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Deployment.RemoteFragments) == 0 {
		t.Fatal("no sensor fragments were pushed into the shard replicas")
	}
	sched.RunUntil(4 * vtime.Second)
	skipped, err := rt.SaveSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("snapshot skipped %v; a fragment deployment must be captured", skipped)
	}
	// The restart: nothing of the first process survives but the file.
	rt.coord.Close()
	rt.Close()
	for _, w := range workers {
		w.Close()
	}
	return nodes
}

func requireFragRows(t *testing.T, ctx string, got, want []data.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s rows %v, want %v", ctx, got, want)
	}
	for i := range want {
		if !want[i].EqualVals(got[i]) {
			t.Fatalf("%s row %d: %v, want %v", ctx, i, got[i], want[i])
		}
	}
}

// TestFragmentSnapshotRestartSameWorkers is the fragment restart
// differential, tier 1: the coordinator restarts, the sensor workers come
// back at their snapshotted addresses, and the restored deployment —
// remote fragments redeployed with their checkpointed epoch anchors —
// finishes the run exactly where an uninterrupted one would.
func TestFragmentSnapshotRestartSameWorkers(t *testing.T) {
	want := fragRestartReference(t)
	path := filepath.Join(t.TempDir(), "coord.snap")
	nodes := fragRestartSnapshot(t, path)

	addrs, _, err := plan.ParseNodes(nodes)
	if err != nil {
		t.Fatal(err)
	}
	newSensorWorkersAt(t, addrs, "light")
	rt, sched := newFragmentRuntimeCfg(t, Config{
		Topology:     failoverTopology(4, nodes),
		SnapshotPath: path,
	})
	qs, skipped, err := rt.RestoreSnapshot()
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if len(skipped) != 0 {
		t.Fatalf("restore surfaced skips %v, want none", skipped)
	}
	if len(qs) != 1 {
		t.Fatalf("restored %d queries, want 1", len(qs))
	}
	q := qs[0]
	if len(q.Deployment.RemoteFragments) == 0 {
		t.Fatal("restored deployment lost its remote fragments")
	}
	onWorker := false
	for _, loc := range q.Deployment.Placement() {
		onWorker = onWorker || loc != ""
	}
	if !onWorker {
		t.Fatalf("no shard returned to a worker (placement %v)", q.Deployment.Placement())
	}
	sched.RunUntil(8 * vtime.Second)
	got, err := q.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	requireFragRows(t, "restart-same-workers", got, want)
}

// TestFragmentSnapshotRestartWorkersGone, tier 2: the snapshotted workers
// never come back, so the restored deployment degrades to all-in-process
// shards — with the fragments still pinned and resumed from their exact
// checkpointed state against the sources this process hosts.
func TestFragmentSnapshotRestartWorkersGone(t *testing.T) {
	want := fragRestartReference(t)
	path := filepath.Join(t.TempDir(), "coord.snap")
	fragRestartSnapshot(t, path)

	rt, sched := newFragmentRuntimeCfg(t, Config{
		Topology: plan.Topology{Parallelism: 4}, SnapshotPath: path,
	})
	qs, skipped, err := rt.RestoreSnapshot()
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if len(skipped) != 0 {
		t.Fatalf("restore surfaced skips %v, want none", skipped)
	}
	if len(qs) != 1 {
		t.Fatalf("restored %d queries, want 1", len(qs))
	}
	q := qs[0]
	for j, loc := range q.Deployment.Placement() {
		if loc != "" {
			t.Fatalf("shard %d restored onto dead worker %q", j, loc)
		}
	}
	if len(q.Deployment.RemoteFragments) == 0 {
		t.Fatal("in-process degrade dropped the pinned fragments")
	}
	sched.RunUntil(8 * vtime.Second)
	got, err := q.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	requireFragRows(t, "restart-workers-gone", got, want)
}

// TestFragmentSnapshotRestartCentralFallback: the workers are gone AND the
// restarted process hosts no sensor sources, so neither the pinned
// in-process shards nor a central runner can sample Light. The restore fails
// as a whole, naming the source, rather than bringing the query back with
// nothing feeding it.
func TestFragmentSnapshotRestartCentralFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.snap")
	fragRestartSnapshot(t, path)

	// No RegisterSensorStream: the runtime has a sensor engine but hosts
	// no sources.
	sched := vtime.NewScheduler()
	rt := New(Config{
		Scheduler:    sched,
		SensorEngine: newFieldEngine(),
		Topology:     plan.Topology{Parallelism: 4},
		SnapshotPath: path,
	})
	t.Cleanup(rt.Close)
	sched.RunUntil(4 * vtime.Second)
	qs, _, err := rt.RestoreSnapshot()
	if err == nil || !strings.Contains(err.Error(), `"light"`) {
		t.Fatalf("restore error = %v, want one naming the unhosted source light", err)
	}
	if len(qs) != 0 || len(rt.coord.Names()) != 0 {
		t.Fatalf("a failed restore left queries deployed: %d returned, coordinator has %v", len(qs), rt.coord.Names())
	}
}

// TestFailedRestoreLeavesNothingDeployed saves a stream query, a fragment
// query and another stream query, then restores on a runtime with no sensor
// engine. The fragment query cannot come back, so none may: the coordinator
// stays empty, and the snapshot file is left byte for byte as it was, so a
// later Save cannot overwrite it with a partial set.
func TestFailedRestoreLeavesNothingDeployed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.snap")
	rt, sched := newFragmentRuntimeCfg(t, Config{SnapshotPath: path})
	if _, err := rt.RegisterStream("Pulse", pulseSchema(), 1); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`SELECT p.v FROM Pulse p [RANGE 4 SECONDS]`,
		fragRestartSrc,
		`SELECT p.v FROM Pulse p [RANGE 2 SECONDS] WHERE p.v > 1`,
	} {
		if _, err := rt.Run(src); err != nil {
			t.Fatal(err)
		}
	}
	if q2, _ := rt.coord.Deployment("q2"); q2 == nil {
		t.Fatal("the fragment query is not q2")
	}
	sched.RunUntil(3 * vtime.Second)
	if _, err := rt.SaveSnapshot(); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	rt2 := New(Config{Scheduler: vtime.NewScheduler(), SnapshotPath: path})
	t.Cleanup(rt2.Close)
	if _, _, err := rt2.RestoreSnapshot(); err == nil {
		t.Fatal("restoring a fragment query without a sensor engine must fail")
	}
	if names := rt2.coord.Names(); len(names) != 0 {
		t.Fatalf("a failed restore left %v deployed", names)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, saved) {
		t.Fatal("a failed restore changed the snapshot file")
	}
}

// TestFragmentQueriesReadOnlyTheirOwnReadings deploys two standing queries
// whose sensor fragments the optimizer gives the same derived name, and
// requires each to read exactly what it reads deployed alone: a fragment
// feeds its own deployment's scan, never another query's. Serial, on shared
// prefixes, and sharded.
func TestFragmentQueriesReadOnlyTheirOwnReadings(t *testing.T) {
	const (
		dark = `SELECT l.room, count(*) AS n FROM Light l [RANGE 4 SECONDS]
			WHERE l.value < 10 GROUP BY l.room ORDER BY l.room`
		lit = `SELECT l.room, count(*) AS n FROM Light l [RANGE 4 SECONDS]
			WHERE l.value > 10 GROUP BY l.room ORDER BY l.room`
	)
	for _, v := range []struct {
		name string
		cfg  Config
	}{
		{"serial", Config{}},
		{"shared-prefixes", Config{SharedPrefixes: true}},
		{"parallelism-2", Config{Topology: plan.Topology{Parallelism: 2}}},
	} {
		t.Run(v.name, func(t *testing.T) {
			alone := func(src string) []data.Tuple {
				rt, sched := newFragmentRuntimeCfg(t, v.cfg)
				q, err := rt.Run(src)
				if err != nil {
					t.Fatal(err)
				}
				sched.RunUntil(6 * vtime.Second)
				rows, err := q.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) == 0 {
					t.Fatalf("%s alone reads nothing; the probe is vacuous", src)
				}
				return rows
			}
			wantDark, wantLit := alone(dark), alone(lit)

			rt, sched := newFragmentRuntimeCfg(t, v.cfg)
			qd, err := rt.Run(dark)
			if err != nil {
				t.Fatal(err)
			}
			ql, err := rt.Run(lit)
			if err != nil {
				t.Fatal(err)
			}
			fd, fl := qd.Partition.Chosen.Fragments, ql.Partition.Chosen.Fragments
			if len(fd) != 1 || len(fl) != 1 || fd[0].DerivedName != fl[0].DerivedName {
				t.Fatalf("fragments %v and %v do not share a derived name; the probe is vacuous", fd, fl)
			}
			sched.RunUntil(6 * vtime.Second)
			for _, c := range []struct {
				q    *Query
				want []data.Tuple
			}{{qd, wantDark}, {ql, wantLit}} {
				got, err := c.q.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				requireFragRows(t, c.q.SQL, got, c.want)
			}
		})
	}
}

// TestFragmentIneligibleTickMisalignment keeps a fragment central when its
// epoch period does not divide into tick instants: the deployment must
// still run (central runner, exchange feed) and match serial.
func TestFragmentIneligibleTickMisalignment(t *testing.T) {
	// 1s epochs over a 3s tick: epochs fall between tick barriers, so the
	// compile must keep the fragment on the coordinator.
	sched := vtime.NewScheduler()
	rt := New(Config{
		Scheduler:    sched,
		SensorEngine: newFieldEngine(),
		Topology:     plan.Topology{Parallelism: 2},
		TickPeriod:   3 * time.Second,
	})
	t.Cleanup(rt.Close)
	if err := rt.RegisterSensorStream("Light", sensornet.SensorLight, 16); err != nil {
		t.Fatal(err)
	}
	_, nodes := newSensorWorkers(t, 2, "light")
	rt.topo.Nodes = nodes

	q, err := rt.Run(`SELECT l.room, count(*) AS n FROM Light l [RANGE 6 SECONDS]
		 WHERE l.value < 10 GROUP BY l.room ORDER BY l.room`)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	if len(q.Deployment.RemoteFragments) != 0 {
		t.Fatalf("misaligned fragment was pushed remote: %v", q.Deployment.RemoteFragments)
	}
	sched.RunUntil(5 * vtime.Second)
	rows, err := q.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("the central fragment produced no rows")
	}
}
