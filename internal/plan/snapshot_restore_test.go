package plan

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// Snapshot v2 tests: shared-chain window capture across a coordinator
// restart, the surfaced skip list, node-list validation, and the fsync'd
// atomic-commit crash points.

// TestParseNodesErrors pins the node-list validation: an affinity with no
// worker address and a duplicated address are config errors, surfaced at
// parse time and propagated by every compile and rescale path.
func TestParseNodesErrors(t *testing.T) {
	if _, _, err := ParseNodes([]string{"=sensors"}); err == nil {
		t.Fatal("affinity without a worker address must be rejected")
	}
	if _, _, err := ParseNodes([]string{"w1:9", "w1:9"}); err == nil {
		t.Fatal("duplicate worker address must be rejected")
	}
	// Multiple in-process slots are fine; affinity still parses.
	addrs, affinity, err := ParseNodes([]string{"", "w1:9=Temperature", ""})
	if err != nil {
		t.Fatalf("valid node list rejected: %v", err)
	}
	if len(addrs) != 3 || addrs[1] != "w1:9" {
		t.Fatalf("addrs = %v", addrs)
	}
	if len(affinity["w1:9"]) != 1 {
		t.Fatalf("affinity = %v, want Temperature bound to w1:9", affinity)
	}

	// Compile validates the list up front on every path, sharded or not.
	w := &sql.WindowSpec{Kind: sql.WindowRange, Range: 2 * time.Second}
	eng := stream.NewEngine("nodes-err", vtime.NewScheduler())
	for _, bad := range [][]string{{"=sensors", ""}, {"w1:9", "w1:9"}} {
		if _, err := CompileStreamOpts(sharePlan("t1", w, nil), Host{Engine: eng},
			CompileOptions{Topology: Topology{Parallelism: 2, Nodes: bad}}); err == nil {
			t.Fatalf("compile accepted malformed node list %v", bad)
		}
	}

	// A live Rescale rejects the same malformed lists without moving shards.
	b := fuzzBuiltPlan(t)
	dep, err := CompileStreamOpts(b, Host{Engine: eng}, CompileOptions{Topology: Topology{Parallelism: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	for _, bad := range [][]string{{"=sensors"}, {"w1:9", "w1:9"}} {
		if err := dep.Rescale(bad); err == nil {
			t.Fatalf("Rescale accepted malformed node list %v", bad)
		}
	}
	for j, loc := range dep.Placement() {
		if loc != "" {
			t.Fatalf("failed Rescale moved shard %d to %q", j, loc)
		}
	}
}

// TestSnapshotSaveCrashPoints drives Save into both halves of the atomic
// commit — the temp-file write and the rename — and requires the last
// committed snapshot to stay intact and restorable through either failure.
func TestSnapshotSaveCrashPoints(t *testing.T) {
	b := fuzzBuiltPlan(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "coord.snap")

	eng := stream.NewEngine("crash-a", vtime.NewScheduler())
	coord := NewCoordinator(Host{Engine: eng}, path)
	if _, err := coord.Deploy("q", b, CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Save(); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Crash point 1: the temp-file write fails (the tmp path is occupied
	// by a directory). The committed snapshot must be byte-identical after.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Save(); err == nil {
		t.Fatal("Save with an unwritable temp path must fail")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, committed) {
		t.Fatal("failed Save mutated the committed snapshot")
	}
	if err := os.Remove(path + ".tmp"); err != nil {
		t.Fatal(err)
	}

	// Crash point 2: the rename fails (the snapshot path is a non-empty
	// directory). The temp file must not be left behind.
	blocked := filepath.Join(dir, "blocked.snap")
	if err := os.MkdirAll(filepath.Join(blocked, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	eng2 := stream.NewEngine("crash-b", vtime.NewScheduler())
	coord2 := NewCoordinator(Host{Engine: eng2}, blocked)
	if _, err := coord2.Deploy("q", b, CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if _, err := coord2.Save(); err == nil {
		t.Fatal("Save with an un-renameable snapshot path must fail")
	}
	if _, err := os.Stat(blocked + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed commit left the temp file behind (stat err %v)", err)
	}

	// The coordinator stays usable: with the obstruction gone, Save commits
	// and a fresh coordinator restores the deployment.
	if _, err := coord.Save(); err != nil {
		t.Fatalf("Save after a cleared obstruction: %v", err)
	}
	coord.Close()
	engB := stream.NewEngine("crash-c", vtime.NewScheduler())
	coordB := NewCoordinator(Host{Engine: engB}, path)
	defer coordB.Close()
	if _, err := coordB.Restore(); err != nil {
		t.Fatalf("restore of the recommitted snapshot: %v", err)
	}
	if n := coordB.Names(); len(n) != 1 || n[0] != "q" {
		t.Fatalf("restored %v, want [q]", n)
	}
}

// TestSnapshotSkipListSurfaced: a deployment the snapshot cannot capture —
// fed by a pipeline its plan does not describe, the way a recursive view
// feeds its body — is named by Save, recorded in the file, and named again
// by Restore. Nothing is ever dropped silently.
func TestSnapshotSkipListSurfaced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.snap")
	w := &sql.WindowSpec{Kind: sql.WindowRange, Range: 5 * time.Second}
	ge1 := func(sc *Scan) []expr.Expr {
		return []expr.Expr{expr.Bin{Op: expr.OpGe, L: expr.C(sc.Alias + ".a"), R: expr.L(1)}}
	}

	engA := stream.NewEngine("skip-a", vtime.NewScheduler())
	coordA := NewCoordinator(Host{Engine: engA, Sharing: NewSharing(engA)}, path)
	if _, err := coordA.Deploy("good", sharePlan("t1", w, ge1), CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	// An external feeder: a pipeline the caller built over another input
	// pushes into the deployment's input S1. Restore could recompile the plan
	// but not that, so this deployment is skippable — loudly.
	alien, err := coordA.Deploy("alien", sharePlan("t2", w, ge1), CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := engA.Input("S1")
	elsewhere := engA.MustRegister("Elsewhere", s1.Schema())
	alien.Feed(elsewhere, stream.NewCallback(s1.Schema(), s1.PushBatch))
	skipped, err := coordA.Save()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0] != "alien" {
		t.Fatalf("Save skipped %v, want [alien]", skipped)
	}
	coordA.Close()
	if n := elsewhere.Subscribers(); n != 0 {
		t.Fatalf("Close left %d feeder subscriptions behind", n)
	}

	engB := stream.NewEngine("skip-b", vtime.NewScheduler())
	coordB := NewCoordinator(Host{Engine: engB, Sharing: NewSharing(engB)}, path)
	defer coordB.Close()
	skipped, err = coordB.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0] != "alien" {
		t.Fatalf("Restore surfaced skips %v, want [alien]", skipped)
	}
	if n := coordB.Names(); len(n) != 1 || n[0] != "good" {
		t.Fatalf("restored %v, want [good]", n)
	}
}

// TestSnapshotChainsRequireSharing: a snapshot carrying shared-chain
// window state refuses to Restore into a coordinator whose host has no
// Sharing — the restored queries would otherwise attach cold and drift
// from an uninterrupted run.
func TestSnapshotChainsRequireSharing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "coord.snap")
	w := &sql.WindowSpec{Kind: sql.WindowRange, Range: 5 * time.Second}

	engA := stream.NewEngine("req-a", vtime.NewScheduler())
	coordA := NewCoordinator(Host{Engine: engA, Sharing: NewSharing(engA)}, path)
	if _, err := coordA.Deploy("q", sharePlan("t1", w, nil), CompileOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := coordA.Save(); err != nil {
		t.Fatal(err)
	}
	coordA.Close()

	engB := stream.NewEngine("req-b", vtime.NewScheduler())
	coordB := NewCoordinator(Host{Engine: engB}, path)
	if _, err := coordB.Restore(); err == nil {
		t.Fatal("Restore of shared-chain state on a host without Sharing must fail")
	}
	if n := coordB.Names(); len(n) != 0 {
		t.Fatalf("failed restore left deployments behind: %v", n)
	}
	// A coordinator whose host shares restores the same file cleanly.
	coordB = NewCoordinator(Host{Engine: engB, Sharing: NewSharing(engB)}, path)
	defer coordB.Close()
	if _, err := coordB.Restore(); err != nil {
		t.Fatalf("restore with sharing enabled: %v", err)
	}
	if n := coordB.Names(); len(n) != 1 || n[0] != "q" {
		t.Fatalf("restored %v, want [q]", n)
	}
}

// TestSharedChainRestartDifferential is the sharing restart differential:
// four overlapping queries (two on one predicate layer, one divergent
// layer, one bare base) run through a sharing coordinator, Save at
// mid-stream, the coordinator restarts, and the restored queries — chains
// rebuilt warm from the snapshotted window state — must stay
// multiset-equal to an uninterrupted serial run, including the expiry
// deletions of rows that entered the shared window before the restart.
func TestSharedChainRestartDifferential(t *testing.T) {
	w := &sql.WindowSpec{Kind: sql.WindowRange, Range: 5 * time.Second}
	ge := func(v int) func(*Scan) []expr.Expr {
		return func(sc *Scan) []expr.Expr {
			return []expr.Expr{expr.Bin{Op: expr.OpGe, L: expr.C(sc.Alias + ".a"), R: expr.L(v)}}
		}
	}
	builts := []*Built{
		sharePlan("t1", w, ge(1)),
		sharePlan("t2", w, ge(1)), // same layer as t1
		sharePlan("t3", w, ge(3)), // divergent layer, shared base
		sharePlan("t4", w, nil),   // bare base chain
	}
	type ev struct {
		sec, a int64
	}
	firstHalf := []ev{{1, 0}, {2, 2}, {3, 7}, {4, 1}}
	secondHalf := []ev{{5, 4}, {6, 9}}
	push := func(eng *stream.Engine, evs []ev) {
		in, _ := eng.Input("S1")
		for _, e := range evs {
			in.Push(data.Tuple{Vals: []data.Value{data.Int(e.a), data.Int(0), data.Str("s")},
				TS: vtime.Time(e.sec) * vtime.Time(time.Second)})
		}
	}

	// Reference: private compiles on one engine, no interruption. The final
	// Advance expires every pre-restart row (ts 1..4 < cutoff 5s), so the
	// differential checks the restored shared window's deletions too.
	reng := stream.NewEngine("restart-ref", vtime.NewScheduler())
	want := make([][]data.Tuple, len(builts))
	for i, b := range builts {
		dep, err := CompileStreamOpts(b, Host{Engine: reng}, CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer dep.Close()
		push(reng, firstHalf)
		push(reng, secondHalf)
		reng.Advance(10 * vtime.Second)
		want[i] = snapshotSorted(t, dep)
	}
	if len(want[3]) != 1 {
		t.Fatalf("reference q4 kept %d rows, want just the post-cutoff one", len(want[3]))
	}

	// Interrupted run: deploy through a sharing coordinator, Save mid-way.
	path := filepath.Join(t.TempDir(), "coord.snap")
	engA := stream.NewEngine("restart-a", vtime.NewScheduler())
	shareA := NewSharing(engA)
	coordA := NewCoordinator(Host{Engine: engA, Sharing: shareA}, path)
	names := []string{"q1", "q2", "q3", "q4"}
	for i, b := range builts {
		if _, err := coordA.Deploy(names[i], b, CompileOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if chains, attached := shareA.Stats(); chains != 3 || attached != 4 {
		t.Fatalf("chains=%d attached=%d, want 3 chains (base + 2 layers) and 4 attachments", chains, attached)
	}
	push(engA, firstHalf)
	skipped, err := coordA.Save()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("Save skipped %v on a fully capturable coordinator", skipped)
	}
	coordA.Close() // the restart: deployments and chains die with the process

	// Restart: fresh engine, fresh Sharing, warm Restore.
	engB := stream.NewEngine("restart-b", vtime.NewScheduler())
	shareB := NewSharing(engB)
	coordB := NewCoordinator(Host{Engine: engB, Sharing: shareB}, path)
	defer coordB.Close()
	skipped, err = coordB.Restore()
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if len(skipped) != 0 {
		t.Fatalf("Restore surfaced skips %v, want none", skipped)
	}
	if chains, attached := shareB.Stats(); chains != 3 || attached != 4 {
		t.Fatalf("restored chains=%d attached=%d, want 3/4", chains, attached)
	}
	// The restored chains really share: one physical subscriber feeds all
	// four queries, so the differential is not vacuously private.
	if in, _ := engB.Input("S1"); in.Subscribers() != 1 {
		t.Fatalf("restored engine has %d input subscribers, want 1 shared chain", in.Subscribers())
	}

	push(engB, secondHalf)
	engB.Advance(10 * vtime.Second)
	for i, name := range names {
		dep, ok := coordB.Deployment(name)
		if !ok {
			t.Fatalf("restored deployment %q missing", name)
		}
		requireEqualRows(t, "restored "+name, snapshotSorted(t, dep), want[i])
	}
}

// TestSnapFragmentRoundTrip covers the snapshot mirror of every fragment
// kind — select, join, aggregate — and the decode refusals (unknown kind,
// unbindable predicates) that keep a damaged snapshot a clean error.
func TestSnapFragmentRoundTrip(t *testing.T) {
	sel := lightFeedFragment(t)
	join := SensorFragment{Name: "j", Sources: []string{"temperature", "light"},
		Join: &sensor.JoinQuery{
			Left:   sensor.JoinSide{Rel: "t", Sensor: sensornet.SensorTemperature},
			Right:  sensor.JoinSide{Rel: "l", Sensor: sensornet.SensorLight},
			PairBy: sensor.PairSameDesk, Period: 2 * time.Second,
		}}
	agg := SensorFragment{Name: "a", Sources: []string{"temperature"},
		Agg: &sensor.AggregateQuery{Rel: "t", Sensor: sensornet.SensorTemperature,
			Func: sensor.AggCount, GroupByRoom: true, Period: 3 * time.Second}}
	for _, f := range []SensorFragment{sel, join, agg} {
		s, err := encodeSnapFragment(&f)
		if err != nil {
			t.Fatalf("encode %s: %v", f.Name, err)
		}
		got, err := decodeSnapFragment(s)
		if err != nil {
			t.Fatalf("decode %s: %v", f.Name, err)
		}
		if got.Name != f.Name || len(got.Sources) != len(f.Sources) {
			t.Fatalf("round trip of %s lost identity: %+v", f.Name, got)
		}
		switch {
		case f.Select != nil:
			if got.Select == nil || got.Select.Rel != f.Select.Rel || got.Select.Period != f.Select.Period {
				t.Fatalf("select round trip: %+v", got.Select)
			}
		case f.Join != nil:
			if got.Join == nil || got.Join.PairBy != f.Join.PairBy || got.Join.Period != f.Join.Period ||
				got.Join.Left.Rel != "t" || got.Join.Right.Rel != "l" {
				t.Fatalf("join round trip: %+v", got.Join)
			}
		case f.Agg != nil:
			if got.Agg == nil || got.Agg.Func != f.Agg.Func || !got.Agg.GroupByRoom {
				t.Fatalf("agg round trip: %+v", got.Agg)
			}
		}
	}

	if _, err := encodeSnapFragment(&SensorFragment{Name: "empty"}); err == nil {
		t.Fatal("a fragment with no query must not encode")
	}
	bad := expr.Col{Ref: "nosuch"}
	refusals := []snapFragment{
		{Kind: fragKind(9), Name: "k"},
		{Kind: fragSelect, Rel: "l", Pred: bad},
		{Kind: fragAggregate, Rel: "t", Pred: bad},
		{Kind: fragJoin, Rel: "t", RRel: "l", Pred: bad},
		{Kind: fragJoin, Rel: "t", RRel: "l", RPred: bad},
		{Kind: fragJoin, Rel: "t", RRel: "l", On: bad},
	}
	for _, s := range refusals {
		if _, err := decodeSnapFragment(s); err == nil {
			t.Fatalf("decode accepted damaged fragment %+v", s)
		}
	}
}

// TestCoordinatorFragmentSnapshotRestore is the plan-level fragment restart
// differential, walking all three rehydration tiers against one snapshot:
// workers alive (exact redeploy), workers gone (in-process shards, pinned
// fragments on the coordinator's own hosts), and hosts gone too (central
// fallback with the runner states trimmed off the shard checkpoints).
func TestCoordinatorFragmentSnapshotRestore(t *testing.T) {
	const upto = vtime.Time(8 * vtime.Second)
	frag := lightFeedFragment(t)

	// Serial, uninterrupted reference.
	sEng := stream.NewEngine("fragsnap-serial", vtime.NewScheduler())
	serial, err := CompileStreamOpts(mustBuild(t, lightFeedQuery, fragFeedCatalog()), Host{Engine: sEng}, CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	runCentralEpochs(t, sEng, newFragCompileHosts(), frag.Select, upto)
	want := snapshotSorted(t, serial)
	if len(want) == 0 {
		t.Fatal("serial reference is empty")
	}

	// Deploy over two sensor workers, save at the 4s mark, coordinator dies.
	path := filepath.Join(t.TempDir(), "coord.snap")
	workers := make([]*stream.ShardWorker, 2)
	nodes := make([]string, 2)
	for i := range workers {
		w, err := NewSensorWorker("127.0.0.1:0", newFragCompileHosts())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		workers[i] = w
		nodes[i] = w.Addr() + "=light"
	}
	engA := stream.NewEngine("fragsnap-a", vtime.NewScheduler())
	coordA := NewCoordinator(fragHost(engA, newFragCompileHosts()), path)
	depA, err := coordA.Deploy("q", mustBuild(t, lightFeedQuery, fragFeedCatalog()), CompileOptions{
		Topology:  Topology{Parallelism: 4, Nodes: nodes},
		Fragments: []SensorFragment{frag},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(depA.RemoteFragments) != 1 {
		t.Fatalf("RemoteFragments = %v, want [LightFeed]", depA.RemoteFragments)
	}
	for now := vtime.Time(vtime.Second); now <= 4*vtime.Second; now += vtime.Time(vtime.Second) {
		engA.Advance(now)
	}
	skipped, err := coordA.Save()
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 0 {
		t.Fatalf("Save skipped %v", skipped)
	}
	coordA.Close()

	// The coordinator's runtime at restore time: sources hosted locally,
	// 1s ticks, clock standing at the snapshot instant.
	// A restoring host: its clock stands at the instant of the Save.
	host4 := func(eng *stream.Engine, sensors *SensorHosts) Host {
		h := fragHost(eng, sensors)
		h.Now = func() vtime.Time { return vtime.Time(4 * vtime.Second) }
		return h
	}
	finish := func(t *testing.T, eng *stream.Engine, coord *Coordinator, wantRemote int) {
		t.Helper()
		skipped, err := coord.Restore()
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		if len(skipped) != 0 {
			t.Fatalf("Restore surfaced skips %v", skipped)
		}
		dep, ok := coord.Deployment("q")
		if !ok {
			t.Fatal("restored deployment missing")
		}
		if len(dep.RemoteFragments) != wantRemote {
			t.Fatalf("RemoteFragments = %v, want %d entries", dep.RemoteFragments, wantRemote)
		}
		if got := coord.Fragments("q"); len(got) != 1 || got[0].Select == nil {
			t.Fatalf("Fragments(q) = %+v, want the rehydrated select spec", got)
		}
		if wantRemote == 0 {
			// Central fallback: the caller replays the epochs the trimmed
			// runners would have generated, against the restored spec.
			in, ok := eng.Input("LightFeed")
			if !ok {
				t.Fatal("restored deployment did not register LightFeed")
			}
			se, _ := newFragCompileHosts().Engine("light")
			q := coord.Fragments("q")[0].Select
			for now := vtime.Time(5 * vtime.Second); now <= upto; now += vtime.Time(vtime.Second) {
				eng.Advance(now)
				var batch []data.Tuple
				se.RunSelectEpoch(q, now, func(tu data.Tuple) { batch = append(batch, tu) })
				in.PushBatch(batch)
			}
		} else {
			for now := vtime.Time(5 * vtime.Second); now <= upto; now += vtime.Time(vtime.Second) {
				eng.Advance(now)
			}
		}
		requireEqualRows(t, "restored fragment deployment", snapshotSorted(t, dep), want)
		coord.Close()
	}

	// Tier 1: the workers are still there — exact redeploy, checkpointed
	// epoch anchors included.
	engB := stream.NewEngine("fragsnap-b", vtime.NewScheduler())
	coordB := NewCoordinator(host4(engB, newFragCompileHosts()), path)
	finish(t, engB, coordB, 1)

	// Tier 2: workers gone; shards heal in-process with the fragments still
	// pinned to their exact runner state on the coordinator's own hosts.
	for _, w := range workers {
		w.Close()
	}
	engC := stream.NewEngine("fragsnap-c", vtime.NewScheduler())
	coordC := NewCoordinator(host4(engC, newFragCompileHosts()), path)
	skippedC, err := coordC.Restore()
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if len(skippedC) != 0 {
		t.Fatalf("Restore surfaced skips %v", skippedC)
	}
	depC, _ := coordC.Deployment("q")
	for j, loc := range depC.Placement() {
		if loc != "" {
			t.Fatalf("shard %d restored onto dead worker %q", j, loc)
		}
	}
	if len(depC.RemoteFragments) != 1 {
		t.Fatalf("in-process degrade dropped pinned fragments: %v", depC.RemoteFragments)
	}
	for now := vtime.Time(5 * vtime.Second); now <= upto; now += vtime.Time(vtime.Second) {
		engC.Advance(now)
	}
	requireEqualRows(t, "workers-gone restore", snapshotSorted(t, depC), want)
	coordC.Close()

	// Tier 3: no workers AND no local sensor hosts — the fragments fall
	// back to central runners (states trimmed), the deployment survives.
	engD := stream.NewEngine("fragsnap-d", vtime.NewScheduler())
	coordD := NewCoordinator(host4(engD, NewSensorHosts()), path)
	finish(t, engD, coordD, 0)
}
