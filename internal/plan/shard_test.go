package plan

import (
	"fmt"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// deployStream compiles src onto a fresh engine with the given
// parallelism and returns the deployment plus the engine.
func deployStream(t *testing.T, src string, par int) (*Deployment, *stream.Engine) {
	t.Helper()
	b := mustBuild(t, src, testCatalog())
	eng := stream.NewEngine(fmt.Sprintf("pc-par%d", par), vtime.NewScheduler())
	dep, err := CompileStreamOpts(b, Host{Engine: eng}, CompileOptions{Topology: Topology{Parallelism: par}})
	if err != nil {
		t.Fatal(err)
	}
	return dep, eng
}

// feedOccupancy pushes a deterministic seat/area workload, including
// retractions and a window-expiry tick, into the engine.
func feedOccupancy(t *testing.T, eng *stream.Engine) {
	t.Helper()
	seat, ok := eng.Input("SeatSensors")
	if !ok {
		t.Fatal("SeatSensors input missing")
	}
	// Absent for single-stream plans.
	area, haveArea := eng.Input("AreaSensors")
	ts := vtime.Time(0)
	for i := 0; i < 200; i++ {
		ts += vtime.Time(100 * time.Millisecond)
		room := fmt.Sprintf("L%d", 101+i%5)
		if haveArea {
			area.Push(data.NewTuple(ts, data.Str(room), data.Str("open")))
		}
		seat.Push(data.NewTuple(ts, data.Str(room), data.Int(int64(i%3)), data.Str("free")))
		if i%7 == 0 {
			seat.Push(data.NewTuple(ts, data.Str(room), data.Int(int64(i%3)), data.Str("free")).Negate())
		}
	}
	eng.Advance(ts + vtime.Time(3*time.Second))
}

// TestCompileStreamParallelEquivalence deploys the same windowed
// join+aggregate query serially and sharded, drives both with an
// identical workload, and requires identical results.
func TestCompileStreamParallelEquivalence(t *testing.T) {
	const src = `SELECT ss.room, count(*) AS n
		FROM SeatSensors ss [RANGE 5 SECONDS], AreaSensors sa [RANGE 5 SECONDS]
		WHERE sa.room = ss.room ^ sa.status = 'open'
		GROUP BY ss.room ORDER BY ss.room`

	serial, sEng := deployStream(t, src, 0)
	if serial.Shards != 1 {
		t.Fatalf("serial deployment reports %d shards", serial.Shards)
	}
	feedOccupancy(t, sEng)
	want, err := serial.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("serial reference is empty; workload is vacuous")
	}

	for _, p := range []int{2, 4} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			dep, eng := deployStream(t, src, p)
			if dep.Shards != p {
				t.Fatalf("deployment did not shard: Shards = %d, want %d", dep.Shards, p)
			}
			feedOccupancy(t, eng)
			got, err := dep.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			dep.Close()
			if len(got) != len(want) {
				t.Fatalf("sharded rows %v, want %v", got, want)
			}
			for i := range want {
				if !want[i].EqualVals(got[i]) {
					t.Fatalf("row %d: sharded %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestCompileStreamParallelTableLoad shards a stream⋈table join and loads
// the table through the deployment's TableHeads (now Sharder-fronted), as
// core's deployer does.
func TestCompileStreamParallelTableLoad(t *testing.T) {
	const src = `SELECT m.room, m.desk FROM Machines m, SeatSensors ss [RANGE 10 SECONDS]
		WHERE m.room = ss.room ^ m.desk = ss.desk`
	dep, eng := deployStream(t, src, 4)
	if dep.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", dep.Shards)
	}
	if len(dep.TableHeads) != 1 || dep.TableHeads[0].Input != "Machines" {
		t.Fatalf("TableHeads = %+v", dep.TableHeads)
	}
	cat := testCatalog()
	src2, _ := cat.Source("Machines")
	var rows []data.Tuple
	src2.Table.Scan(func(tu data.Tuple) bool {
		tu.TS = 1
		rows = append(rows, tu)
		return true
	})
	dep.TableHeads[0].Load(rows)

	seat, _ := eng.Input("SeatSensors")
	seat.Push(data.NewTuple(2, data.Str("L101"), data.Int(1), data.Str("free")))
	seat.Push(data.NewTuple(2, data.Str("L102"), data.Int(1), data.Str("free")))
	seat.Push(data.NewTuple(2, data.Str("L999"), data.Int(9), data.Str("free"))) // no machine

	got, err := dep.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dep.Close()
	if len(got) != 2 {
		t.Fatalf("joined rows = %v", got)
	}
}

// TestCompileStreamParallelFallback lists plans the shard analysis must
// still refuse — ROWS windows, cross joins — and checks they deploy
// serially (and still run) even when parallelism was requested. Global
// aggregates and computed-projection keys, serial before the two-phase
// split existed, now shard (see the tests below).
func TestCompileStreamParallelFallback(t *testing.T) {
	cases := map[string]string{
		"rows-window": `SELECT ss.room, count(*) AS n FROM SeatSensors ss [ROWS 2] GROUP BY ss.room`,
		"rows-window-global-agg": `SELECT count(*) AS n
			FROM SeatSensors ss [ROWS 2]`,
		"cross-join": `SELECT ss.room FROM SeatSensors ss [NOW], AreaSensors sa [NOW]`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			dep, eng := deployStream(t, src, 4)
			if dep.Shards != 1 {
				t.Fatalf("%s sharded (%d) but must fall back serial", name, dep.Shards)
			}
			seat, _ := eng.Input("SeatSensors")
			seat.Push(data.NewTuple(1, data.Str("L101"), data.Int(1), data.Str("free")))
			if _, err := dep.Snapshot(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// diffSerial deploys src serially and at P∈{2,4}, drives all deployments
// with the same workload, and requires identical snapshots. wantTwoPhase
// asserts which execution shape the sharded deployments must take.
func diffSerial(t *testing.T, src string, wantTwoPhase bool) {
	t.Helper()
	serial, sEng := deployStream(t, src, 0)
	if serial.Shards != 1 {
		t.Fatalf("serial deployment reports %d shards", serial.Shards)
	}
	feedOccupancy(t, sEng)
	want, err := serial.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("serial reference is empty; workload is vacuous")
	}
	for _, p := range []int{2, 4} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			dep, eng := deployStream(t, src, p)
			if dep.Shards != p {
				t.Fatalf("deployment did not shard: Shards = %d, want %d", dep.Shards, p)
			}
			if dep.TwoPhase != wantTwoPhase {
				t.Fatalf("TwoPhase = %v, want %v", dep.TwoPhase, wantTwoPhase)
			}
			feedOccupancy(t, eng)
			got, err := dep.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			dep.Close()
			if len(got) != len(want) {
				t.Fatalf("sharded rows %v, want %v", got, want)
			}
			for i := range want {
				if !want[i].EqualVals(got[i]) {
					t.Fatalf("row %d: sharded %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestCompileStreamGlobalAggregateTwoPhase shards the queries PR 2 had to
// run serially: global aggregates (with and without a join below) split
// into per-shard partial states merged by one FinalMerge.
func TestCompileStreamGlobalAggregateTwoPhase(t *testing.T) {
	t.Run("scan", func(t *testing.T) {
		diffSerial(t, `SELECT count(*) AS n, avg(ss.desk) AS d
			FROM SeatSensors ss [RANGE 5 SECONDS]`, true)
	})
	t.Run("join-below", func(t *testing.T) {
		diffSerial(t, `SELECT count(*) AS n
			FROM SeatSensors ss [RANGE 5 SECONDS], AreaSensors sa [RANGE 5 SECONDS]
			WHERE sa.room = ss.room ^ sa.status = 'open'`, true)
	})
	t.Run("having", func(t *testing.T) {
		diffSerial(t, `SELECT count(*) AS n FROM SeatSensors ss [RANGE 5 SECONDS]
			GROUP BY ss.status HAVING n > 3`, false)
	})
}

// TestCompileStreamGroupKeyOffJoinKeyTwoPhase shards a grouped aggregate
// whose grouping column is not the join key: the join still partitions on
// room, and the aggregate splits two-phase because desk-groups span
// room-shards.
func TestCompileStreamGroupKeyOffJoinKeyTwoPhase(t *testing.T) {
	diffSerial(t, `SELECT ss.desk, count(*) AS n
		FROM SeatSensors ss [RANGE 5 SECONDS], AreaSensors sa [RANGE 5 SECONDS]
		WHERE sa.room = ss.room ^ sa.status = 'open'
		GROUP BY ss.desk ORDER BY ss.desk`, true)
}

// TestCompileStreamComputedKeyShards covers the relaxed computed-projection
// rule: a DISTINCT over computed columns now partitions on the projection
// expressions themselves (an expression-keyed exchange, still one-phase).
func TestCompileStreamComputedKeyShards(t *testing.T) {
	diffSerial(t, `SELECT DISTINCT ss.desk + 1 AS d, ss.room AS r
		FROM SeatSensors ss [RANGE 5 SECONDS]`, false)
}

// TestCompileStreamComputedGroupKeyShards hand-builds the plan SQL can't
// express — a grouped aggregate whose key is a computed projection column —
// and checks the relaxed analysis imposes the projection expression on the
// source (one-phase, expression-keyed exchange) with results equal to
// serial.
func TestCompileStreamComputedGroupKeyShards(t *testing.T) {
	build := func() *Built {
		cat := testCatalog()
		src, _ := cat.Source("SeatSensors")
		scan := NewScan("SeatSensors", "ss", src.Schema,
			&sql.WindowSpec{Kind: sql.WindowRange, Range: 5 * time.Second}, src.Rate, false)
		proj, err := NewProject(scan, []stream.ProjectItem{
			{Expr: expr.Bin{Op: expr.OpMod, L: expr.C("ss.desk"), R: expr.L(2)}, Alias: "par"},
			{Expr: expr.C("ss.room"), Alias: "room"},
		})
		if err != nil {
			t.Fatal(err)
		}
		agg, err := NewAggregate(proj, []string{"par"},
			[]stream.AggSpec{{Kind: stream.AggCount, Alias: "n"}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return &Built{Root: agg, Limit: -1}
	}

	run := func(par int) ([]data.Tuple, *Deployment) {
		eng := stream.NewEngine(fmt.Sprintf("pc-cg%d", par), vtime.NewScheduler())
		dep, err := CompileStreamOpts(build(), Host{Engine: eng}, CompileOptions{Topology: Topology{Parallelism: par}})
		if err != nil {
			t.Fatal(err)
		}
		feedOccupancy(t, eng)
		rows, err := dep.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		sortByKey(rows)
		return rows, dep
	}

	want, serial := run(0)
	if serial.Shards != 1 {
		t.Fatalf("serial Shards = %d", serial.Shards)
	}
	if len(want) == 0 {
		t.Fatal("serial reference is empty")
	}
	for _, p := range []int{2, 4} {
		got, dep := run(p)
		if dep.Shards != p || dep.TwoPhase {
			t.Fatalf("P=%d: Shards=%d TwoPhase=%v, want one-phase expression-keyed sharding",
				p, dep.Shards, dep.TwoPhase)
		}
		dep.Close()
		if len(got) != len(want) {
			t.Fatalf("P=%d rows %v, want %v", p, got, want)
		}
		for i := range want {
			if !got[i].EqualVals(want[i]) {
				t.Fatalf("P=%d row %d: %v, want %v", p, i, got[i], want[i])
			}
		}
	}
}

// TestShardableKeysSelection verifies the analysis picks the join/group
// columns for each scan on a plain equi-join plan (one-phase, no split).
func TestShardableKeysSelection(t *testing.T) {
	b := mustBuild(t, `SELECT ss.room, count(*) AS n
		FROM SeatSensors ss [RANGE 5 SECONDS], AreaSensors sa [RANGE 5 SECONDS]
		WHERE sa.room = ss.room GROUP BY ss.room`, testCatalog())
	strat, ok := analyzeShard(b.Root)
	if !ok {
		t.Fatal("plan must be shardable")
	}
	if strat.Split != nil {
		t.Fatalf("plain group-on-join-key plan must shard one-phase, split at %v", strat.Split)
	}
	scans := Scans(b.Root)
	if len(scans) != 2 {
		t.Fatalf("scans = %v", scans)
	}
	for _, s := range scans {
		ks := strat.Keys[s]
		if len(ks) != 1 {
			t.Fatalf("scan %s keys = %v, want exactly the join/group column", s, ks)
		}
		col, isCol := ks[0].(expr.Col)
		if !isCol {
			t.Fatalf("scan %s key %v is not a bare column", s, ks[0])
		}
		if i, err := s.Schema().ColIndex(col.Ref); err != nil || s.Schema().Cols[i].Name != "room" {
			t.Fatalf("scan %s partitions on %v, want its room column", s, ks)
		}
	}
}

// TestSubstituteColsExprKinds drives the key-substitution rewriter through
// every expression node kind: a DISTINCT over a projection whose computed
// columns use unary, IS NULL, call, and literal-bearing binary shapes must
// still shard one-phase (the key imposes through the substitution), while
// a nondeterministic call must fail closed to a two-phase or serial plan.
func TestSubstituteColsExprKinds(t *testing.T) {
	s1 := data.NewSchema("S1", data.Col("a", data.TInt), data.Col("b", data.TInt))
	s1.IsStream = true
	scan := func() *Scan { return NewScan("S1", "t1", s1, nil, 10, false) }
	mk := func(items ...stream.ProjectItem) Node {
		p, err := NewProject(scan(), items)
		if err != nil {
			t.Fatal(err)
		}
		return &Distinct{In: p}
	}
	ok := mk(
		stream.ProjectItem{Expr: expr.Un{Op: expr.OpNeg, X: expr.C("t1.a")}, Alias: "na"},
		stream.ProjectItem{Expr: expr.IsNull{X: expr.C("t1.b")}, Alias: "nb"},
		stream.ProjectItem{Expr: expr.Call{Name: "abs", Args: []expr.Expr{
			expr.Bin{Op: expr.OpSub, L: expr.C("t1.a"), R: expr.L(3)}}}, Alias: "ca"},
		stream.ProjectItem{Expr: expr.Bin{Op: expr.OpAdd, L: expr.L(1), R: expr.C("t1.b")}, Alias: "lb"},
	)
	strat, shardable := analyzeShard(ok)
	if !shardable || strat.Split != nil {
		t.Fatalf("deterministic computed keys must shard one-phase (ok=%v split=%v)",
			shardable, strat != nil && strat.Split != nil)
	}
	// Every bindable builtin is deterministic today, so the fail-closed
	// branch is only reachable directly: an unknown function must never be
	// treated as a routable key expression.
	if deterministicExpr(expr.Call{Name: "random"}) {
		t.Fatal("unknown functions must fail the determinism check closed")
	}
	if !deterministicExpr(expr.Call{Name: "coalesce", Args: []expr.Expr{expr.C("t1.a"), expr.L(0)}}) {
		t.Fatal("coalesce over columns is deterministic")
	}
	if deterministicExpr(expr.Call{Name: "abs", Args: []expr.Expr{expr.Call{Name: "now"}}}) {
		t.Fatal("determinism must recurse into call arguments")
	}
}

// TestMapThroughAggregateComputedKey: a computed key over an aggregate's
// output maps below only when it references group columns; aggregate
// value columns fail the substitution.
func TestMapThroughAggregateComputedKey(t *testing.T) {
	s1 := data.NewSchema("S1", data.Col("a", data.TInt), data.Col("b", data.TInt))
	s1.IsStream = true
	agg, err := NewAggregate(NewScan("S1", "t1", s1, nil, 10, false),
		[]string{"t1.a"}, []stream.AggSpec{{Kind: stream.AggSum, Arg: expr.C("t1.b"), Alias: "s"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := mapThroughAggregate(expr.Bin{Op: expr.OpMul, L: expr.C("t1.a"), R: expr.L(2)}, agg); !ok {
		t.Fatal("group-column key must map through the aggregate")
	}
	if _, ok := mapThroughAggregate(expr.C("s"), agg); ok {
		t.Fatal("aggregate value column must not map through")
	}
}
