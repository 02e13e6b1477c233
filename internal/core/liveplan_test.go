package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"aspen/internal/data"
	"aspen/internal/plan"
	"aspen/internal/sensor"
	"aspen/internal/stream"
	"aspen/internal/testproc"
	"aspen/internal/vtime"
)

// Two standing SELECTs over the reading stream Temp whose plans depend on
// the catalog alone: a selection, and a grouped aggregate under ORDER BY.
const (
	selText = `SELECT q.room, q.desk, q.value FROM Temp q [RANGE 2 SECONDS] WHERE q.value > 50 AND q.desk > 1`
	aggText = `SELECT q.room, count(*) AS n, max(q.value) AS top FROM Temp q [RANGE 2 SECONDS] GROUP BY q.room ORDER BY q.room`
)

// newTempRuntime assembles a runtime from cfg with the reading stream Temp
// registered.
func newTempRuntime(t testing.TB, cfg Config) (*Runtime, *stream.Input) {
	t.Helper()
	if cfg.Scheduler == nil {
		cfg.Scheduler = vtime.NewScheduler()
	}
	rt := New(cfg)
	t.Cleanup(rt.Close)
	in, err := rt.RegisterStream("Temp", sensor.ReadingSchema("Temp"), 0)
	if err != nil {
		t.Fatal(err)
	}
	return rt, in
}

// tempEpoch pushes epoch e's 48 readings into in and ticks the clock to
// them, so the 2-second windows hold this epoch's and the last one's.
func tempEpoch(rt *Runtime, in *stream.Input, e int) {
	ts := vtime.Time(e) * vtime.Second
	batch := make([]data.Tuple, 0, 48)
	for i := range 48 {
		batch = append(batch, data.NewTuple(ts, data.Int(int64(i)), data.Str(fmt.Sprintf("R%d", i/4%6)),
			data.Int(int64(i%4+1)), data.Float(float64((i*37+e*11)%100))))
	}
	in.PushBatch(batch)
	rt.Sched.RunUntil(ts)
}

// rowKeys reads q and returns its rows' keys, sorted.
func rowKeys(t testing.TB, q *Query) []string {
	t.Helper()
	rows, err := q.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Key()
	}
	sort.Strings(out)
	return out
}

// livePlans reports how many texts the runtime keeps a plan for, and how
// many live queries the entry of text counts (0 without one).
func livePlans(rt *Runtime, text string) (texts, live int) {
	rt.plansMu.Lock()
	defer rt.plansMu.Unlock()
	if e := rt.plans[text]; e != nil {
		live = e.live
	}
	return len(rt.plans), live
}

// TestRunReusesLivePlan: a Run of a text that a live query runs deploys that
// query's plan without planning again, and behaves exactly as a freshly
// planned one; the plan is forgotten with the text's last live query and
// when the catalog changes; a plan that reads live state is never reused.
func TestRunReusesLivePlan(t *testing.T) {
	t.Run("rows", func(t *testing.T) {
		for _, c := range []struct {
			name string
			cfg  Config
		}{
			{"private", Config{}},
			{"shared", Config{SharedPrefixes: true}},
			{"P=2", Config{Topology: plan.Topology{Parallelism: 2}}},
		} {
			t.Run(c.name, func(t *testing.T) {
				rt, in := newTempRuntime(t, c.cfg)
				ref, refIn := newTempRuntime(t, c.cfg)
				// Every reference Run is of a text no other Run used (the
				// trailing spaces differ), so each is parsed and planned.
				spaces := 0
				fresh := func(text string) *Query {
					spaces++
					return ref.MustRun(text + strings.Repeat(" ", spaces))
				}
				var qs, refs []*Query
				deploy := func() {
					for _, text := range []string{selText, aggText} {
						qs = append(qs, rt.MustRun(text))
						refs = append(refs, fresh(text))
					}
				}
				deploy()
				deploy()
				seen := 0
				for e := 1; e <= 8; e++ {
					switch e {
					case 4:
						deploy() // late queries join the warm live ones
					case 6:
						qs[0].Stop()
						refs[0].Stop()
					}
					tempEpoch(rt, in, e)
					tempEpoch(ref, refIn, e)
					for i, q := range qs {
						got, want := rowKeys(t, q), rowKeys(t, refs[i])
						if !slices.Equal(got, want) {
							t.Fatalf("epoch %d, query %d: rows %v, want %v", e, i, got, want)
						}
						seen += len(got)
					}
				}
				if seen == 0 {
					t.Fatal("no query read a row")
				}
				for i, q := range qs {
					if first := qs[i%2]; q.Partition != first.Partition {
						t.Fatalf("query %d planned %s again", i, q.SQL)
					}
					if i >= 2 && refs[i].Partition == refs[i-2].Partition {
						t.Fatalf("reference %d reused a plan", i)
					}
				}
				if c.cfg.Parallelism == 2 && qs[1].Deployment.Shards != 2 {
					t.Fatalf("the aggregate runs %d shards at P=2", qs[1].Deployment.Shards)
				}
			})
		}
	})

	t.Run("last Stop forgets", func(t *testing.T) {
		rt, _ := newTempRuntime(t, Config{SharedPrefixes: true})
		q1, q2 := rt.MustRun(selText), rt.MustRun(selText)
		if q1.Partition != q2.Partition {
			t.Fatal("a live text was planned again")
		}
		q1.Stop()
		q1.Stop() // a second Stop releases nothing
		if _, live := livePlans(rt, selText); live != 1 {
			t.Fatalf("live %d after one of two stopped, want 1", live)
		}
		q3 := rt.MustRun(selText)
		if q3.Partition != q2.Partition {
			t.Fatal("a text still live was planned again")
		}
		q2.Stop()
		q3.Stop()
		if n, _ := livePlans(rt, selText); n != 0 {
			t.Fatalf("%d plans kept after the last Stop", n)
		}
		if q4 := rt.MustRun(selText); q4.Partition == q3.Partition {
			t.Fatal("a text with no live query deployed a forgotten plan")
		}
	})

	t.Run("catalog changes", func(t *testing.T) {
		for _, c := range []struct {
			name   string
			change func(*Runtime) error
		}{
			{"RegisterStream", func(rt *Runtime) error {
				_, err := rt.RegisterStream("Other", sensor.ReadingSchema("Other"), 5)
				return err
			}},
			{"AddView", func(rt *Runtime) error {
				_, err := rt.Run(`CREATE VIEW Hot AS (SELECT h.room AS room FROM Temp h WHERE h.value > 90)`)
				return err
			}},
			{"SetStats", func(rt *Runtime) error {
				st := rt.Cat.Stats()
				st.NetworkDiameter++
				rt.Cat.SetStats(st)
				return nil
			}},
		} {
			t.Run(c.name, func(t *testing.T) {
				rt, _ := newTempRuntime(t, Config{SharedPrefixes: true})
				old := rt.MustRun(selText)
				if err := c.change(rt); err != nil {
					t.Fatal(err)
				}
				fresh := rt.MustRun(selText)
				if fresh.Partition == old.Partition {
					t.Fatalf("a plan made before %s was reused", c.name)
				}
				again := rt.MustRun(selText)
				if again.Partition != fresh.Partition {
					t.Fatal("the new plan is not reused")
				}
				old.Stop() // planned before the replacement: releases nothing
				if _, live := livePlans(rt, selText); live != 2 {
					t.Fatalf("live %d after the old query stopped, want 2", live)
				}
				fresh.Stop()
				again.Stop()
				if n, _ := livePlans(rt, selText); n != 0 {
					t.Fatalf("%d plans kept after the last Stop", n)
				}
			})
		}
	})

	t.Run("live state plans every time", func(t *testing.T) {
		rt, _ := newTestRuntime(t)
		machines := data.NewSchema("Machines", data.Col("name", data.TString), data.Col("room", data.TString))
		rel := data.NewRelation(machines)
		rel.MustInsert(data.Str("ws-a"), data.Str("L1"))
		if err := rt.RegisterTable("Machines", rel); err != nil {
			t.Fatal(err)
		}
		if _, err := rt.RegisterStream("Pulse", pulseSchema(), 1); err != nil {
			t.Fatal(err)
		}
		for _, text := range []string{
			`SELECT t.room, t.value FROM Temperature t WHERE t.value > 22`,
			`SELECT m.name, p.v FROM Pulse p [RANGE 5 SECONDS], Machines m WHERE p.v > 0 AND m.room = 'L1'`,
			`WITH RECURSIVE up(a) AS (SELECT m.name FROM Machines m UNION ALL SELECT u.a FROM up u, Machines m WHERE u.a = m.room) SELECT a FROM up`,
		} {
			q1, q2 := rt.MustRun(text), rt.MustRun(text)
			if q1.Partition != nil && q1.Partition == q2.Partition {
				t.Fatalf("%s was not planned again", text)
			}
		}
		view := `CREATE VIEW Warm AS (SELECT t.room AS room FROM Temperature t WHERE t.value > 24)`
		rt.MustRun(view)
		if _, err := rt.Run(view); err == nil {
			t.Fatal("a second CREATE VIEW of one name was accepted")
		}
		if n, _ := livePlans(rt, ""); n != 0 {
			t.Fatalf("%d plans kept for statements that read live state", n)
		}
	})

	t.Run("failed hit counts nothing", func(t *testing.T) {
		rt, _ := newTempRuntime(t, Config{SharedPrefixes: true})
		q1 := rt.MustRun(selText)
		rt.qn.Store(0) // the next deploy's name, q1, is taken
		if _, err := rt.Run(selText); err == nil {
			t.Fatal("a deploy under a taken name succeeded")
		}
		if _, live := livePlans(rt, selText); live != 1 {
			t.Fatalf("live %d after a failed Run, want 1", live)
		}
		q1.Stop()
		if n, _ := livePlans(rt, selText); n != 0 {
			t.Fatalf("%d plans kept after the last Stop", n)
		}
	})
}

// TestSharedPlanDeploysUnchanged deploys one optimizer result many ways —
// shared and serial, private on another runtime, sharded, to a display —
// stops some, rescales, saves and restores, and requires the plan and the
// statement it was built from to print as they did before, and every
// deployment of a text to read the same rows.
func TestSharedPlanDeploysUnchanged(t *testing.T) {
	w, err := plan.NewWorker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	path := filepath.Join(t.TempDir(), "snap")
	cfg := Config{SharedPrefixes: true, SnapshotPath: path, Topology: plan.Topology{Parallelism: 2}}
	rt, in := newTempRuntime(t, cfg)
	priv, privIn := newTempRuntime(t, Config{})

	var all [][]*Query
	var builts, stmts []string
	for _, text := range []string{selText, aggText, selText + " OUTPUT TO board"} {
		first := rt.MustRun(text)
		res := first.Partition
		builts = append(builts, res.Chosen.StreamPlan.String())
		stmts = append(stmts, res.Chosen.StreamStmt.String())
		qs := []*Query{first, rt.MustRun(text)}
		for _, d := range []struct {
			rt   *Runtime
			opts plan.CompileOptions
		}{{rt, plan.CompileOptions{}}, {rt, plan.CompileOptions{Topology: plan.Topology{Parallelism: 2}}}, {priv, plan.CompileOptions{}}} {
			q, err := d.rt.deploy(text, res.Chosen.StreamPlan, d.opts)
			if err != nil {
				t.Fatalf("deploy %s with %+v: %v", text, d.opts, err)
			}
			qs = append(qs, q)
		}
		all = append(all, qs)
	}
	for e := 1; e <= 3; e++ {
		tempEpoch(rt, in, e)
		tempEpoch(priv, privIn, e)
	}
	if err := rt.Rescale([]string{w.Addr()}); err != nil {
		t.Fatal(err)
	}
	for e := 4; e <= 5; e++ {
		tempEpoch(rt, in, e)
		tempEpoch(priv, privIn, e)
	}
	for i, qs := range all {
		want := rowKeys(t, qs[0])
		for j, q := range qs[1:] {
			if got := rowKeys(t, q); !slices.Equal(got, want) {
				t.Fatalf("text %d, deployment %d: rows %v, want %v", i, j+1, got, want)
			}
		}
		qs[1].Stop()
	}
	if skipped, err := rt.SaveSnapshot(); err != nil || len(skipped) > 0 {
		t.Fatalf("save: skipped %v, %v", skipped, err)
	}
	back, _ := newTempRuntime(t, cfg)
	restored, _, err := back.RestoreSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range restored {
		q.Stop()
	}
	for _, qs := range all {
		for _, q := range qs {
			q.Stop()
		}
	}
	for i, qs := range all {
		res := qs[0].Partition
		if got := res.Chosen.StreamPlan.String(); got != builts[i] {
			t.Fatalf("text %d: plan now prints\n%s\nwas\n%s", i, got, builts[i])
		}
		if got := res.Chosen.StreamStmt.String(); got != stmts[i] {
			t.Fatalf("text %d: statement now prints\n%s\nwas\n%s", i, got, stmts[i])
		}
	}
}

// TestLivePlanConcurrentRunStop: two goroutines Run, read and Stop the text
// a third query keeps live, over a warm window; every Run deploys a query
// that reads what the kept one reads, and after the last Stop nothing is
// kept. Pushes stay out of the race: a warm start must not overlap one.
func TestLivePlanConcurrentRunStop(t *testing.T) {
	rt, in := newTempRuntime(t, Config{SharedPrefixes: true})
	keep := rt.MustRun(selText)
	tempEpoch(rt, in, 1)
	want := rowKeys(t, keep)
	if len(want) == 0 {
		t.Fatal("the kept query reads nothing")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				q, err := rt.Run(selText)
				if err != nil {
					errs <- err
					return
				}
				rows, err := q.Snapshot()
				q.Stop()
				if err != nil || len(rows) != len(want) {
					errs <- fmt.Errorf("a deployed query read %d rows, want %d (%v)", len(rows), len(want), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, live := livePlans(rt, selText); live != 1 {
		t.Fatalf("live %d with only the kept query running, want 1", live)
	}
	keep.Stop()
	if n, _ := livePlans(rt, selText); n != 0 {
		t.Fatalf("%d plans kept after the last Stop", n)
	}
	if chains, _ := rt.Sharing().Stats(); chains != 0 || in.Subscribers() != 0 {
		t.Fatalf("%d chains, %d subscribers after the last Stop", chains, in.Subscribers())
	}
}

// TestRepeatRunAllocs pins what a Run of a text a live query already runs
// allocates on query-churn's configuration (shared prefixes): no parse and
// no plan, only the deploy — the query's name and Query, the coordinator's
// entry, and what attaching to the live chain and result takes.
func TestRepeatRunAllocs(t *testing.T) {
	rt, _ := newTempRuntime(t, Config{SharedPrefixes: true})
	keep := rt.MustRun(selText)
	const runs = 200
	var before, after runtime.MemStats
	var mallocs uint64
	for range runs {
		runtime.ReadMemStats(&before)
		q, err := rt.Run(selText)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if q.Partition != keep.Partition {
			t.Fatal("a live text was planned again")
		}
		mallocs += after.Mallocs - before.Mallocs
		q.Stop()
	}
	if n := mallocs / runs; n != 42 && !testproc.Race {
		t.Errorf("a repeated Run allocates %d times, want %d", n, 42)
	}
}
