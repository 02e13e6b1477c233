package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"aspen/internal/core"
	"aspen/internal/data"
	"aspen/internal/sensor"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// The query-churn workload: many standing selections over one stream on
// shared prefix chains, with the control plane busy beside the data plane —
// every epoch the oldest query stops and a new one deploys, every 32nd
// epoch the coordinator saves a durable snapshot, and at the end a fresh
// runtime restores it.

const (
	churnReads     = 4  // queries the reader snapshots per epoch
	churnSaveEvery = 32 // epochs between SaveSnapshot calls
)

// churnCuts pass at most a tenth of the readings, which are spread evenly
// over (0, 100).
var churnCuts = []float64{90, 92, 94, 96, 97, 98}

// churnParams is the k-th query's selection, cycling through every
// (cut, desk) pair.
func churnParams(k int) (cut float64, desk int) {
	return churnCuts[k%len(churnCuts)], 1 + k/len(churnCuts)%4
}

func churnSQL(cut float64, desk int) string {
	return fmt.Sprintf("SELECT q.room, q.desk, q.value FROM Temp q [RANGE 2 SECONDS] WHERE q.value > %v AND q.desk > %d", cut, desk)
}

type churnQuery struct {
	q    *core.Query
	cut  float64
	desk int
}

// churn is one deployed instance of the workload.
type churn struct {
	rt   *core.Runtime
	in   *stream.Input
	path string
	live []churnQuery // oldest first
	next int          // parameters of the next query to deploy

	rng        *rand.Rand
	rooms      []string
	vals, prev []float64 // this epoch's and the last epoch's readings
	epochs     int

	// nil on an untraced instance, where they record nothing
	cx                                              *tctx
	lEpoch, lPush, lTick, lSnap, lRun, lStop, lSave *layer
	ph                                              *phase // collects the deploy path's timings
}

func openChurn(c *runConfig, tr *tracer, ph *phase) (w *churn, err error) {
	rooms := c.size(256, 8)
	w = &churn{rng: rand.New(rand.NewSource(c.seed)), ph: ph,
		path: filepath.Join(c.results, fmt.Sprintf("churn-%d.snap", os.Getpid())),
		cx:   tr.ctx(), lEpoch: tr.layer("epoch"), lPush: tr.layer("stream.input.push"), lTick: tr.layer("stream.advance"),
		lSnap: tr.layer("core.snapshot"), lRun: tr.layer("core.run"), lStop: tr.layer("core.stop"),
		lSave: tr.layer("plan.snapshot.save")}
	for r := 0; r < rooms; r++ {
		w.rooms = append(w.rooms, fmt.Sprintf("R%03d", r))
	}
	w.vals = make([]float64, rooms*pipeDesks)
	if err := os.MkdirAll(c.results, 0o755); err != nil {
		return nil, err
	}
	if w.rt, w.in, err = newChurnRuntime(w.path); err != nil {
		return nil, err
	}
	for i := 0; i < c.size(256, 12); i++ {
		if _, err := w.deploy(); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

func newChurnRuntime(path string) (*core.Runtime, *stream.Input, error) {
	rt := core.New(core.Config{SharedPrefixes: true, SnapshotPath: path})
	in, err := rt.RegisterStream("Temp", sensor.ReadingSchema("Temp"), 0)
	if err != nil {
		rt.Close()
		return nil, nil, err
	}
	return rt, in, nil
}

func (w *churn) close() {
	for _, cq := range w.live {
		cq.q.Stop()
	}
	w.live = nil
	w.rt.Close()
	os.Remove(w.path)
}

// deploy runs the next standing query and returns how long Run took.
func (w *churn) deploy() (time.Duration, error) {
	cut, desk := churnParams(w.next)
	w.next++
	text := churnSQL(cut, desk)
	var split time.Duration
	if w.cx != nil {
		// Parse and optimize once more beside Run, to split Run's time:
		// both are pure functions of the text and the catalog.
		t0 := time.Now()
		stmt, err := sql.ParseSelect(text)
		if err != nil {
			return 0, err
		}
		t1 := time.Now()
		if _, err := w.rt.Federator().Optimize(stmt); err != nil {
			return 0, err
		}
		split = time.Since(t0)
		w.ph.sample("sql.parse_us", t1.Sub(t0))
		w.ph.sample("federation.optimize_us", split-t1.Sub(t0))
	}
	var q *core.Query
	var err error
	d := w.cx.do(w.lRun, 1, func() { q, err = w.rt.Run(text) })
	if err != nil {
		return d, err
	}
	if w.cx != nil {
		w.ph.sample("plan.compile_us", d-split)
	}
	w.live = append(w.live, churnQuery{q: q, cut: cut, desk: desk})
	return d, nil
}

// step draws the epoch's readings from the seed: for each desk number the
// rooms' readings are a seeded permutation of one fixed, evenly spaced set
// of values in (0, 100). Which room reads what changes every epoch; how
// many readings pass each query's selection never does, so the state the
// queries hold is the same size whatever the seed.
func (w *churn) step() []data.Tuple {
	w.prev = append(w.prev[:0], w.vals...)
	rooms := len(w.rooms)
	for d := 0; d < pipeDesks; d++ {
		for i, r := range w.rng.Perm(rooms) {
			w.vals[r*pipeDesks+d] = (float64(i) + 0.5) * 100 / float64(rooms)
		}
	}
	w.epochs++
	ts := vtime.Time(w.epochs) * vtime.Second
	out := make([]data.Tuple, len(w.vals))
	for i, v := range w.vals {
		out[i] = data.NewTuple(ts, data.Int(int64(i)), data.Str(w.rooms[i/pipeDesks]),
			data.Int(int64(i%pipeDesks+1)), data.Float(v))
	}
	return out
}

// reference evaluates one query naively over the window's contents: this
// epoch's readings and the previous epoch's.
func (w *churn) reference(cut float64, desk int) []string {
	var out []string
	for _, vals := range [][]float64{w.prev, w.vals} {
		for i, v := range vals {
			if d := i%pipeDesks + 1; v > cut && d > desk {
				out = append(out, data.NewTuple(0, data.Str(w.rooms[i/pipeDesks]), data.Int(int64(d)), data.Float(v)).Key())
			}
		}
	}
	sort.Strings(out)
	return out
}

func rowKeys(rows []data.Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Key()
	}
	sort.Strings(out)
	return out
}

// run drives warm-up and measured epochs.
func (w *churn) run(res *runResult, tr *tracer, warmup, epochs int) {
	ph := w.ph
	for e := -warmup; e <= epochs; e++ {
		if e == 0 {
			ph.open()
		}
		if e == epochs {
			break
		}
		g0 := time.Now()
		tuples := w.step()
		now := vtime.Time(w.epochs) * vtime.Second
		gen := time.Since(g0)

		readers := make([]churnQuery, churnReads)
		for i := range readers {
			readers[i] = w.live[(churnReads*w.epochs+i)%len(w.live)]
		}
		snaps := make([][]data.Tuple, churnReads)
		var err error
		d := w.cx.do(w.lEpoch, len(tuples), func() {
			w.cx.do(w.lPush, len(tuples), func() { pushBatches(w.in, tuples) })
			w.cx.do(w.lTick, 1, func() { w.rt.Sched.RunUntil(now) })
			for i, cq := range readers {
				w.cx.do(w.lSnap, 1, func() { snaps[i], err = cq.q.Snapshot() })
				if err != nil {
					break
				}
			}
		})
		if e >= 0 {
			ph.timeKernel()
			ph.gen += gen
			ph.lat = append(ph.lat, d)
			ph.tuples += int64(len(tuples))
			res.Attempted++
			if err != nil {
				res.fail("epoch %d: snapshot: %v", e, err)
			} else if e%checkEvery == checkEvery-1 || e == epochs-1 {
				o0 := time.Now()
				for i, cq := range readers {
					if !slices.Equal(rowKeys(snaps[i]), w.reference(cq.cut, cq.desk)) {
						res.fail("epoch %d: query value > %v AND desk > %d differs from the reference", e, cq.cut, cq.desk)
						break
					}
				}
				ph.oracle += time.Since(o0)
			}
			var all []data.Tuple
			for _, s := range snaps {
				all = append(all, s...)
			}
			ph.rows = len(all)
			if e == epochs-1 {
				ph.digest = digestRows(all, nil)
			}
		}

		// Control plane, inside the window: retire the oldest query, deploy
		// a new one, and every so often save the coordinator.
		oldest := w.live[0]
		w.live = w.live[1:]
		ph.sample("core.stop_us", w.cx.do(w.lStop, 1, oldest.q.Stop))
		dd, err := w.deploy()
		if e >= 0 {
			res.Attempted++
			if err != nil {
				res.fail("epoch %d: deploy: %v", e, err)
			}
			ph.requests = append(ph.requests, dd)
		}
		if w.epochs%churnSaveEvery == 0 {
			if err := w.save(); e >= 0 {
				res.Attempted++
				if err != nil {
					res.fail("epoch %d: %v", e, err)
				}
			}
		}
		tr.endEpoch(e >= 0)
	}
	ph.close()
	ph.subs = w.in.Subscribers()
	ph.chains, ph.attached = w.rt.Sharing().Stats()
}

// save takes one durable snapshot; an incomplete one is a failure.
func (w *churn) save() error {
	var skipped []string
	var err error
	d := w.cx.do(w.lSave, 1, func() { skipped, err = w.rt.SaveSnapshot() })
	w.ph.sample("plan.snapshot.save_ms", d)
	if err == nil && len(skipped) > 0 {
		err = fmt.Errorf("snapshot skipped %v", skipped)
	}
	if err != nil {
		err = fmt.Errorf("save snapshot: %w", err)
	}
	return err
}

// restoreCheck saves once more, reads every live query, restores the file
// into a fresh runtime and requires every restored query to read the same.
func (w *churn) restoreCheck(res *runResult) {
	res.Attempted++
	if err := w.save(); err != nil {
		res.fail("%v", err)
		return
	}
	if st, err := os.Stat(w.path); err == nil {
		w.ph.snapSize = st.Size()
	}
	want := map[string][]string{}
	for _, cq := range w.live {
		rows, err := cq.q.Snapshot()
		if err != nil {
			res.fail("pre-restore snapshot: %v", err)
			return
		}
		want[cq.q.Name()] = rowKeys(rows)
	}
	rt, _, err := newChurnRuntime(w.path)
	if err != nil {
		res.fail("restore runtime: %v", err)
		return
	}
	defer rt.Close()
	res.Attempted++
	t0 := time.Now()
	qs, skipped, err := rt.RestoreSnapshot()
	w.ph.restore = time.Since(t0)
	if err != nil || len(skipped) > 0 || len(qs) != len(want) {
		res.fail("restore: %d of %d queries, skipped %v, err %v", len(qs), len(want), skipped, err)
		return
	}
	for _, q := range qs {
		res.Attempted++
		rows, err := q.Snapshot()
		if err != nil || !slices.Equal(rowKeys(rows), want[q.Name()]) {
			res.fail("restored query %s differs from its pre-save snapshot (err %v)", q.Name(), err)
		}
		q.Stop()
	}
}

// churnPhase opens a fresh instance, drives warm-up and measured epochs
// through it and, after a measured window, checks that its snapshot restores.
func churnPhase(c *runConfig, tr *tracer, res *runResult, epochs int) (*phase, error) {
	ph := newPhase()
	w, err := openChurn(c, tr, ph)
	if err != nil {
		return nil, err
	}
	defer w.close()
	warmup, _ := c.epochCounts()
	w.run(res, tr, warmup, epochs)
	if epochs > 0 {
		ph.liveHeap = liveHeapMB()
		w.restoreCheck(res)
	}
	return ph, nil
}

// runChurn is the query-churn workload.
func runChurn(c *runConfig) (*runResult, error) {
	res := c.newResult()
	run := func(tr *tracer, res *runResult, epochs int) (*phase, error) { return churnPhase(c, tr, res, epochs) }
	phases, err := c.measureUntraced(res, run)
	if err != nil || !c.trace {
		return res, err
	}
	base := phases[len(phases)-1]
	epochs := res.Epochs

	// Traced phase: a fresh instance on the same seed lives through the same
	// epochs with the calls into each layer recorded.
	tr := newTracer()
	traced, err := run(tr, res, epochs)
	if err != nil {
		return nil, err
	}
	res.recordTraced(traced)
	push, snap, adv := tr.layer("stream.input.push"), tr.layer("core.snapshot"), tr.layer("stream.advance")
	res.set("stream.input.fanout_ns_per_tuple", ratio(float64(push.busy), float64(push.items)))
	res.set("stream.input.subscribers", float64(base.subs))
	res.set("stream.materialize.snapshot_us", ratio(float64(snap.busy), 1e3*float64(snap.calls)))
	res.set("stream.advance.us_per_tick", ratio(float64(adv.busy), 1e3*float64(adv.calls)))
	for _, name := range []string{"sql.parse_us", "federation.optimize_us", "plan.compile_us", "core.stop_us"} {
		res.set(name, 1e3*median(msOf(traced.samples[name])))
	}
	res.set("plan.share.chains", float64(base.chains))
	res.set("plan.share.attached", float64(base.attached))
	res.set("plan.snapshot.save_ms", median(msOf(traced.samples["plan.snapshot.save_ms"])))
	res.set("plan.snapshot.restore_ms", ms(traced.restore))
	res.set("plan.snapshot.bytes", float64(base.snapSize))
	setRuntimeMetrics(res, base, epochs)
	res.set("bench.trace_overhead_x", ratio(median(msOf(traced.lat)), median(msOf(base.lat))))
	return res, c.finishTrace(tr)
}
