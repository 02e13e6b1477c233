package main

import (
	"io"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aspen/internal/data"
)

// TestMetricTablesMatchSpec keeps metrics.go and BENCHMARK.json saying the
// same thing: same names, same units, same order, same workloads.
func TestMetricTablesMatchSpec(t *testing.T) {
	spec, err := readBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, metrics.go has %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %v, metrics.go has %v", layers, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads: BENCHMARK.json has %v, main.go has %v", names, workloads)
	}
}

// tinyRun runs one workload at smoke-test scale.
func tinyRun(t *testing.T, workload string, seed int64, trace bool) *runResult {
	t.Helper()
	c := &runConfig{workload: workload, seed: seed, trace: trace, epochs: 40, tiny: true,
		setups: 1, results: t.TempDir(), out: io.Discard}
	res, err := runWorkload(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d trace %v: %d of %d operations failed: %v", workload, seed, trace, res.Failed, res.Attempted, res.Failures)
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s trace %v: %d metrics reported, %d defined", workload, trace, len(res.Metrics), len(want))
	}
	for _, d := range want {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s trace %v: %s not reported", workload, trace, d.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s trace %v: %s = %v", workload, trace, d.Name, v.Value)
		case !trace && v.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", workload, d.Name, v.Value)
		case v.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, want %q", workload, d.Name, v.Unit, d.Unit)
		}
	}
	return res
}

// exactCounts are the per-layer metrics that are counts made by the program
// and must repeat exactly for one seed and epoch count.
var exactCounts = []string{
	"sensornet.msgs_per_epoch",
	"plan.share.chains",
	"plan.share.attached",
	"stream.input.subscribers",
}

// TestWorkloadsTiny runs every workload small: oracles pass, every metric is
// reported and finite, exact counts repeat for a seed — in the traced phase
// too, which runs a fresh instance — and the seed reaches the result.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			a, other := tinyRun(t, w, 1, false), tinyRun(t, w, 2, false)
			ta, tb := tinyRun(t, w, 1, true), tinyRun(t, w, 1, true)
			if a.exact != ta.exact {
				t.Errorf("two untraced seed-1 phases differ: %+v vs %+v", a.exact, ta.exact)
			}
			if ta.Traced == nil || *ta.Traced != a.exact {
				t.Errorf("traced and untraced seed-1 phases differ: %+v vs %+v", ta.Traced, a.exact)
			}
			if a.Tuples != other.Tuples {
				t.Errorf("the seed changed the load: %d vs %d source tuples", a.Tuples, other.Tuples)
			}
			if a.Digest == other.Digest {
				t.Errorf("seeds 1 and 2 produced the same result %s", a.Digest)
			}
			for _, name := range exactCounts {
				if ta.Metrics[name] != tb.Metrics[name] {
					t.Errorf("%s: %v then %v on the same seed", name, ta.Metrics[name].Value, tb.Metrics[name].Value)
				}
			}
		})
	}
}

// TestOraclesCatchWrongResults hands the oracles a result that is wrong by
// one row, so that a run cannot pass on an oracle that checks nothing.
func TestOraclesCatchWrongResults(t *testing.T) {
	f := newDeskField(1, 8)
	f.step()
	want := f.reference()
	var rows []data.Tuple
	for room, r := range want {
		rows = append(rows, data.NewTuple(0, data.Str(room), data.Float(r.sum/float64(r.count)), data.Int(r.count)))
	}
	if err := checkPipeRows(rows, want); err != nil {
		t.Errorf("pipeline oracle rejects its own reference: %v", err)
	}
	rows[0].Vals[2] = data.Int(rows[0].Vals[2].AsInt() + 1)
	if err := checkPipeRows(rows, want); err == nil {
		t.Error("pipeline oracle accepted a count that is one off")
	}

	c := &runConfig{workload: "building", seed: 1, tiny: true, setups: 1, results: t.TempDir(), out: io.Discard}
	w, err := openBuilding(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	res := c.newResult()
	w.run(res, newPhase(), nil, 3, 5)
	occ, err := w.occ.Snapshot()
	if err != nil || res.Failed != 0 || len(occ) == 0 {
		t.Fatalf("building run: %d rows, %d failures %v, err %v", len(occ), res.Failed, res.Failures, err)
	}
	if err := w.checkOccupancy(occ); err != nil {
		t.Errorf("occupancy oracle rejects the live result: %v", err)
	}
	// Every seated desk has been seated since the first epoch or was just
	// changed; drop the rows of one that is stable.
	var stable deskID
	for _, d := range w.desks {
		if w.epochs-w.changed[d] >= 1 && w.app.DeskOccupied(d.room, d.num) {
			stable = d
		}
	}
	var missing []data.Tuple
	for _, r := range occ {
		if r.Vals[0].AsString() != stable.room || int(r.Vals[1].AsInt()) != stable.num {
			missing = append(missing, r)
		}
	}
	if err := w.checkOccupancy(missing); err == nil {
		t.Errorf("occupancy oracle accepted a result without the occupied desk %v", stable)
	}
}

// TestCompareVerdicts feeds -compare sides whose relation is known.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	side := func(name string, epochs int, epochMS ...float64) string {
		f := &resultFile{Provenance: map[string]string{"commit": name}}
		for i, v := range epochMS {
			r := &runResult{Workload: "building", Seed: int64(i + 1), Epochs: epochs, Metrics: map[string]metricValue{}}
			r.set("epoch_p50_ms", v)
			f.Runs = append(f.Runs, r)
		}
		path := filepath.Join(dir, name+".json")
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := side("a", 220, 100, 101, 102)
	for _, c := range []struct {
		name, verdict string
		b             []float64
	}{
		{"same", "ok", []float64{101, 102, 100}},
		{"slower", "regressed", []float64{150, 151, 152}},
		{"noisy", "unresolved", []float64{90, 101, 140}},
		{"noisy-but-all-faster", "ok", []float64{50, 60, 70}},
	} {
		var out strings.Builder
		err := compareFiles(&out, a, side(c.name, 220, c.b...))
		if !strings.Contains(out.String(), c.verdict) || (err != nil) != (c.verdict == "regressed") {
			t.Errorf("%s: want %s, got err %v and\n%s", c.name, c.verdict, err, out.String())
		}
	}
	if err := compareFiles(io.Discard, a, side("short", 110, 100, 101, 102)); err == nil {
		t.Error("-compare accepted sides with different epoch counts")
	}
	if err := compareFiles(io.Discard, a, side("fewer", 220, 100, 101)); err == nil {
		t.Error("-compare accepted sides with different seeds")
	}
}
