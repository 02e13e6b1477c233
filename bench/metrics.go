package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"aspen/internal/data"
)

// metricDef names one metric and its unit. The two tables below are the
// benchmark's vocabulary: BENCHMARK.json lists exactly these names, and the
// smoke test fails when the two drift apart.
type metricDef struct {
	Name, Unit string
}

// endToEnd is what a user of the running system sees; every workload
// reports every one (see README.md for what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tuples_per_s", "tuples/s"},
	{"epoch_p50_ms", "ms"},
	{"request_p50_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// perLayer is the layer ledger of the traced run. A layer a workload does
// not exercise reports 0.
var perLayer = []metricDef{
	{"stream.window.self_ns_per_tuple", "ns"},
	{"stream.join.self_ns_per_tuple", "ns"},
	{"stream.filter.self_ns_per_tuple", "ns"},
	{"stream.agg.self_ns_per_tuple", "ns"},
	{"stream.project.self_ns_per_tuple", "ns"},
	{"stream.materialize.self_ns_per_tuple", "ns"},
	{"stream.join.out_per_in", "ratio"},
	{"stream.filter.pass_share", "ratio"},
	{"stream.agg.emits_per_in", "ratio"},
	{"stream.materialize.snapshot_us", "us"},
	{"stream.advance.us_per_tick", "us"},
	{"stream.input.fanout_ns_per_tuple", "ns"},
	{"stream.input.subscribers", "count"},
	{"stream.exchange.push_ns_per_tuple", "ns"},
	{"stream.exchange.skew", "ratio"},
	{"stream.wire.bytes_per_tuple", "B"},
	{"stream.wire.result_bytes_per_epoch", "B"},
	{"stream.worker.replica_ns_per_tuple", "ns"},
	{"stream.worker.busy_share", "ratio"},
	{"stream.result.send_ns_per_row", "ns"},
	{"stream.flush.barrier_us", "us"},
	{"stream.remote.tax_x", "x"},
	{"sql.parse_us", "us"},
	{"federation.optimize_us", "us"},
	{"plan.compile_us", "us"},
	{"core.stop_us", "us"},
	{"core.deploy_occupancy_ms", "ms"},
	{"plan.share.chains", "count"},
	{"plan.share.attached", "count"},
	{"plan.snapshot.save_ms", "ms"},
	{"plan.snapshot.restore_ms", "ms"},
	{"plan.snapshot.bytes", "B"},
	{"sensor.join_epoch_ms", "ms"},
	{"sensor.select_epoch_ms", "ms"},
	{"sensornet.msgs_per_epoch", "count"},
	{"sensornet.path_us", "us"},
	{"smartcis.env.reading_us", "us"},
	{"smartcis.locate_us", "us"},
	{"smartcis.free_machines_us", "us"},
	{"routing.nearest_us", "us"},
	{"gui.render_ms", "ms"},
	{"gui.paints_per_epoch", "count"},
	{"core.epoch.stream_share", "ratio"},
	{"runtime.alloc_b_per_tuple", "B"},
	{"runtime.alloc_kb_per_epoch", "kB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_total_ms", "ms"},
	{"bench.generator_share", "ratio"},
	{"bench.trace_overhead_x", "x"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload: the record kept in result files and
// the source of the driver's last line.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// Epochs is the measured epoch count; Samples the latency samples
	// behind the epoch percentiles (equal unless a workload drops some).
	Epochs  int `json:"epochs"`
	Samples int `json:"samples"`
	// The untraced phase's exact counts, and — in a traced run — those of
	// the traced phase, which ran a fresh instance on the same seed.
	exact
	Traced    *exact                 `json:"traced,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Diagnostics are printed and kept but carry no bound: they proved too
	// noisy run to run to judge a change by (see README.md).
	Diagnostics map[string]metricValue `json:"diagnostics,omitempty"`
}

// set records a metric by name; the unit comes from the tables above.
func (r *runResult) set(name string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
}

func unitOf(name string) string {
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tbl {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic(fmt.Sprintf("bench: metric %q is not in the tables of metrics.go", name))
}

// fail counts one failed operation, keeping the first few reasons.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// complete fills the metrics the run's mode reports and a run did not set:
// a per-layer metric the workload does not exercise is 0, a missing
// end-to-end metric is a bug.
func (r *runResult) complete() error {
	tbl := endToEnd
	if r.Trace {
		tbl = perLayer
	}
	for _, d := range tbl {
		v, ok := r.Metrics[d.Name]
		if !ok {
			if !r.Trace {
				return fmt.Errorf("bench: workload %s did not report %s", r.Workload, d.Name)
			}
			r.set(d.Name, 0)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("bench: %s/%s is %v", r.Workload, d.Name, v.Value)
		}
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// msOf converts durations to milliseconds for the quantile helpers.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// digestRows is an order-free fingerprint of the rows' values at cols (all
// columns when cols is nil).
func digestRows(rows []data.Tuple, cols []int) string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = r.KeyOn(cols)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%d:%016x", len(rows), h.Sum64())
}
