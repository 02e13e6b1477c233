package main

import (
	"runtime"
	"strings"
	"time"

	"aspen/internal/data"
)

// phase is the life of one workload instance: opened, warmed up, and
// measured over a stretch of epochs (none, when only the set-up is timed).
type phase struct {
	opened   time.Time
	setup    time.Duration // opened → first measured epoch
	lat      []time.Duration
	requests []time.Duration // the request issued after each epoch
	up, down int64           // bytes the forwarder relayed in the window
	msgs     int64           // radio transmissions in the window (building)
	paints   int64           // display repaints in the window (building)
	wall     time.Duration   // first epoch start → last epoch end
	gen      time.Duration   // building inputs and timing the host kernel, inside wall
	oracle   time.Duration   // reference checks, inside wall
	tuples   int64
	rows     int
	digest   string               // digestRows of the last epoch's result
	subs     int                  // subscribers of the Temp input
	chains   int                  // shared chains and the queries attached to
	attached int                  // them at the end of the window (query-churn)
	restore  time.Duration        // RestoreSnapshot after the window (query-churn)
	snapSize int64                // bytes of the snapshot it read
	deploy   time.Duration        // OccupancyQuery's deployment (building)
	checks   map[int][]data.Tuple // epoch → snapshot at the oracle epochs (pipelines)
	// samples are timings of single calls taken beside the epochs, by the
	// per-layer metric they feed.
	samples map[string][]time.Duration

	kernel   []time.Duration // hostKernel, once after each measured epoch
	start    time.Time
	mem0     runtime.MemStats
	mem      memDelta
	liveHeap float64
}

func (ph *phase) tuplesPerSec() float64 {
	return ratio(float64(ph.tuples), (ph.wall - ph.gen - ph.oracle).Seconds())
}

// memDelta is what the Go runtime did over a window.
type memDelta struct {
	allocBytes, gcCycles uint64
	gcPause              time.Duration
}

// newPhase starts the set-up clock; call it before building the instance.
func newPhase() *phase {
	kernelOnce.Do(kernelInit) // the process's first phase pays for it, untimed
	return &phase{opened: time.Now(), checks: map[int][]data.Tuple{}, samples: map[string][]time.Duration{}}
}

// open starts the measured window: the warm-up is over.
func (ph *phase) open() {
	ph.setup = time.Since(ph.opened)
	runtime.ReadMemStats(&ph.mem0)
	ph.start = time.Now()
}

// sample keeps a timing taken inside the measured window; set-up and
// warm-up calls are dropped.
func (ph *phase) sample(name string, d time.Duration) {
	if !ph.start.IsZero() {
		ph.samples[name] = append(ph.samples[name], d)
	}
}

// timeKernel samples the host's speed; the time it takes is the
// benchmark's own, like the generator's.
func (ph *phase) timeKernel() {
	d := hostKernel()
	ph.kernel = append(ph.kernel, d)
	ph.gen += d
}

// exact is what must repeat for one seed and epoch count, traced or not:
// the source tuples entered in the window, and the row count and digest of
// the reader's last result (the digest leaves out columns that hold running
// float aggregates).
type exact struct {
	Tuples int64  `json:"tuples"`
	Rows   int    `json:"rows"`
	Digest string `json:"digest"`
}

func (ph *phase) exact() exact { return exact{ph.tuples, ph.rows, ph.digest} }

// close ends the measured window.
func (ph *phase) close() {
	ph.wall = time.Since(ph.start)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	ph.mem = memDelta{allocBytes: m.TotalAlloc - ph.mem0.TotalAlloc, gcCycles: uint64(m.NumGC - ph.mem0.NumGC),
		gcPause: time.Duration(m.PauseTotalNs - ph.mem0.PauseTotalNs)}
}

// liveHeapMB is the heap still reachable after a collection: state size.
// Two collections, because a sync.Pool gives its contents up over two.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// setRuntimeMetrics reports what the Go runtime did during the untraced
// phase and how much of its wall the benchmark itself used.
func setRuntimeMetrics(res *runResult, ph *phase, epochs int) {
	res.set("runtime.alloc_b_per_tuple", ratio(float64(ph.mem.allocBytes), float64(ph.tuples)))
	res.set("runtime.alloc_kb_per_epoch", ratio(float64(ph.mem.allocBytes)/1e3, float64(epochs)))
	res.set("runtime.gc_cycles", float64(ph.mem.gcCycles))
	res.set("runtime.gc_pause_total_ms", ms(ph.mem.gcPause))
	res.set("bench.generator_share", ratio((ph.gen+ph.oracle).Seconds(), ph.wall.Seconds()))
}

// record copies the untraced phase's exact counts into the result.
func (r *runResult) record(ph *phase, epochs int) {
	r.Epochs, r.Samples, r.exact = epochs, len(ph.lat), ph.exact()
}

// recordTraced keeps the traced phase's exact counts beside the untraced
// phase's; the two were fed the same seed and must agree.
func (r *runResult) recordTraced(ph *phase) {
	x := ph.exact()
	r.Traced = &x
	r.Attempted++
	if x != r.exact {
		r.fail("traced phase %+v differs from the untraced phase %+v", x, r.exact)
	}
}

// setEndToEnd reports the untraced run's metrics: the timings at reference
// speed (see hostspeed.go), and as diagnostics the wall-clock readings they
// were scaled from and the scale.
func (r *runResult) setEndToEnd(ph *phase, setups []float64) {
	slow := ratio(1e3*median(msOf(ph.kernel)), kernelQuietUS[r.Workload])
	lat := msOf(ph.lat)
	wall := map[string]float64{
		"setup_s":        median(setups),
		"epoch_p50_ms":   quantile(lat, 0.5),
		"epoch_p95_ms":   quantile(lat, 0.95),
		"request_p50_ms": median(msOf(ph.requests)),
	}
	r.Diagnostics = map[string]metricValue{
		"host_slowdown_x":   {Value: slow, Unit: "x"},
		"tuples_per_wall_s": {Value: ph.tuplesPerSec(), Unit: "tuples/s"},
		"epoch_p95_ms":      {Value: wall["epoch_p95_ms"] / slow, Unit: "ms"},
	}
	r.set("tuples_per_s", ph.tuplesPerSec()*slow)
	for _, name := range []string{"setup_s", "epoch_p50_ms", "request_p50_ms"} {
		r.set(name, wall[name]/slow)
		u := unitOf(name)
		r.Diagnostics[strings.TrimSuffix(name, "_"+u)+"_wall_"+u] = metricValue{Value: wall[name], Unit: u}
	}
	r.set("live_heap_mb", ph.liveHeap)
}
