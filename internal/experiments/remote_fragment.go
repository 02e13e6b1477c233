package experiments

import (
	"fmt"
	"time"

	"aspen/internal/data"
	"aspen/internal/plan"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// e2rEnv is the pure reading function shared by every engine copy in the
// E2-remote comparison: coordinator and workers sample identical values,
// so both deployment modes compute the same result.
func e2rEnv(n sensornet.Node, kind sensornet.SensorKind, now vtime.Time) (float64, bool) {
	return float64(n.ID%5) + float64(int64(now)/int64(vtime.Second)%3), true
}

// e2rHosts builds one side×side light-grid host registry; each "machine"
// in the comparison builds its own identical copy.
func e2rHosts(side int) *plan.SensorHosts {
	nw := sensornet.Grid(sensornet.DefaultConfig(), side, side, 100, side, sensornet.SensorLight)
	h := plan.NewSensorHosts()
	h.Add("light", sensor.NewEngine(nw, sensor.EnvFunc(e2rEnv)))
	return h
}

// e2rPlan is the E2-remote workload: a windowed per-room count over the
// reading stream a light-select fragment produces.
func e2rPlan() (*plan.Built, error) {
	w := &sql.WindowSpec{Kind: sql.WindowRange, Range: 4 * time.Second}
	scan := plan.NewScan("LightFeed", "lf", sensor.ReadingSchema("LightFeed"), w, 100, false)
	agg, err := plan.NewAggregate(scan, []string{"lf.room"},
		[]stream.AggSpec{{Kind: stream.AggCount, Alias: "n"}}, nil)
	if err != nil {
		return nil, err
	}
	return &plan.Built{Root: agg, Limit: -1}, nil
}

// runE2Remote drives epochs tick instants through the LightFeed plan at
// parallelism p over nWorkers loopback shard workers, in one of two modes:
// fragment=false keeps the epoch runner central and ships every raw
// reading through the Sharder over the wire; fragment=true pushes the
// sampling fragment into the shard replicas, so only merged result rows
// cross back. Returns the wall time and the raw tuples that crossed the
// wire coordinator→worker.
func runE2Remote(side, epochs, p, nWorkers int, fragment bool) (time.Duration, int, error) {
	frag := plan.SensorFragment{Name: "LightFeed", Sources: []string{"light"},
		Select: &sensor.SelectQuery{Rel: "l", Sensor: sensornet.SensorLight, Period: time.Second}}

	var nodes []string
	var workers []*stream.ShardWorker
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	for i := 0; i < nWorkers; i++ {
		var wk *stream.ShardWorker
		var err error
		if fragment {
			wk, err = plan.NewSensorWorker("127.0.0.1:0", e2rHosts(side))
		} else {
			wk, err = plan.NewWorker("127.0.0.1:0")
		}
		if err != nil {
			return 0, 0, err
		}
		workers = append(workers, wk)
		addr := wk.Addr()
		if fragment {
			addr += "=light"
		}
		nodes = append(nodes, addr)
	}

	b, err := e2rPlan()
	if err != nil {
		return 0, 0, err
	}
	eng := stream.NewEngine("e2r", vtime.NewScheduler())
	host := plan.Host{Engine: eng, Sensors: e2rHosts(side), Tick: time.Second}
	dep, err := plan.CompileStreamOpts(b, host, plan.CompileOptions{
		Topology:  plan.Topology{Parallelism: p, Nodes: nodes},
		Fragments: []plan.SensorFragment{frag},
	})
	if err != nil {
		return 0, 0, err
	}
	defer dep.Close()
	if fragment != (len(dep.RemoteFragments) == 1) {
		return 0, 0, fmt.Errorf("experiments: fragment mode %v but RemoteFragments = %v",
			fragment, dep.RemoteFragments)
	}

	se, _ := host.Sensors.Engine("light")
	in, ok := eng.Input("LightFeed")
	if !ok {
		return 0, 0, fmt.Errorf("experiments: LightFeed input not registered")
	}
	shipped := 0
	start := time.Now()
	for ep := 1; ep <= epochs; ep++ {
		now := vtime.Time(ep) * vtime.Time(vtime.Second)
		eng.Advance(now)
		if !fragment {
			var batch []data.Tuple
			se.RunSelectEpoch(frag.Select, now, func(tu data.Tuple) { batch = append(batch, tu) })
			in.PushBatch(batch)
			shipped += len(batch)
		}
	}
	dep.Flush()
	return time.Since(start), shipped, nil
}

// E2RemoteFragment measures what hosting a sensor fragment inside the
// remote shard replicas saves over the PR-8 shape — a central epoch
// runner shipping every raw reading through the Sharder to the workers.
// Same engines, same plan, same results; only the sampling location (and
// therefore the coordinator→worker traffic) differs.
func E2RemoteFragment() Table {
	t := Table{
		ID:     "E2R",
		Title:  "sensor fragment at worker vs raw readings over the wire (P=2, 2 workers, 200 epochs)",
		Header: []string{"grid", "raw-over-wire", "fragment-at-worker", "speedup", "raw tuples shipped"},
	}
	const epochs, p, nWorkers = 200, 2, 2
	for _, side := range []int{8, 12} {
		raw, shipped, err := runE2Remote(side, epochs, p, nWorkers, false)
		if err != nil {
			panic(err)
		}
		local, _, err := runE2Remote(side, epochs, p, nWorkers, true)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", side, side),
			raw.Truncate(time.Microsecond).String(),
			local.Truncate(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", float64(raw)/float64(local)), d(int64(shipped)),
		})
	}
	t.Notes = "the win is the eliminated coordinator→worker column: on loopback the wire is nearly free, so wall time only reaches parity; every shipped tuple saved is real bandwidth on a real link"
	return t
}
