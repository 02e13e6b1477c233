package main

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"aspen/internal/building"
	"aspen/internal/core"
	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/gui"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/smartcis"
)

// The building workload: the paper's §4 scenario at scale. A few hundred
// motes are sampled every epoch, the occupancy join runs in the network,
// alarms and per-user resources run on the stream engine, the display
// repaints, and a visitor walking the hallway asks for guidance.

const (
	guideNeed     = "fedora linux"
	alarmAbove    = 45.0
	swapsPerEpoch = 4  // each frees one desk and seats another: 8 toggles
	lightsEvery   = 16 // epochs between two labs going dark (the last two relit)
	heatEvery     = 32 // epochs between two labs overheating (the last two cooled)
	visitor       = "visitor"
)

type deskID struct {
	room string
	num  int
}

// bldg is one deployed instance of the workload.
type bldg struct {
	app *smartcis.App
	// probe is a second deployment kept in the same physical state, on
	// which the traced run times single layers without disturbing app.
	probe       *smartcis.App
	probeJoin   *sensor.JoinState // the occupancy fragment planned on probe
	occ, alarms *core.Query
	rp          *gui.Repainter
	view        gui.Options
	deployOcc   time.Duration
	bl          buildingLayers

	rng       *rand.Rand
	labs      []*building.Room
	halls     []string
	desks     []deskID
	dark, hot int // index into labs of the dark pair and the hot pair; -1 = none
	// changed is the epoch that first sampled a desk's (or its room's)
	// latest change; the 2 s window still holds the state before it.
	changed map[deskID]int
	epochs  int
}

func buildingOptions(c *runConfig) smartcis.Options {
	gen := building.GenConfig{Labs: 32, DesksPerLab: 8, Offices: 16, HallSpacing: 100}
	if c.tiny {
		gen = building.GenConfig{Labs: 8, DesksPerLab: 4, Offices: 2, HallSpacing: 100}
	}
	// The deployment's own seed (radio, machine workload) is fixed: -seed
	// drives the benchmark's events only.
	return smartcis.Options{Building: gen, Seed: 1, SkipPDUServers: true}
}

// openBuilding builds the deployment, seats the opening occupancy (the same
// for every seed) and deploys the standing queries and the display. With a
// tracer it also builds the probe twin.
func openBuilding(c *runConfig, tr *tracer) (w *bldg, err error) {
	w = &bldg{rng: rand.New(rand.NewSource(c.seed)), changed: map[deskID]int{}, dark: -1, hot: -1,
		bl: buildingLayers{cx: tr.ctx(),
			epoch: tr.layer("epoch"), sched: tr.layer("core.sched.run"), snap: tr.layer("core.snapshot"),
			paint: tr.layer("gui.paint"), guide: tr.layer("smartcis.guide"),
			join: tr.layer("probe.sensor.join_epoch"), sel: tr.layer("probe.sensor.select_epoch"),
			path: tr.layer("probe.sensornet.path"), reading: tr.layer("probe.smartcis.env.reading"),
			locate: tr.layer("probe.smartcis.locate"), frees: tr.layer("probe.smartcis.free_machines"),
			nearest: tr.layer("probe.routing.nearest"), render: tr.layer("probe.gui.render")}}
	if w.app, err = smartcis.New(buildingOptions(c)); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	if tr != nil {
		if w.probe, err = smartcis.New(buildingOptions(c)); err != nil {
			return nil, err
		}
	}
	offices := 0
	for i := range w.app.Building.Rooms {
		r := &w.app.Building.Rooms[i]
		switch r.Kind {
		case building.Lab:
			w.labs = append(w.labs, r) // rooms are sorted by name: west to east
		case building.Office:
			offices++
		}
		for k, d := range r.Desks {
			w.desks = append(w.desks, deskID{r.Name, d.Num})
			// A quarter of the lab desks, every fourth office, one server seat.
			seated := d.Num%4 == 2
			if r.Kind == building.Office {
				seated = offices%4 == 0
			}
			if r.Kind == building.MachineRoom {
				seated = k == 0
			}
			w.setDesk(deskID{r.Name, d.Num}, seated)
		}
	}
	for _, p := range w.app.Building.Points() {
		if strings.HasPrefix(p.Name, "hall") {
			w.halls = append(w.halls, p.Name)
		}
	}
	for _, app := range w.apps() {
		app.VisitorArrives(visitor)
	}
	w.app.Start()

	t0 := time.Now()
	if w.occ, err = w.app.OccupancyQuery(); err != nil {
		return nil, err
	}
	w.deployOcc = time.Since(t0)
	if w.alarms, err = w.app.AlarmQuery(alarmAbove); err != nil {
		return nil, err
	}
	if _, err = w.app.ResourcesByUser(); err != nil {
		return nil, err
	}
	w.rp = gui.NewRepainter(io.Discard, func() string { return gui.Render(w.app, w.view) })
	w.rp.Watch(w.occ.Deployment.Result)
	w.rp.Watch(w.alarms.Deployment.Result)
	return w, nil
}

func (w *bldg) apps() []*smartcis.App {
	if w.probe != nil {
		return []*smartcis.App{w.app, w.probe}
	}
	return []*smartcis.App{w.app}
}

func (w *bldg) close() {
	for _, app := range w.apps() {
		if app != nil {
			app.Close()
		}
	}
}

func (w *bldg) setDesk(d deskID, seated bool) {
	for _, app := range w.apps() {
		app.SetDeskOccupied(d.room, d.num, seated)
	}
	w.changed[d] = w.epochs
}

func (w *bldg) roomChanged(room string) {
	for _, d := range w.desks {
		if d.room == room {
			w.changed[d] = w.epochs
		}
	}
}

// step applies the epoch's seeded events: people change seats within a
// lab (so every lab keeps its head count and the radio load stays the same
// whatever the seed), now and then two labs go dark or overheat, and the
// visitor walks on.
func (w *bldg) step() {
	w.epochs++
	for i := 0; i < swapsPerEpoch; i++ {
		lab := w.labs[w.rng.Intn(len(w.labs))]
		var seated, free []deskID
		for _, d := range lab.Desks {
			id := deskID{lab.Name, d.Num}
			if w.app.DeskOccupied(lab.Name, d.Num) {
				seated = append(seated, id)
			} else {
				free = append(free, id)
			}
		}
		from, to := seated[w.rng.Intn(len(seated))], free[w.rng.Intn(len(free))]
		w.setDesk(from, false)
		w.setDesk(to, true)
	}
	if w.epochs%lightsEvery == 0 {
		w.dark = w.swapPair(w.dark, func(app *smartcis.App, room string, on bool) { app.SetRoomLights(room, !on) })
	}
	if w.epochs%heatEvery == 0 {
		w.hot = w.swapPair(w.hot, func(app *smartcis.App, room string, on bool) {
			deg := 21.0
			if on {
				deg = 55
			}
			app.SetRoomTemp(room, deg)
		})
	}
	hall := w.halls[w.rng.Intn(len(w.halls))]
	for _, app := range w.apps() {
		if err := app.MoveVisitorTo(visitor, hall); err != nil {
			panic(err) // hall names come from the building itself
		}
	}
}

// swapPair turns a condition off in the pair of labs that had it and on in
// a seeded other pair. A pair is lab i from the west end and lab i from the
// east end: together they are always the same number of radio hops from the
// base station, so the traffic the condition adds does not depend on which
// pair the seed picks.
func (w *bldg) swapPair(old int, set func(app *smartcis.App, room string, on bool)) int {
	next := w.rng.Intn(len(w.labs) / 2)
	if next == old {
		return old // picked again: it stays on
	}
	for _, p := range []struct {
		i  int
		on bool
	}{{old, false}, {next, true}} {
		if p.i < 0 {
			continue // nothing was on yet
		}
		for _, lab := range []*building.Room{w.labs[p.i], w.labs[len(w.labs)-1-p.i]} {
			for _, app := range w.apps() {
				set(app, lab.Name, p.on)
			}
			w.roomChanged(lab.Name)
		}
	}
	return next
}

// checkOccupancy requires the occupancy result to name exactly the desks
// whose chair sensor reads dark — someone seated, or the room's lights
// off — among the desks whose state has been stable for the two epochs the
// query's window spans.
func (w *bldg) checkOccupancy(rows []data.Tuple) error {
	got := map[deskID]bool{}
	for _, r := range rows {
		got[deskID{r.Vals[0].AsString(), int(r.Vals[1].AsInt())}] = true
	}
	for _, d := range w.desks {
		if w.epochs-w.changed[d] < 1 {
			continue
		}
		want := w.app.DeskOccupied(d.room, d.num) || !w.app.RoomLit(d.room)
		if got[d] != want {
			return fmt.Errorf("desk %s/%d: in occupancy result %v, ground truth %v", d.room, d.num, got[d], want)
		}
	}
	return nil
}

// checkGuide requires guidance to lead to a lit room, a free seat and a
// machine that has what was asked for.
func (w *bldg) checkGuide(g *smartcis.Guidance) error {
	m := g.Machine
	mach, ok := w.app.Fleet.Get(m.Name)
	switch {
	case !ok:
		return fmt.Errorf("guided to unknown machine %s", m.Name)
	case !w.app.RoomLit(m.Room):
		return fmt.Errorf("guided to %s in the dark room %s", m.Name, m.Room)
	case w.app.DeskOccupied(m.Room, m.Desk):
		return fmt.Errorf("guided to %s at the occupied desk %s/%d", m.Name, m.Room, m.Desk)
	case !expr.Like(guideNeed, mach.Software[0]):
		return fmt.Errorf("guided to %s, whose software %q does not match %q", m.Name, mach.Software[0], guideNeed)
	}
	return nil
}

// buildingLayers are the boundaries a traced phase records; all nil, and
// recording nothing, on an untraced one.
type buildingLayers struct {
	cx                                      *tctx
	epoch, sched, snap, paint, guide        *layer
	join, sel, path, reading, locate, frees *layer
	nearest, render                         *layer
}

// run drives warm-up and measured epochs.
func (w *bldg) run(res *runResult, ph *phase, tr *tracer, warmup, epochs int) {
	bl := &w.bl
	var sent0, paints0 int64
	for e := -warmup; e <= epochs; e++ {
		if e == 0 {
			sent0, paints0 = w.app.Net.Metrics().Sent, w.rp.Paints()
			ph.open()
		}
		if e == epochs {
			break
		}
		g0 := time.Now()
		w.step()
		now := w.app.Sched.Now().Add(time.Second)
		gen := time.Since(g0)

		// The epoch: motes sampled and the clock ticked (one scheduler
		// run), then the display reads the results and repaints.
		var rows, hot []data.Tuple
		var err error
		d := bl.cx.do(bl.epoch, 1, func() {
			bl.cx.do(bl.sched, len(w.app.Net.Nodes()), func() { w.app.Sched.RunUntil(now) })
			bl.cx.do(bl.snap, 2, func() {
				if hot, err = w.alarms.Snapshot(); err == nil {
					rows, err = w.occ.Snapshot()
				}
				w.view.Status = []string{fmt.Sprintf("ALARM: %d hot readings", len(hot))}
			})
			bl.cx.do(bl.paint, 1, func() { w.rp.Paint() })
		})

		// The visitor's request, one per epoch.
		var g *smartcis.Guidance
		var gerr error
		gd := bl.cx.do(bl.guide, 1, func() { g, gerr = w.app.Guide(visitor, guideNeed) })
		w.view.Visitor = visitor
		if gerr == nil {
			w.view.Route = &g.Route
		}
		if w.probe != nil {
			w.probeLayers()
		}
		tr.endEpoch(e >= 0)
		if e < 0 {
			continue
		}
		ph.timeKernel()
		ph.gen += gen
		ph.lat = append(ph.lat, d)
		ph.requests = append(ph.requests, gd)
		ph.tuples += int64(len(w.app.Net.Nodes()))
		ph.rows = len(rows)
		if e == epochs-1 {
			ph.digest = digestRows(rows, []int{0, 1}) // room, desk
		}
		o0 := time.Now()
		res.Attempted += 2
		if err != nil {
			res.fail("epoch %d: snapshot: %v", e, err)
		} else if err := w.checkOccupancy(rows); err != nil {
			res.fail("epoch %d: %v", e, err)
		}
		if gerr != nil {
			res.fail("epoch %d: guide: %v", e, gerr)
		} else if err := w.checkGuide(g); err != nil {
			res.fail("epoch %d: %v", e, err)
		}
		ph.oracle += time.Since(o0)
	}
	ph.close()
	m := w.app.Net.Metrics()
	ph.msgs, ph.paints = m.Sent-sent0, w.rp.Paints()-paints0
	res.Attempted++
	if m.DeadNodes > 0 {
		res.fail("%d motes ran out of battery during the run", m.DeadNodes)
	}
}

// probeLayers times single layers on the probe deployment, which is in the
// same physical state as the measured one but serves no queries.
func (w *bldg) probeLayers() {
	bl, p := &w.bl, w.probe
	eng, now := p.RT.SensorEngine(), p.Sched.Now()
	null := func(data.Tuple) {}
	for _, q := range []*core.Query{w.occ, w.alarms} {
		for _, f := range q.Partition.Chosen.Fragments {
			switch {
			case f.Join != nil:
				if w.probeJoin == nil {
					var err error
					if w.probeJoin, err = eng.PlanJoin(f.Join); err != nil {
						panic(err) // the measured deployment planned the same join
					}
				}
				bl.cx.do(bl.join, w.probeJoin.Pairs(), func() { eng.RunJoinEpoch(w.probeJoin, now, null) })
			case f.Select != nil:
				bl.cx.do(bl.sel, 1, func() { eng.RunSelectEpoch(f.Select, now, null) })
			}
		}
	}
	nodes := p.Net.Nodes()
	base := p.Net.Base()
	for i := 0; i < len(nodes); i += 8 {
		id := nodes[i].ID
		bl.cx.do(bl.path, 1, func() { p.Net.Path(id, base) })
	}
	for _, n := range nodes {
		for _, k := range []sensornet.SensorKind{sensornet.SensorTemperature, sensornet.SensorLight} {
			if n.HasSensor(k) {
				bl.cx.do(bl.reading, 1, func() { p.Reading(n, k, now) })
			}
		}
	}
	var at string
	bl.cx.do(bl.locate, 1, func() { at, _ = p.LocateVisitor(visitor) })
	var frees []smartcis.FreeMachine
	bl.cx.do(bl.frees, 1, func() { frees = p.FreeMachines(guideNeed) })
	rooms := make([]string, len(frees))
	for i, f := range frees {
		rooms[i] = f.Room
	}
	bl.cx.do(bl.nearest, len(rooms), func() { p.Building.Graph().Nearest(at, rooms) })
	bl.cx.do(bl.render, 1, func() { _ = gui.Render(p, w.view) })
}

// buildingPhase opens a fresh deployment and drives warm-up and measured
// epochs through it.
func buildingPhase(c *runConfig, tr *tracer, res *runResult, epochs int) (*phase, error) {
	ph := newPhase()
	w, err := openBuilding(c, tr)
	if err != nil {
		return nil, err
	}
	defer w.close()
	warmup, _ := c.epochCounts()
	w.run(res, ph, tr, warmup, epochs)
	ph.deploy = w.deployOcc
	if epochs > 0 {
		ph.liveHeap = liveHeapMB()
	}
	return ph, nil
}

// runBuilding is the building workload.
func runBuilding(c *runConfig) (*runResult, error) {
	res := c.newResult()
	run := func(tr *tracer, res *runResult, epochs int) (*phase, error) { return buildingPhase(c, tr, res, epochs) }
	phases, err := c.measureUntraced(res, run)
	if err != nil || !c.trace {
		return res, err
	}
	base := phases[len(phases)-1]
	epochs := res.Epochs

	// Traced phase: a fresh deployment on the same seed lives through the
	// same epochs with spans around the calls into it and probes on its twin.
	tr := newTracer()
	traced, err := run(tr, res, epochs)
	if err != nil {
		return nil, err
	}
	res.recordTraced(traced)
	var deploys []float64
	for _, ph := range append(phases, traced) {
		deploys = append(deploys, ms(ph.deploy))
	}
	perCallUS := func(l *layer) float64 { return ratio(float64(l.busy), 1e3*float64(l.calls)) }
	perEpochMS := func(l *layer) float64 { return ratio(float64(l.busy), 1e6*float64(epochs)) }
	sensors := perEpochMS(tr.layer("probe.sensor.join_epoch")) + perEpochMS(tr.layer("probe.sensor.select_epoch"))
	res.set("sensor.join_epoch_ms", perEpochMS(tr.layer("probe.sensor.join_epoch")))
	res.set("sensor.select_epoch_ms", perEpochMS(tr.layer("probe.sensor.select_epoch")))
	res.set("sensornet.msgs_per_epoch", ratio(float64(base.msgs), float64(epochs)))
	res.set("sensornet.path_us", perCallUS(tr.layer("probe.sensornet.path")))
	res.set("smartcis.env.reading_us", perCallUS(tr.layer("probe.smartcis.env.reading")))
	res.set("smartcis.locate_us", perCallUS(tr.layer("probe.smartcis.locate")))
	res.set("smartcis.free_machines_us", perCallUS(tr.layer("probe.smartcis.free_machines")))
	res.set("routing.nearest_us", perCallUS(tr.layer("probe.routing.nearest")))
	res.set("gui.render_ms", perCallUS(tr.layer("probe.gui.render"))/1e3)
	res.set("gui.paints_per_epoch", ratio(float64(base.paints), float64(epochs)))
	res.set("core.deploy_occupancy_ms", median(deploys))
	// Derived: what is left of the epoch once the two sensor fragments'
	// probe times are taken out is the stream engine's and the wrappers'.
	res.set("core.epoch.stream_share", 1-ratio(sensors, median(msOf(traced.lat))))
	res.set("stream.materialize.snapshot_us", perCallUS(tr.layer("core.snapshot"))/2)
	setRuntimeMetrics(res, base, epochs)
	res.set("bench.trace_overhead_x", ratio(median(msOf(traced.lat)), median(msOf(base.lat))))
	return res, c.finishTrace(tr)
}
