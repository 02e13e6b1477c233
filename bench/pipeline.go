package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aspen/internal/core"
	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/plan"
	"aspen/internal/sensor"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// The pipeline workloads: one windowed join + grouped aggregate over
// reading-shaped tuples, compiled from StreamSQL, serial (pipeline-serial)
// or with both shards on one loopback worker (pipeline-remote).

const pipeQuery = `SELECT t.room, avg(t.value) AS temp, count(*) AS seated
	FROM Temp t [RANGE 2 SECONDS], Lux l [RANGE 2 SECONDS]
	WHERE t.room = l.room AND t.desk = l.desk AND l.value < 10 GROUP BY t.room`

const (
	pipeDesks  = 8
	pushBatch  = 64   // tuples per PushBatch call
	checkEvery = 64   // oracle cadence in epochs
	luxDark    = 4.0  // a seated person shades the seat sensor
	luxOpen    = 60.0 // lit room, empty chair
	darkShare  = 0.25 // desks dark at start
	flipShare  = 0.01 // desks whose state flips per epoch
)

// deskField is the pipelines' physical model: rooms × desks, each desk with
// a temperature and a light mote. The seed drives which desks flip and
// what they then read; the field's size never depends on it.
type deskField struct {
	rng   *rand.Rand
	rooms []string
	desks int
	dark  []bool
	temp  []float64
	// last epoch's state, for the reference evaluation over the 2 s window
	prevDark []bool
	prevTemp []float64
	epochs   int
}

func newDeskField(seed int64, rooms int) *deskField {
	f := &deskField{rng: rand.New(rand.NewSource(seed)), desks: pipeDesks}
	for r := 0; r < rooms; r++ {
		f.rooms = append(f.rooms, fmt.Sprintf("R%03d", r))
	}
	n := rooms * f.desks
	f.dark = make([]bool, n)
	f.temp = make([]float64, n)
	for i := range f.dark {
		// Every fourth desk starts dark, whatever the seed.
		f.dark[i] = float64(i%4) < 4*darkShare
		f.temp[i] = 21 + float64(i%7)
	}
	return f
}

// step advances the physical state by one epoch: as many people sit down
// as stand up, so the dark share — and with it the join's output — stays
// what it was, and each desk that changed reads a new temperature.
func (f *deskField) step() {
	f.prevDark = append(f.prevDark[:0], f.dark...)
	f.prevTemp = append(f.prevTemp[:0], f.temp...)
	swaps := int(math.Ceil(flipShare * float64(len(f.dark)) / 2))
	for k := 0; k < swaps; k++ {
		for _, want := range []bool{true, false} {
			i := f.rng.Intn(len(f.dark))
			for f.dark[i] != want {
				i = (i + 1) % len(f.dark)
			}
			f.dark[i] = !want
			f.temp[i] = 20 + 10*f.rng.Float64()
		}
	}
	f.epochs++
}

// readings builds the epoch's source tuples, each with its own values the
// way a sampled reading arrives; the engine owns them once pushed.
func (f *deskField) readings(ts vtime.Time) (temp, lux []data.Tuple) {
	n := len(f.dark)
	temp = make([]data.Tuple, n)
	lux = make([]data.Tuple, n)
	for i := 0; i < n; i++ {
		room, desk := data.Str(f.rooms[i/f.desks]), data.Int(int64(i%f.desks+1))
		l := luxOpen
		if f.dark[i] {
			l = luxDark
		}
		temp[i] = data.NewTuple(ts, data.Int(int64(2*i)), room, desk, data.Float(f.temp[i]))
		lux[i] = data.NewTuple(ts, data.Int(int64(2*i+1)), room, desk, data.Float(l))
	}
	return temp, lux
}

// aggRow is one reference result row of pipeQuery.
type aggRow struct {
	sum   float64
	count int64
}

// reference evaluates pipeQuery naively over the window's contents — this
// epoch's readings and the previous epoch's — with maps for the join and
// the grouping.
func (f *deskField) reference() map[string]aggRow {
	type key struct {
		room string
		desk int
	}
	type reading struct {
		key
		v float64
	}
	var temps, luxes []reading
	collect := func(dark []bool, temp []float64) {
		for i := range dark {
			k := key{f.rooms[i/f.desks], i%f.desks + 1}
			temps = append(temps, reading{k, temp[i]})
			l := luxOpen
			if dark[i] {
				l = luxDark
			}
			luxes = append(luxes, reading{k, l})
		}
	}
	if f.epochs > 1 {
		collect(f.prevDark, f.prevTemp)
	}
	collect(f.dark, f.temp)
	darkAt := map[key]int64{}
	for _, l := range luxes {
		if l.v < 10 {
			darkAt[l.key]++
		}
	}
	out := map[string]aggRow{}
	for _, t := range temps {
		if n := darkAt[t.key]; n > 0 {
			r := out[t.room]
			r.sum += t.v * float64(n)
			r.count += n
			out[t.room] = r
		}
	}
	return out
}

// checkPipeRows compares a snapshot of pipeQuery with the reference.
func checkPipeRows(rows []data.Tuple, want map[string]aggRow) error {
	if len(rows) != len(want) {
		return fmt.Errorf("%d result rows, reference has %d", len(rows), len(want))
	}
	for _, r := range rows {
		room := r.Vals[0].AsString()
		w, ok := want[room]
		if !ok {
			return fmt.Errorf("room %s not in the reference", room)
		}
		avg := w.sum / float64(w.count)
		if got := r.Vals[2].AsInt(); got != w.count {
			return fmt.Errorf("room %s: seated %d, reference %d", room, got, w.count)
		}
		// The engine's running sum adds and retracts in arrival order.
		if got := r.Vals[1].AsFloat(); math.Abs(got-avg) > 1e-9*math.Max(1, math.Abs(avg)) {
			return fmt.Errorf("room %s: temp %v, reference %v", room, got, avg)
		}
	}
	return nil
}

// rowsAsReference turns one snapshot into the reference another is checked
// against: two hostings of the query agree when checkPipeRows says so (the
// two-phase sharded average may differ from the serial one in the last
// place, so the comparison cannot be bitwise).
func rowsAsReference(rows []data.Tuple) map[string]aggRow {
	out := make(map[string]aggRow, len(rows))
	for _, r := range rows {
		n := r.Vals[2].AsInt()
		out[r.Vals[0].AsString()] = aggRow{sum: r.Vals[1].AsFloat() * float64(n), count: n}
	}
	return out
}

// pipeKind selects how the query is hosted.
type pipeKind int

const (
	pipeSerial       pipeKind = iota // core.Runtime.Run, serial
	pipeSerialShims                  // the same operators built by hand with shims between them
	pipeRemote                       // Parallelism 2, both shards on one loopback plan.NewWorker
	pipeRemoteTraced                 // the same behind a byte-counting forwarder, worker timed
)

// pipe is one deployed instance of pipeQuery.
type pipe struct {
	rt        *core.Runtime
	temp, lux *stream.Input
	query     *core.Query // nil for the shim chain
	// read is the reader's call: Query.Snapshot, or the shim chain's result.
	read   func() ([]data.Tuple, error)
	worker *stream.ShardWorker
	fwd    *forwarder

	// nil on an untraced pipe, where they record nothing
	cx                                    *tctx
	lEpoch, lPush, lTick, lRead, lRefresh *layer
}

// openPipe builds the runtime, registers the two streams and deploys the
// query. With a tracer the pipe's epochs are recorded; the two traced kinds
// need one.
func openPipe(kind pipeKind, tr *tracer) (p *pipe, err error) {
	push := "stream.input.push"
	if kind == pipeRemoteTraced {
		push = "stream.exchange.push"
	}
	p = &pipe{cx: tr.ctx(), lEpoch: tr.layer("epoch"), lPush: tr.layer(push), lTick: tr.layer("stream.advance"),
		lRead: tr.layer("core.snapshot"), lRefresh: tr.layer("core.snapshot.idle")}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	cfg := core.Config{}
	switch kind {
	case pipeRemote:
		if p.worker, err = plan.NewWorker("127.0.0.1:0"); err != nil {
			return nil, err
		}
		cfg.Parallelism, cfg.Nodes = 2, []string{p.worker.Addr()}
	case pipeRemoteTraced:
		if p.worker, err = stream.NewShardWorker("127.0.0.1:0", tracedDeploy(tr)); err != nil {
			return nil, err
		}
		if p.fwd, err = newForwarder(p.worker.Addr()); err != nil {
			return nil, err
		}
		cfg.Parallelism, cfg.Nodes = 2, []string{p.fwd.addr()}
	}
	p.rt = core.New(cfg)
	if p.temp, err = p.rt.RegisterStream("Temp", sensor.ReadingSchema("Temp"), 0); err != nil {
		return nil, err
	}
	if p.lux, err = p.rt.RegisterStream("Lux", sensor.ReadingSchema("Lux"), 0); err != nil {
		return nil, err
	}
	if kind == pipeSerialShims {
		result, err := buildShimChain(p.rt, p.cx)
		p.read = func() ([]data.Tuple, error) { return result.Snapshot(nil, -1) }
		return p, err
	}
	if p.query, err = p.rt.Run(pipeQuery); err != nil {
		return nil, err
	}
	p.read = p.query.Snapshot
	if dep := p.query.Deployment; p.worker != nil {
		if dep.Shards != 2 {
			return nil, fmt.Errorf("pipeline-remote deployed %d shards, want 2", dep.Shards)
		}
		for _, at := range dep.Placement() {
			if at == "" {
				return nil, fmt.Errorf("pipeline-remote kept a shard in-process: %v", dep.Placement())
			}
		}
	}
	return p, nil
}

func (p *pipe) close() {
	if p.query != nil {
		p.query.Stop()
	}
	if p.rt != nil {
		p.rt.Close()
	}
	if p.fwd != nil {
		p.fwd.close()
	}
	if p.worker != nil {
		p.worker.Close()
	}
}

func pushBatches(in *stream.Input, ts []data.Tuple) {
	for len(ts) > pushBatch {
		in.PushBatch(ts[:pushBatch])
		ts = ts[pushBatch:]
	}
	in.PushBatch(ts)
}

// epoch runs one epoch: the readings enter, the clock ticks once, and the
// reader takes the result that reflects them. It returns the staleness —
// epoch start to result in hand — and how long the request took: once the
// epoch is over the display refreshes, reading the result once more with
// nothing in flight.
func (p *pipe) epoch(now vtime.Time, temp, lux []data.Tuple) (d, refresh time.Duration, rows []data.Tuple, err error) {
	n := len(temp) + len(lux)
	d = p.cx.do(p.lEpoch, n, func() {
		p.cx.do(p.lPush, n, func() {
			pushBatches(p.temp, temp)
			pushBatches(p.lux, lux)
		})
		p.cx.do(p.lTick, 1, func() { p.rt.Sched.RunUntil(now) })
		p.cx.do(p.lRead, 1, func() { rows, err = p.read() })
	})
	refresh = p.cx.do(p.lRefresh, 1, func() {
		if _, rerr := p.read(); err == nil {
			err = rerr
		}
	})
	return d, refresh, rows, err
}

// buildShimChain lowers pipeQuery's optimized plan onto engine operators
// the way plan's compiler does — same constructors, same order — with a
// benchmark-owned shim in front of every operator, and subscribes it to the
// runtime's inputs.
func buildShimChain(rt *core.Runtime, cx *tctx) (*stream.Materialize, error) {
	stmt, err := sql.ParseSelect(pipeQuery)
	if err != nil {
		return nil, err
	}
	res, err := rt.Federator().Optimize(stmt)
	if err != nil {
		return nil, err
	}
	root := res.Chosen.StreamPlan.Root
	tr := cx.t
	wrap := func(op stream.Operator, name string) stream.Operator {
		return &shim{next: op, l: tr.layer(name), cx: cx}
	}
	var build func(n plan.Node, out stream.Operator) error
	build = func(n plan.Node, out stream.Operator) error {
		switch x := n.(type) {
		case *plan.Scan:
			in, ok := rt.Stream.Input(x.Input)
			if !ok {
				return fmt.Errorf("no input %s", x.Input)
			}
			if x.Window == nil || x.Window.Kind != sql.WindowRange {
				return fmt.Errorf("scan %s: the shim chain builds RANGE windows only", x.Input)
			}
			win := stream.NewTimeWindow(out, x.Window.Range, x.Window.Slide)
			rt.Stream.TrackWindow(&advShim{next: win, l: tr.layer("stream.window"), cx: cx})
			in.Subscribe(wrap(win, "stream.window"))
			return nil
		case *plan.Select:
			pred, err := expr.Bind(x.Pred, x.In.Schema())
			if err != nil {
				return err
			}
			return build(x.In, wrap(stream.NewFilter(out, pred), "stream.filter"))
		case *plan.Project:
			p, err := stream.NewProject(out, x.In.Schema(), x.Items)
			if err != nil {
				return err
			}
			return build(x.In, wrap(p, "stream.project"))
		case *plan.Join:
			j, err := stream.NewJoin(out, x.L.Schema(), x.R.Schema(), x.LKey, x.RKey, x.Residual)
			if err != nil {
				return err
			}
			if err := build(x.L, wrap(j.Left(), "stream.join")); err != nil {
				return err
			}
			return build(x.R, wrap(j.Right(), "stream.join"))
		case *plan.Aggregate:
			a, err := stream.NewAggregate(out, x.In.Schema(), x.GroupBy, x.Specs, x.Having)
			if err != nil {
				return err
			}
			return build(x.In, wrap(a, "stream.agg"))
		}
		return fmt.Errorf("the shim chain cannot build %T", n)
	}
	mat := stream.NewMaterialize(root.Schema())
	return mat, build(root, wrap(mat, "stream.materialize"))
}

// tracedDeploy is the traced worker's stream.DeployFunc: plan's own replica
// builder, with the returned heads, advancers and the result sender timed.
// All replicas of one connection run on that connection's goroutine, so
// one context serves them.
func tracedDeploy(tr *tracer) stream.DeployFunc {
	cx := tr.ctx()
	lSend, lTick := tr.layer("stream.result.send"), tr.layer("stream.worker.tick")
	return func(spec []byte, shard int, state []byte, send stream.ResultSender) (map[string]stream.Operator, []stream.Advancer, []stream.Checkpointer, error) {
		timedSend := func(ts []data.Tuple) error {
			p, t0 := cx.begin(lSend)
			err := send(ts)
			cx.end(lSend, p, t0, len(ts))
			return err
		}
		heads, advs, cks, err := (*plan.SensorHosts)(nil).DeployReplica(spec, shard, state, timedSend)
		if err != nil {
			return nil, nil, nil, err
		}
		l := tr.layer(fmt.Sprintf("stream.worker.replica.s%d", shard))
		for name, h := range heads {
			heads[name] = &shim{next: h, l: l, cx: cx}
		}
		for i, a := range advs {
			advs[i] = &advShim{next: a, l: lTick, cx: cx}
		}
		return heads, advs, cks, nil
	}
}

// forwarder is a loopback TCP relay that counts the bytes crossing it in
// each direction: the wire between coordinator and worker, seen from
// outside both.
type forwarder struct {
	l        net.Listener
	target   string
	up, down atomic.Int64 // coordinator→worker, worker→coordinator
	mu       sync.Mutex
	conns    []net.Conn
	wg       sync.WaitGroup
}

func newForwarder(target string) (*forwarder, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &forwarder{l: l, target: target}
	f.wg.Add(1)
	go f.accept()
	return f, nil
}

func (f *forwarder) addr() string { return f.l.Addr().String() }

func (f *forwarder) accept() {
	defer f.wg.Done()
	for {
		c, err := f.l.Accept()
		if err != nil {
			return // listener closed
		}
		w, err := net.Dial("tcp", f.target)
		if err != nil {
			c.Close()
			continue
		}
		f.mu.Lock()
		f.conns = append(f.conns, c, w)
		f.mu.Unlock()
		f.wg.Add(2)
		go f.relay(w, c, &f.up)
		go f.relay(c, w, &f.down)
	}
}

func (f *forwarder) relay(dst, src net.Conn, n *atomic.Int64) {
	defer f.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		k, err := src.Read(buf)
		if k > 0 {
			n.Add(int64(k))
			if _, werr := dst.Write(buf[:k]); werr != nil {
				break
			}
		}
		if err != nil {
			break
		}
	}
	// One side is gone: drop the other so its relay ends too.
	dst.Close()
	src.Close()
}

func (f *forwarder) close() {
	f.l.Close()
	f.mu.Lock()
	for _, c := range f.conns {
		c.Close()
	}
	f.mu.Unlock()
	f.wg.Wait()
}

// pipePhase opens a pipe of the kind and drives warm-up and measured epochs
// through it from a fresh same-seed field, checking the result against the
// reference on every checkEvery-th measured epoch and the last.
func pipePhase(c *runConfig, kind pipeKind, tr *tracer, res *runResult, epochs int) (*phase, error) {
	ph := newPhase()
	p, err := openPipe(kind, tr)
	if err != nil {
		return nil, err
	}
	defer p.close()
	warmup, _ := c.epochCounts()
	f := newDeskField(c.seed, c.size(256, 8))
	for e := -warmup; e <= epochs; e++ {
		if e == 0 {
			if p.fwd != nil {
				ph.up, ph.down = -p.fwd.up.Load(), -p.fwd.down.Load()
			}
			ph.open()
		}
		if e == epochs {
			break
		}
		g0 := time.Now()
		f.step()
		now := vtime.Time(f.epochs) * vtime.Second
		temp, lux := f.readings(now)
		gen := time.Since(g0)
		d, refresh, rows, err := p.epoch(now, temp, lux)
		tr.endEpoch(e >= 0)
		if e < 0 {
			continue
		}
		ph.timeKernel()
		ph.gen += gen
		ph.lat = append(ph.lat, d)
		ph.requests = append(ph.requests, refresh)
		ph.tuples += int64(len(temp) + len(lux))
		res.Attempted++
		if err != nil {
			res.fail("epoch %d: snapshot: %v", e, err)
			continue
		}
		ph.rows = len(rows)
		if e%checkEvery == checkEvery-1 || e == epochs-1 {
			o0 := time.Now()
			if err := checkPipeRows(rows, f.reference()); err != nil {
				res.fail("epoch %d: %v", e, err)
			}
			ph.checks[e] = rows
			ph.digest = digestRows(rows, []int{0, 2}) // room, seated
			ph.oracle += time.Since(o0)
		}
	}
	ph.close()
	if p.fwd != nil {
		ph.up, ph.down = ph.up+p.fwd.up.Load(), ph.down+p.fwd.down.Load()
	}
	ph.subs = p.temp.Subscribers()
	if epochs > 0 {
		ph.liveHeap = liveHeapMB()
	}
	return ph, nil
}

// sameChecks fails the run when two phases fed the same inputs disagree at
// any oracle epoch.
func sameChecks(res *runResult, a, b *phase, what string) {
	res.Attempted++
	for e, want := range a.checks {
		if err := checkPipeRows(b.checks[e], rowsAsReference(want)); err != nil {
			res.fail("%s: epoch %d: %v", what, e, err)
			return
		}
	}
}

// runPipeline is the pipeline-serial and pipeline-remote workloads.
func runPipeline(c *runConfig, remote bool) (*runResult, error) {
	res := c.newResult()
	kind, tracedKind := pipeSerial, pipeSerialShims
	if remote {
		kind, tracedKind = pipeRemote, pipeRemoteTraced
	}
	phases, err := c.measureUntraced(res, func(tr *tracer, res *runResult, epochs int) (*phase, error) {
		return pipePhase(c, kind, tr, res, epochs)
	})
	if err != nil || !c.trace {
		return res, err
	}
	base := phases[len(phases)-1]
	epochs := res.Epochs

	// Traced phase: the same epochs again through the traced variant.
	tr := newTracer()
	traced, err := pipePhase(c, tracedKind, tr, res, epochs)
	if err != nil {
		return nil, err
	}
	res.recordTraced(traced)
	sameChecks(res, base, traced, "traced phase")
	src := float64(traced.tuples)
	// Read the layers both hostings share before the shim chain adds to
	// them. The refresh reads with nothing in flight, so it costs what
	// materializing the rows costs (and, sharded, an idle barrier's round
	// trip); what the epoch's own read takes beyond that, it spent waiting
	// at the shard barrier for the epoch's work to drain.
	read, idle, adv := tr.layer("core.snapshot"), tr.layer("core.snapshot.idle"), tr.layer("stream.advance")
	res.set("stream.materialize.snapshot_us", ratio(float64(idle.busy), 1e3*float64(idle.calls)))
	res.set("stream.advance.us_per_tick", ratio(float64(adv.busy), 1e3*float64(adv.calls)))
	if remote {
		res.set("stream.flush.barrier_us", ratio(float64(read.busy-idle.busy), 1e3*float64(read.calls)))

		// Operator self times and the serial baseline of the scale-out tax
		// come from the serial hostings of the same query and inputs.
		serial, err := pipePhase(c, pipeSerial, nil, res, epochs)
		if err != nil {
			return nil, err
		}
		sameChecks(res, base, serial, "serial baseline")
		res.set("stream.remote.tax_x", ratio(serial.tuplesPerSec(), base.tuplesPerSec()))
		fmt.Fprintf(c.out, "  stream.remote.tax_x base: serial %.0f tuples/s over remote %.0f tuples/s\n",
			serial.tuplesPerSec(), base.tuplesPerSec())

		wall := traced.wall.Seconds() * 1e9
		var busy, self, maxItems, sumItems float64
		for s := 0; s < 2; s++ {
			l := tr.layer(fmt.Sprintf("stream.worker.replica.s%d", s))
			busy += float64(l.busy)
			self += float64(l.self())
			maxItems = math.Max(maxItems, float64(l.items))
			sumItems += float64(l.items)
		}
		send, tick := tr.layer("stream.result.send"), tr.layer("stream.worker.tick")
		res.set("stream.exchange.push_ns_per_tuple", ratio(float64(tr.layer("stream.exchange.push").busy), src))
		res.set("stream.exchange.skew", ratio(maxItems, sumItems/2))
		res.set("stream.wire.bytes_per_tuple", ratio(float64(traced.up), src))
		res.set("stream.wire.result_bytes_per_epoch", ratio(float64(traced.down), float64(epochs)))
		res.set("stream.worker.replica_ns_per_tuple", ratio(self, src))
		res.set("stream.worker.busy_share", ratio(busy+float64(tick.busy), wall))
		res.set("stream.result.send_ns_per_row", ratio(float64(send.busy), float64(send.items)))

		shims, err := pipePhase(c, pipeSerialShims, tr, res, epochs)
		if err != nil {
			return nil, err
		}
		sameChecks(res, base, shims, "shim chain")
		setOperatorMetrics(res, tr, float64(shims.tuples))
	} else {
		setOperatorMetrics(res, tr, src)
	}
	res.set("stream.input.subscribers", float64(base.subs))
	setRuntimeMetrics(res, base, epochs)
	res.set("bench.trace_overhead_x", ratio(median(msOf(traced.lat)), median(msOf(base.lat))))
	return res, c.finishTrace(tr)
}

// setOperatorMetrics reports the shim chain's ledger: self time per source
// tuple for each operator, and useful-over-attempted work where an
// operator can waste it.
func setOperatorMetrics(res *runResult, tr *tracer, srcTuples float64) {
	for _, op := range []string{"window", "join", "filter", "agg", "project", "materialize"} {
		l := tr.layer("stream." + op)
		res.set("stream."+op+".self_ns_per_tuple", ratio(float64(l.self()), srcTuples))
	}
	join, filter, agg := tr.layer("stream.join"), tr.layer("stream.filter"), tr.layer("stream.agg")
	res.set("stream.join.out_per_in", ratio(float64(join.out), float64(join.items)))
	res.set("stream.filter.pass_share", ratio(float64(filter.out), float64(filter.items)))
	res.set("stream.agg.emits_per_in", ratio(float64(agg.out), float64(agg.items)))
}
