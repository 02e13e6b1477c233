// Package core is the ASPEN substrate runtime — the paper's primary
// contribution assembled: it owns the catalog, the federated optimizer, a
// stream engine, an optional sensor engine, and the simulation clock, and
// it drives a query through the full Figure 1 lifecycle:
//
//	StreamSQL → parser → federated optimizer → {sensor engine, stream engine}
//
// Pushed fragments run on the sensor engine in epochs and feed derived
// stream-engine inputs; database tables load into each deployment's join
// state; recursive (WITH RECURSIVE) queries are maintained incrementally by
// internal/views; results materialize for displays.
package core

import (
	"fmt"
	"strings"
	"time"

	"aspen/internal/catalog"
	"aspen/internal/data"
	"aspen/internal/federation"
	"aspen/internal/plan"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// Config assembles a runtime.
type Config struct {
	// Scheduler drives all periodic work (virtual time in simulations).
	Scheduler *vtime.Scheduler
	// NodeName names the stream engine node (default "pc1").
	NodeName string
	// SensorEngine is optional; without it every query runs all-stream.
	SensorEngine *sensor.Engine
	// SensorKinds maps catalog source names to mote sensors.
	SensorKinds map[string]sensornet.SensorKind
	// TickPeriod drives window expiry during stream silence (default 1s).
	TickPeriod time.Duration
	// RecursionDepth bounds WITH RECURSIVE evaluation (default 12).
	RecursionDepth int
	// Topology spreads deployed stream plans over pipeline replicas and
	// shard workers (cmd/shardworker) and says how they survive losing one;
	// the zero value runs every plan serial and in-process. Runtime.Rescale
	// retargets its Nodes.
	plan.Topology
	// SharedPrefixes enables multi-query plan sharing: serial SELECT
	// deployments whose plans start with the same scan+window+selection
	// prefix (canonicalized positionally, so aliases don't matter) run one
	// physical operator chain, fanning out only where the plans diverge.
	// Per-tuple cost becomes sublinear in the number of standing queries
	// over one source; the last Stop of the last query sharing a prefix
	// tears its chain down. A query attaching to an already-populated
	// shared window warm-starts from the window's current contents.
	// Identical queries — the same projection of the same selections over
	// a windowed source, with no OUTPUT TO — also share one result: one
	// projection into one materialized store, which each query reads under
	// its own column names, ORDER BY and LIMIT. Stopping one freezes its
	// result at its last state; the others keep updating. Unwindowed
	// queries keep a result of their own (a late one starts empty). Only
	// serial deployments share (Parallelism < 2 or unpartitionable plans).
	SharedPrefixes bool
	// SnapshotPath makes the coordinator durable: the plan.Coordinator
	// tracking every running statement is persisted by SaveSnapshot to
	// this file (atomic, checksummed, fsynced through the rename) and
	// RestoreSnapshot rehydrates after a coordinator restart — standing
	// SELECT queries recompile onto their snapshotted shard placement and
	// resume from the last committed checkpoint, shared-prefix window state
	// and sensor fragment deployments included (fragments whose workers are
	// gone fall back to central runners rather than being dropped).
	// WITH RECURSIVE queries are not captured; both calls name them. Empty
	// keeps the coordinator in-memory only.
	SnapshotPath string
}

// Runtime is one assembled ASPEN instance.
type Runtime struct {
	Cat    *catalog.Catalog
	Sched  *vtime.Scheduler
	Stream *stream.Engine

	fed        *federation.Federator
	sensors    *sensor.Engine
	recursion  int
	topo       plan.Topology
	tickCancel func()

	// coord owns every running SELECT and WITH RECURSIVE statement — deploy,
	// Stop, Rescale and snapshots all go through it, and it holds the one
	// description of this process (plan.Host) they compile against; qn
	// numbers them q1, q2, … in deploy order.
	coord *plan.Coordinator
	qn    int
}

// New builds a runtime.
func New(cfg Config) *Runtime {
	if cfg.Scheduler == nil {
		cfg.Scheduler = vtime.NewScheduler()
	}
	if cfg.NodeName == "" {
		cfg.NodeName = "pc1"
	}
	if cfg.TickPeriod <= 0 {
		cfg.TickPeriod = time.Second
	}
	if cfg.RecursionDepth <= 0 {
		cfg.RecursionDepth = 12
	}
	rt := &Runtime{
		Cat:       catalog.New(),
		Sched:     cfg.Scheduler,
		Stream:    stream.NewEngine(cfg.NodeName, cfg.Scheduler),
		sensors:   cfg.SensorEngine,
		recursion: cfg.RecursionDepth,
		topo:      cfg.Topology,
	}
	host := plan.Host{Engine: rt.Stream, Tick: cfg.TickPeriod, Now: cfg.Scheduler.Now}
	if cfg.SharedPrefixes {
		host.Sharing = plan.NewSharing(rt.Stream)
	}
	rt.fed = &federation.Federator{Cat: rt.Cat}
	if cfg.SensorEngine != nil {
		kinds := map[string]sensornet.SensorKind{}
		host.Sensors = plan.NewSensorHosts()
		for k, v := range cfg.SensorKinds {
			kinds[strings.ToLower(k)] = v
			host.Sensors.Add(k, cfg.SensorEngine)
		}
		rt.fed.Sensors = &federation.Binding{Kinds: kinds, Engine: cfg.SensorEngine}
	}
	rt.coord = plan.NewCoordinator(host, cfg.SnapshotPath)
	rt.tickCancel = rt.Sched.Every(cfg.TickPeriod, func() {
		rt.Stream.Advance(rt.Sched.Now())
	})
	return rt
}

// Close stops the runtime's background tick.
func (rt *Runtime) Close() {
	if rt.tickCancel != nil {
		rt.tickCancel()
		rt.tickCancel = nil
	}
}

// Federator exposes the federated optimizer (for plan inspection tools).
func (rt *Runtime) Federator() *federation.Federator { return rt.fed }

// SensorEngine returns the bound sensor engine, if any.
func (rt *Runtime) SensorEngine() *sensor.Engine { return rt.sensors }

// Query is a running continuous query.
type Query struct {
	SQL string
	// Deployment carries the materialized result; nil for CREATE VIEW.
	Deployment *plan.Deployment
	// Partition records the federated optimizer's decision, when one was
	// made.
	Partition *federation.Result

	rt      *Runtime
	name    string // coordinator-tracked name ("" for CREATE VIEW)
	runners []interface{ Stop() }
}

// Name reports the name the coordinator tracks a live SELECT or WITH
// RECURSIVE query under (q1, q2, …; "" for CREATE VIEW and after Stop).
func (q *Query) Name() string { return q.name }

// Snapshot returns the current result under the query's ORDER BY/LIMIT.
func (q *Query) Snapshot() ([]data.Tuple, error) {
	if q.Deployment == nil {
		return nil, fmt.Errorf("core: statement %q has no result", q.SQL)
	}
	return q.Deployment.Snapshot()
}

// Stop cancels the query's periodic sensor work and quiesces its
// deployment: shard workers (if any) stop, every engine-input
// subscription and clock-tick registration the deployment made is
// detached, and any shared prefix chains this was the last query on are
// torn down. The materialized result keeps its last state but no longer
// updates, and later input into the query's sources no longer reaches
// its operators — other queries on the same inputs are unaffected.
func (q *Query) Stop() {
	for _, r := range q.runners {
		r.Stop()
	}
	q.runners = nil
	// Drop closes the deployment and stops snapshotting it. Its only error
	// is an unknown name: a CREATE VIEW, or a second Stop — nothing to do.
	_ = q.rt.coord.Drop(q.name)
	q.name = ""
}

// Rescale moves this query's sharded deployment onto a new worker
// topology (see plan.Deployment.Rescale): live re-sharding when workers
// join or leave, and heal-back after a failover once the worker rejoins.
func (q *Query) Rescale(nodes []string) error {
	if q.name == "" {
		return fmt.Errorf("core: statement %q has no live deployment to rescale", q.SQL)
	}
	return q.rt.coord.Rescale(q.name, nodes)
}

// Run parses and deploys one StreamSQL statement.
func (rt *Runtime) Run(sqlText string) (*Query, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sql.CreateView:
		if err := rt.Cat.AddView(s); err != nil {
			return nil, err
		}
		return &Query{SQL: sqlText, rt: rt}, nil
	case *sql.SelectStmt:
		return rt.deploySelect(sqlText, s)
	case *sql.WithRecursive:
		return rt.deployRecursive(sqlText, s)
	}
	return nil, fmt.Errorf("core: unsupported statement %T", stmt)
}

// MustRun deploys a statically known statement, panicking on error.
func (rt *Runtime) MustRun(sqlText string) *Query {
	q, err := rt.Run(sqlText)
	if err != nil {
		panic(err)
	}
	return q
}

// deploy compiles built through the coordinator under the next name q1, q2, ….
// A caller that fails after it must Stop the query it returned: Stop cancels
// the runners started so far and drops the deployment — shard workers,
// subscriptions, tick work — so a failed statement leaks nothing.
func (rt *Runtime) deploy(sqlText string, built *plan.Built, opts plan.CompileOptions) (*Query, error) {
	rt.qn++
	name := fmt.Sprintf("q%d", rt.qn)
	dep, err := rt.coord.Deploy(name, built, opts)
	if err != nil {
		return nil, err
	}
	return &Query{SQL: sqlText, Deployment: dep, rt: rt, name: name}, nil
}

func (rt *Runtime) deploySelect(sqlText string, stmt *sql.SelectStmt) (*Query, error) {
	res, err := rt.fed.Optimize(stmt)
	if err != nil {
		return nil, err
	}
	specs := fragSpecs(res.Chosen.Fragments)
	q, err := rt.deploy(sqlText, res.Chosen.StreamPlan, plan.CompileOptions{Topology: rt.topo, Fragments: specs})
	if err != nil {
		return nil, err
	}
	q.Partition = res
	fail := func(err error) (*Query, error) {
		q.Stop()
		return nil, err
	}

	// Start sensor fragments feeding their inputs, one batch per epoch: the
	// engine dispatches (and a sharded plan exchanges) each epoch's
	// deliveries in a single PushBatch instead of tuple-at-a-time. Fragments
	// the compile pushed into the shard replicas (dep.RemoteFragments) run
	// partitioned at the shard homes instead — no central runner, and no
	// exchange hop for their epochs.
	if err := rt.startFragmentRunners(q, specs); err != nil {
		return fail(err)
	}
	rt.loadTables(q.Deployment)
	return q, nil
}

// startFragmentRunners starts a central epoch runner for every fragment
// not deployed inside the shard replicas, feeding the fragment's derived
// input one batch per epoch. Runners append to q.runners (Stop cancels
// them). Both fresh deploys and snapshot restores funnel through here.
func (rt *Runtime) startFragmentRunners(q *Query, frags []plan.SensorFragment) error {
	if len(frags) > 0 && rt.sensors == nil {
		return fmt.Errorf("core: query %q carries sensor fragments but no sensor engine is configured", q.SQL)
	}
	remote := map[string]bool{}
	for _, name := range q.Deployment.RemoteFragments {
		remote[name] = true
	}
	for i := range frags {
		f := &frags[i]
		if remote[f.Name] {
			continue
		}
		schema := f.Schema()
		if schema == nil {
			return fmt.Errorf("core: fragment %s has no query", f.Name)
		}
		in, ok := rt.Stream.Input(f.Name)
		if !ok {
			// A ship-all fragment whose raw source the plan did not end up
			// scanning (e.g. projected away); register so data still flows.
			var err error
			in, err = rt.Stream.Register(f.Name, schema)
			if err != nil {
				return err
			}
		}
		sink := in.PushBatch
		switch {
		case f.Select != nil:
			q.runners = append(q.runners, rt.sensors.StartSelect(f.Select, rt.Sched, sink))
		case f.Join != nil:
			st, err := rt.sensors.PlanJoin(f.Join)
			if err != nil {
				return err
			}
			q.runners = append(q.runners, rt.sensors.StartJoin(st, rt.Sched, sink))
		case f.Agg != nil:
			q.runners = append(q.runners, rt.sensors.StartAggregate(f.Agg, rt.Sched, sink))
		}
	}
	return nil
}

// fragSpecs lowers the optimizer's fragment decisions to the compile-level
// descriptors locality placement and shard-hosted deployment work from.
func fragSpecs(frags []*federation.Fragment) []plan.SensorFragment {
	specs := make([]plan.SensorFragment, 0, len(frags))
	for _, f := range frags {
		specs = append(specs, plan.SensorFragment{
			Name: f.DerivedName, Sources: f.Sources,
			Select: f.Select, Join: f.Join, Agg: f.Agg,
		})
	}
	return specs
}

// loadTables pushes each scanned table's current rows into the
// deployment's table heads, one batch per table.
func (rt *Runtime) loadTables(dep *plan.Deployment) {
	now := rt.Sched.Now()
	for _, th := range dep.TableHeads {
		src, ok := rt.Cat.Source(th.Input)
		if !ok || src.Table == nil {
			continue
		}
		var rows []data.Tuple
		src.Table.Scan(func(t data.Tuple) bool {
			t.TS = now
			t.Op = data.Insert
			rows = append(rows, t)
			return true
		})
		th.Load(rows)
	}
}

// Coordinator exposes the coordinator owning every running SELECT and WITH
// RECURSIVE statement (durable with Config.SnapshotPath).
func (rt *Runtime) Coordinator() *plan.Coordinator { return rt.coord }

// Sharing exposes the multi-query sharing registry (nil without
// Config.SharedPrefixes) — tests and ops inspect live chain counts.
func (rt *Runtime) Sharing() *plan.Sharing { return rt.coord.Host().Sharing }

// SaveSnapshot checkpoints every coordinator-tracked query at a quiescent
// barrier and atomically replaces the snapshot file (Config.SnapshotPath;
// without one it is an error).
// Shared-prefix window state and sensor fragment deployments are captured
// too; the returned slice names every query the snapshot could not record —
// the live WITH RECURSIVE ones, whose views no plan rebuilds (empty =
// complete snapshot) — surface it, never ignore it.
func (rt *Runtime) SaveSnapshot() ([]string, error) { return rt.coord.Save() }

// RestoreSnapshot rehydrates the standing queries recorded in the
// snapshot file onto this runtime: each recompiles with its shards pinned
// to the snapshotted placement and every operator — shared chain windows
// and fragment runners included — restored from the last committed
// checkpoint. Table loads are NOT replayed — the restored join and window
// state already contains them; sources push new input as usual. Sensor
// fragments resume where they ran: shard-hosted ones redeploy with their
// checkpointed epoch anchors (falling back in-process, then to central
// runners, when their snapshotted workers are gone), central ones restart
// their epoch runners here. Returns the restored queries in name order
// plus the names the snapshot recorded as skipped at Save time (those
// queries must be re-run); a validation or compile failure restores
// nothing and reports why.
func (rt *Runtime) RestoreSnapshot() ([]*Query, []string, error) {
	skipped, err := rt.coord.Restore()
	if err != nil {
		return nil, nil, err
	}
	var qs []*Query
	fail := func(err error) ([]*Query, []string, error) {
		for _, q := range qs {
			q.Stop()
		}
		return nil, nil, err
	}
	for _, name := range rt.coord.Names() {
		dep, _ := rt.coord.Deployment(name)
		sqlText := name
		if b, ok := rt.coord.Built(name); ok {
			sqlText = b.String()
		}
		q := &Query{SQL: sqlText, Deployment: dep, rt: rt, name: name}
		if err := rt.startFragmentRunners(q, rt.coord.Fragments(name)); err != nil {
			q.Stop()
			return fail(fmt.Errorf("core: restore %s: %w", name, err))
		}
		qs = append(qs, q)
		// Keep q1, q2, … unique across the restart.
		var n int
		if _, err := fmt.Sscanf(name, "q%d", &n); err == nil && n > rt.qn {
			rt.qn = n
		}
	}
	return qs, skipped, nil
}

// Rescale retargets the runtime's worker topology: future deployments
// place shards over nodes, and every live sharded query live-migrates onto
// it (workers that joined take shards, leaving workers hand theirs back,
// failover-stranded shards heal back out). A list the next deploy would
// reject is refused here, leaving the topology as it was.
func (rt *Runtime) Rescale(nodes []string) error {
	next := rt.topo
	next.Nodes = nodes
	if _, _, err := next.Workers(); err != nil {
		return err
	}
	rt.topo = next
	for _, name := range rt.coord.Names() {
		dep, ok := rt.coord.Deployment(name)
		if !ok || dep.Shards < 2 {
			continue
		}
		if err := rt.coord.Rescale(name, nodes); err != nil {
			return fmt.Errorf("core: rescale %s: %w", name, err)
		}
	}
	return nil
}

// RegisterTable adds a stored relation to the catalog and the engine.
func (rt *Runtime) RegisterTable(name string, rel *data.Relation) error {
	if err := rt.Cat.AddSource(&catalog.Source{
		Name: name, Kind: catalog.KindTable, Schema: rel.Schema(), Table: rel,
	}); err != nil {
		return err
	}
	_, err := rt.Stream.Register(name, rel.Schema())
	return err
}

// RegisterStream adds a PC-side stream source, returning its engine input.
func (rt *Runtime) RegisterStream(name string, schema *data.Schema, rate float64) (*stream.Input, error) {
	kind := catalog.KindStream
	if err := rt.Cat.AddSource(&catalog.Source{
		Name: name, Kind: kind, Schema: schema, Rate: rate,
	}); err != nil {
		return nil, err
	}
	return rt.Stream.Register(name, schema)
}

// RegisterSensorStream adds a raw sensor source produced by motes carrying
// the given sensor. Queries over it become candidates for in-network
// execution.
func (rt *Runtime) RegisterSensorStream(name string, kind sensornet.SensorKind, rate float64) error {
	if rt.fed.Sensors == nil {
		return fmt.Errorf("core: no sensor engine configured")
	}
	schema := sensor.ReadingSchema(name)
	if err := rt.Cat.AddSource(&catalog.Source{
		Name: name, Kind: catalog.KindSensorStream, Schema: schema, Rate: rate,
	}); err != nil {
		return err
	}
	rt.fed.Sensors.Kinds[strings.ToLower(name)] = kind
	rt.coord.Host().Sensors.Add(name, rt.sensors)
	if _, err := rt.Stream.Register(name, schema); err != nil {
		return err
	}
	return nil
}
