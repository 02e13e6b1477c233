// Package core is the ASPEN substrate runtime — the paper's primary
// contribution assembled: it owns the catalog, the federated optimizer, a
// stream engine, an optional sensor engine, and the simulation clock, and
// it drives a query through the full Figure 1 lifecycle:
//
//	StreamSQL → parser → federated optimizer → {sensor engine, stream engine}
//
// Pushed fragments run on the sensor engine in epochs, each feeding its
// deployment's scan directly; database tables load into each deployment's
// join state; recursive (WITH RECURSIVE) queries are maintained
// incrementally by internal/views; results materialize for displays.
package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
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
	// SensorEngine is optional; without it every query runs all-stream.
	SensorEngine *sensor.Engine
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
	// Sharing or not, identical texts whose plan depends on the catalog
	// alone also share one optimizer result while one of them runs (Run).
	SharedPrefixes bool
	// SnapshotPath makes the coordinator durable: the plan.Coordinator
	// tracking every running statement is persisted by SaveSnapshot to
	// this file (atomic, checksummed, fsynced through the rename) and
	// RestoreSnapshot rehydrates after a coordinator restart — standing
	// SELECT queries recompile onto their snapshotted shard placement and
	// resume from the last committed checkpoint, shared-prefix window state
	// and sensor fragments included (shard-hosted fragments whose workers
	// are gone resume in-process on this runtime's SensorEngine). A restore
	// that cannot bring back every query brings back none.
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
	qn    atomic.Int64

	// plans holds the optimizer's answer for the text of every live SELECT
	// whose plan depends on the catalog alone (livePlan), so a Run of the
	// same text deploys it without parsing or planning again. Stop may come
	// from any goroutine, so the map sits under a mutex of its own.
	plansMu sync.Mutex
	plans   map[string]*livePlan
}

// livePlan is the optimizer's answer for one text, the catalog generation
// it was made at, and how many live queries deployed it.
type livePlan struct {
	res  *federation.Result
	gen  uint64
	live int
}

// New builds a runtime.
func New(cfg Config) *Runtime {
	if cfg.Scheduler == nil {
		cfg.Scheduler = vtime.NewScheduler()
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
		Stream:    stream.NewEngine("pc1", cfg.Scheduler),
		sensors:   cfg.SensorEngine,
		recursion: cfg.RecursionDepth,
		topo:      cfg.Topology,
		plans:     map[string]*livePlan{},
	}
	host := plan.Host{Engine: rt.Stream, Tick: cfg.TickPeriod, Now: cfg.Scheduler.Now, Sched: cfg.Scheduler}
	if cfg.SharedPrefixes {
		host.Sharing = plan.NewSharing(rt.Stream)
	}
	rt.fed = &federation.Federator{Cat: rt.Cat}
	if cfg.SensorEngine != nil {
		// RegisterSensorStream binds each sensor source as it is declared.
		host.Sensors = plan.NewSensorHosts()
		rt.fed.Sensors = &federation.Binding{Kinds: map[string]sensornet.SensorKind{}, Engine: cfg.SensorEngine}
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
	// made. Live queries of one SELECT text whose plan depends on the
	// catalog alone share it, and the plan.Built it chose: both are
	// read-only.
	Partition *federation.Result

	rt   *Runtime
	name string // coordinator-tracked name ("" for CREATE VIEW)
}

// Name reports the name the coordinator tracks a live SELECT or WITH
// RECURSIVE query under (q1, q2, …; "" for CREATE VIEW and after Stop).
func (q *Query) Name() string { return q.name }

// Snapshot returns the current result under the query's ORDER BY/LIMIT.
// Rows that ORDER BY leaves tied, and all rows when there is none, come out
// in ascending value order, column by column: NULLs first, then numbers by
// value (1, 2, 10), strings byte by byte ("L101" before "MR1"), booleans and
// times. An ORDER BY column sorts in the same order, reversed under DESC, so
// its NULLs come last there. A LIMIT without ORDER BY keeps the least rows.
// A re-read with nothing new since the last one copies the rows out in the
// order that one sorted, and does not sort again.
func (q *Query) Snapshot() ([]data.Tuple, error) {
	if q.Deployment == nil {
		return nil, fmt.Errorf("core: statement %q has no result", q.SQL)
	}
	return q.Deployment.Snapshot()
}

// Stop quiesces the query's deployment: its sensor fragment runners and
// shard workers (if any) stop, every engine-input subscription and
// clock-tick registration the deployment made is detached, and any shared
// prefix chains this was the last query on are torn down. The materialized result keeps its last state but no longer
// updates, and later input into the query's sources no longer reaches
// its operators — other queries on the same inputs are unaffected. The
// last Stop of the live queries sharing one text's plan lets the runtime
// forget that plan, so the next Run of the text plans it again.
func (q *Query) Stop() {
	if q.name == "" {
		return // a CREATE VIEW, or a second Stop: nothing to do
	}
	// Drop closes the deployment and stops snapshotting it; the name is
	// live, so it has nothing to report.
	_ = q.rt.coord.Drop(q.name)
	q.name = ""
	q.rt.release(q.SQL, q.Partition)
}

// Run parses and deploys one StreamSQL statement. A SELECT whose text a
// live query already runs, with the catalog unchanged since that query was
// planned, deploys the same plan without being parsed or planned again;
// such a plan pushes no sensor fragment and scans no stored table, whose
// estimates follow live state. Every other statement is parsed and planned
// on every Run. Runs may overlap one another, but as plan.Sharing requires,
// not a push into a source whose shared chain they attach to.
func (rt *Runtime) Run(sqlText string) (*Query, error) {
	gen := rt.Cat.Generation()
	if res := rt.livePlan(sqlText, gen); res != nil {
		return rt.deploySelect(sqlText, res, gen, true) // an entry is catalogOnly
	}
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
		res, err := rt.fed.Optimize(s)
		if err != nil {
			return nil, err
		}
		return rt.deploySelect(sqlText, res, gen, catalogOnly(res.Chosen))
	case *sql.WithRecursive:
		built, err := plan.BuildRecursive(s, rt.Cat, rt.recursion)
		if err != nil {
			return nil, err
		}
		return rt.deploy(sqlText, built, plan.CompileOptions{})
	}
	return nil, fmt.Errorf("core: unsupported statement %T", stmt)
}

// deploy compiles built through the coordinator under the next name q1, q2, …
// and loads the tables it scans. A compile that fails has torn down whatever
// it wired, so a failed statement leaks nothing but its name.
func (rt *Runtime) deploy(sqlText string, built *plan.Built, opts plan.CompileOptions) (*Query, error) {
	name := fmt.Sprintf("q%d", rt.qn.Add(1))
	dep, err := rt.coord.Deploy(name, built, opts)
	if err != nil {
		return nil, err
	}
	rt.loadTables(dep)
	return &Query{SQL: sqlText, Deployment: dep, rt: rt, name: name}, nil
}

// deploySelect deploys the optimizer's choice for a SELECT planned at
// catalog generation gen, and counts the query on the text's live plan when
// keep says that plan depends on the catalog alone (catalogOnly, decided
// once when the plan was made).
func (rt *Runtime) deploySelect(sqlText string, res *federation.Result, gen uint64, keep bool) (*Query, error) {
	specs := fragSpecs(res.Chosen.Fragments)
	q, err := rt.deploy(sqlText, res.Chosen.StreamPlan, plan.CompileOptions{Topology: rt.topo, Fragments: specs})
	if err != nil {
		return nil, err
	}
	q.Partition = res
	if keep {
		rt.hold(sqlText, res, gen)
	}
	return q, nil
}

// catalogOnly reports whether the optimizer's choice depends on the catalog
// alone: it pushes no fragment, whose cost follows the live sensor network,
// and scans no stored table, whose live size orders the joins.
func catalogOnly(alt *federation.Alternative) bool {
	if len(alt.Fragments) > 0 {
		return false
	}
	for _, s := range plan.Scans(alt.StreamPlan.Root) {
		if s.IsTable {
			return false
		}
	}
	return true
}

// livePlan returns the plan a live query of sqlText runs, if it was made at
// catalog generation gen.
func (rt *Runtime) livePlan(sqlText string, gen uint64) *federation.Result {
	rt.plansMu.Lock()
	defer rt.plansMu.Unlock()
	if e := rt.plans[sqlText]; e != nil && e.gen == gen {
		return e.res
	}
	return nil
}

// hold counts one more live query of sqlText running res. A plan other than
// the text's entry replaces it, and the replaced plan's queries release
// nothing.
func (rt *Runtime) hold(sqlText string, res *federation.Result, gen uint64) {
	rt.plansMu.Lock()
	defer rt.plansMu.Unlock()
	if e := rt.plans[sqlText]; e != nil && e.res == res {
		e.live++
		return
	}
	rt.plans[sqlText] = &livePlan{res: res, gen: gen, live: 1}
}

// release counts one live query of sqlText running res less, and forgets
// the text's entry after its last. A query planned before the entry was
// replaced releases nothing.
func (rt *Runtime) release(sqlText string, res *federation.Result) {
	rt.plansMu.Lock()
	defer rt.plansMu.Unlock()
	if e := rt.plans[sqlText]; e != nil && e.res == res {
		if e.live--; e.live == 0 {
			delete(rt.plans, sqlText)
		}
	}
}

// fragSpecs lowers the optimizer's fragment decisions to the compile-level
// descriptors locality placement and shard-hosted deployment work from.
func fragSpecs(frags []*federation.Fragment) []plan.SensorFragment {
	specs := make([]plan.SensorFragment, 0, len(frags))
	for _, f := range frags {
		specs = append(specs, plan.SensorFragment{
			Name: f.DerivedName, Sources: f.Sources,
			Select: f.Select, Join: f.Join,
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

// Sharing exposes the multi-query sharing registry (nil without
// Config.SharedPrefixes) — tests and ops inspect live chain counts.
func (rt *Runtime) Sharing() *plan.Sharing { return rt.coord.Host().Sharing }

// SaveSnapshot checkpoints every coordinator-tracked query at a quiescent
// barrier and atomically replaces the snapshot file (Config.SnapshotPath;
// without one it is an error).
// Shared-prefix window state and sensor fragment deployments are captured
// too; the returned slice names every query the snapshot could not record —
// the live WITH RECURSIVE ones, whose views' state the snapshot has no
// field for (empty = complete snapshot) — surface it, never ignore it.
func (rt *Runtime) SaveSnapshot() ([]string, error) { return rt.coord.Save() }

// RestoreSnapshot rehydrates the standing queries recorded in the
// snapshot file onto this runtime: each recompiles with its shards pinned
// to the snapshotted placement and every operator — shared chain windows
// and shard-hosted fragment runners included — restored from the last
// committed checkpoint. Table loads are NOT replayed — the restored join and
// window state already contains them; sources push new input as usual.
// Sensor fragments resume where they ran: shard-hosted ones redeploy with
// their checkpointed epoch anchors (in-process when their snapshotted
// workers are gone), central ones restart their runners here. Returns the
// restored queries in name order plus the names the snapshot recorded as
// skipped at Save time (those queries must be re-run). A validation or
// compile failure — a fragment whose source this runtime does not host, say
// — restores nothing, leaves the coordinator empty and the file as it was,
// and reports why.
func (rt *Runtime) RestoreSnapshot() ([]*Query, []string, error) {
	skipped, err := rt.coord.Restore()
	if err != nil {
		return nil, nil, err
	}
	var qs []*Query
	for _, name := range rt.coord.Names() {
		dep, _ := rt.coord.Deployment(name)
		sqlText := name
		if b, ok := rt.coord.Built(name); ok {
			sqlText = b.String()
		}
		qs = append(qs, &Query{SQL: sqlText, Deployment: dep, rt: rt, name: name})
		// Keep q1, q2, … unique across the restart.
		var n int64
		if _, err := fmt.Sscanf(name, "q%d", &n); err == nil && n > rt.qn.Load() {
			rt.qn.Store(n)
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
