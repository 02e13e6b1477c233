package plan

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// TableHead is the pipeline entry point of one table scan; the deployer
// pushes the table's current rows into it directly, so that a freshly
// deployed query sees rows loaded before it subscribed (pushed inputs have
// no replay).
type TableHead struct {
	Input string
	Head  stream.Operator
}

// Load pushes rows into the table-scan head as one batch, amortizing
// downstream dispatch (lock acquisitions, transport frames) over the whole
// initial table load.
func (th TableHead) Load(rows []data.Tuple) {
	th.Head.PushBatch(rows)
}

// Deployment is a compiled continuous query running on a stream engine.
type Deployment struct {
	// Result is the materialized continuous result; displays snapshot it
	// with the plan's ORDER BY / LIMIT. Deployment.Snapshot flushes first,
	// so it reflects every push. Without a flush (Result.OnChange, a direct
	// read), what a push changes shows once it is processed: a serial
	// query's within the push, an in-process shard's one queue hop after
	// it, and a ShardWorker-hosted shard's at the engine's next tick at the
	// latest, because the exchange holds a worker-hosted shard's batch
	// until then or until it fills (stream.Sharder.PushBatch).
	Result  *stream.Materialize
	OrderBy []stream.OrderSpec
	Limit   int
	// Inputs lists the engine inputs the plan subscribed to.
	Inputs []string
	// TableHeads lists table-scan entry points awaiting initial loads.
	TableHeads []TableHead
	// Shards is the partition-parallel width the plan deployed with
	// (1 = serial execution).
	Shards int
	// TwoPhase reports that the plan's aggregate deployed as per-shard
	// PartialAggregate stages merged by one serial FinalMerge (the path
	// that shards global aggregates and non-partitionable grouping keys).
	TwoPhase bool
	// RemoteFragments names the fragments (SensorFragment.Name) that
	// deployed inside the shard replicas, in wire order: each shard samples
	// its partition where it runs. The deployment runs every other fragment
	// of CompileOptions.Fragments centrally.
	RemoteFragments []string

	set *stream.ShardSet
	// scanSources lists the sources this plan's shards want to sit near —
	// scanned inputs, with fragment-fed scans resolved to their raw sensor
	// sources — so Rescale re-applies the same locality policy the compile
	// used.
	scanSources []string
	// coordCks lists the coordinator-side stateful operators — serial
	// pipeline (or two-phase spine) operators in compile order, then the
	// materialized result — the deterministic sequence durable snapshots
	// encode and a rehydrated deployment restores. Operators living in
	// shared prefix chains are excluded: the chain, not any one deployment,
	// owns them, and Sharing.CaptureChains snapshots their windows once per
	// chain. A result-group member lists none: its store is derived from
	// its chain's window.
	coordCks []stream.Checkpointer

	// runners are the deployment's central fragment runners, in
	// CompileOptions.Fragments order; Close cancels them first.
	runners []*fragRunner
	// eng is the engine the deployment attached to; Close detaches the
	// records below from it.
	eng *stream.Engine
	// heads records every engine-input subscription the compile made —
	// serial pipeline heads, sharded exchange Sharders — so Close can
	// unsubscribe them.
	heads []headSub
	// advs records the engine-tracked advancers (serial windows; the
	// shard set itself) for UntrackWindow at Close.
	advs []stream.Advancer
	// shared records refcounted attachments to shared prefix chains.
	shared []sharedAttach
	// group is the shared result group Result is a view of, nil when the
	// deployment owns its result; Close leaves it.
	group *sharedResult

	closeOnce sync.Once
}

// headSub is one recorded engine-input subscription.
type headSub struct {
	in *stream.Input
	op stream.Operator
}

// Flush blocks until every tuple pushed so far has been fully processed.
// Serial deployments process synchronously, so it only acts on sharded
// ones, where it barriers the shard homes (stream.ShardSet.Flush). Without
// failover an idle Flush posts nothing: when no batch, tick or rescale has
// reached a home since a barrier every home acked, it returns without a
// round trip. With failover armed it always barriers, which is what finds a
// worker lost since the last barrier and waits out its failover.
func (d *Deployment) Flush() {
	if d.set != nil {
		d.set.Flush()
	}
}

// Snapshot returns the current result rows under the query's ORDER BY and
// LIMIT, after flushing any in-flight sharded work. Without failover a
// re-read with nothing new since the last one costs only the copy: its
// Flush posts no barrier, and the result store copies its rows out in the
// order it remembers from the last snapshot, without sorting.
func (d *Deployment) Snapshot() ([]data.Tuple, error) {
	d.Flush()
	return d.Result.Snapshot(d.OrderBy, d.Limit)
}

// Close stops the deployment and detaches it from the engine: its central
// fragment runners stop first, then shard workers (if any), then every
// engine-input subscription the compile made is unsubscribed, every tracked
// advancer untracked, and every shared-prefix attachment released —
// tearing down any chain whose last query this was. A result-group member's
// Result freezes: it keeps the rows it read at Close. Safe on a live engine: an in-flight push or tick
// keeps the subscriber list it loaded, so at most one final delivery
// lands; later pushes into the deployment's inputs and later clock ticks
// no longer reach it. Close is idempotent and concurrent-safe with
// Snapshot — the set pointer stays in place, and Flush on a closed set
// is a no-op.
func (d *Deployment) Close() {
	d.closeOnce.Do(func() {
		for _, r := range d.runners {
			r.Close()
		}
		if d.set != nil {
			d.set.Close()
		}
		for _, h := range d.heads {
			h.in.Unsubscribe(h.op)
		}
		if d.eng != nil {
			for _, a := range d.advs {
				d.eng.UntrackWindow(a)
			}
		}
		for _, sa := range d.shared {
			sa.release()
		}
		if d.group != nil {
			d.group.leave(d.Result)
		}
	})
}

// Rescale moves a live sharded deployment onto a new worker topology,
// re-applying the locality placement policy the compile used: shards
// round-robin over the workers whose affinity annotations cover a scanned
// source, falling back to all workers (the Topology.Nodes placement
// rule), with "" keeping a shard in-process and an empty list pulling
// every shard home. Moved shards carry their checkpointed operator state,
// so results stay multiset-identical to serial across the move; untouched
// shards never stop serving. This is both elastic scale-out/in (workers
// joining or leaving) and heal-back (re-homing shards a past failover
// stranded in-process or piled onto a survivor). Serial deployments have
// no shards to move and report an error.
func (d *Deployment) Rescale(nodes []string) error {
	if d.set == nil {
		return fmt.Errorf("plan: Rescale on a serial deployment (no shards to move)")
	}
	addrs, affinity, err := ParseNodes(nodes)
	if err != nil {
		return err
	}
	loc := placeShards(d.Shards, addrs, affinity, d.scanSources)
	return d.set.Rescale(loc)
}

// Placement reports where each shard currently runs ("" = in-process) —
// the live topology after failovers and rescales, as opposed to the
// Topology.Nodes request the coordinator records.
func (d *Deployment) Placement() []string {
	if d.set == nil {
		return nil
	}
	return d.set.Placement()
}

// ParseNodes splits a Topology.Nodes list into plain worker
// addresses and source affinities. Each entry is either a bare address
// ("127.0.0.1:7001") or an annotated one ("127.0.0.1:7001=temperature,light")
// declaring which raw sources that worker physically hosts. The returned
// addrs keep the entry order (they are what gets dialed); affinity maps
// each annotated address to its lowercased source list.
//
// Malformed lists are configuration errors, not silent degradations: an
// affinity annotation without an address ("=sensors") would otherwise map
// to the in-process worker with its affinity dropped, and a duplicate
// address would double-weight one worker in placeShards.
func ParseNodes(nodes []string) (addrs []string, affinity map[string][]string, err error) {
	affinity = map[string][]string{}
	addrs = make([]string, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for i, n := range nodes {
		addr, srcs, ok := strings.Cut(n, "=")
		addrs[i] = addr
		if ok && addr == "" {
			return nil, nil, fmt.Errorf("plan: node entry %q declares a source affinity but no worker address", n)
		}
		if addr != "" {
			if seen[addr] {
				return nil, nil, fmt.Errorf("plan: duplicate worker address %q in node list", addr)
			}
			seen[addr] = true
		}
		if !ok || addr == "" {
			continue
		}
		for _, s := range strings.Split(srcs, ",") {
			if s = strings.TrimSpace(s); s != "" {
				affinity[addr] = append(affinity[addr], strings.ToLower(s))
			}
		}
	}
	return addrs, affinity, nil
}

// placeShards applies the locality policy: shards round-robin over the
// workers whose affinity covers at least one of the plan's scanned sources
// (in Nodes order), so a scan's partitions land where its data originates;
// when no worker declares a matching affinity the placement degrades to
// the load-balanced round-robin over every worker. An empty address list
// keeps all shards in-process.
func placeShards(p int, addrs []string, affinity map[string][]string, scanSources []string) []string {
	loc := make([]string, p)
	if len(addrs) == 0 {
		return loc
	}
	pool := addrs
	if affine := affineAddrs(addrs, affinity, scanSources); len(affine) > 0 {
		pool = affine
	}
	for j := range loc {
		loc[j] = pool[j%len(pool)]
	}
	return loc
}

// anyRemote reports whether a placement puts any shard on a worker.
func anyRemote(loc []string) bool {
	return slices.ContainsFunc(loc, func(addr string) bool { return addr != "" })
}

// affineAddrs filters addrs to those whose affinity covers a scanned
// source, preserving order.
func affineAddrs(addrs []string, affinity map[string][]string, scanSources []string) []string {
	want := make(map[string]bool, len(scanSources))
	for _, s := range scanSources {
		want[strings.ToLower(s)] = true
	}
	var out []string
	for _, a := range addrs {
		for _, s := range affinity[a] {
			if want[s] {
				out = append(out, a)
				break
			}
		}
	}
	return out
}

// captureStates snapshots the deployment at one consistency point: the
// per-shard encoded operator states (nil for a serial deployment) and the
// coordinator-side state (nil for a serial deployment with no
// checkpointers), taken under the shard set's quiescent barrier so both
// halves agree. Serial deployments process synchronously, so their capture
// is consistent as long as the caller is not pushing concurrently — the
// same contract Snapshot has.
func (d *Deployment) captureStates() (map[int][]byte, []byte, error) {
	if d.set == nil {
		if len(d.coordCks) == 0 {
			return nil, nil, nil
		}
		coord, err := stream.EncodeCheckpoint(d.coordCks)
		if err != nil {
			return nil, nil, err
		}
		return nil, coord, nil
	}
	var coord []byte
	shards, err := d.set.CheckpointAll(func() error {
		var serr error
		coord, serr = stream.EncodeCheckpoint(d.coordCks)
		return serr
	})
	if err != nil {
		return nil, nil, err
	}
	return shards, coord, nil
}

// Topology is the one description of how a deployment is spread over
// processes: how wide it shards, which workers host the shards, and how it
// survives losing one. Every layer that configures a deployment embeds this
// value instead of re-declaring its fields — CompileOptions here,
// core.Config, smartcis.Options, the aspenql flags — and the coordinator's
// snapshot records it per deployment (snapDeployment's flat fields).
type Topology struct {
	// Parallelism requests hash-partitioned parallel execution across this
	// many pipeline replicas. Values < 2 compile serial; plans the shard
	// analysis cannot prove partitionable (see shard.go) fall back to
	// serial compilation silently — check Deployment.Shards.
	Parallelism int
	// Nodes distributes the replicas over shard workers (see
	// plan.NewWorker / cmd/shardworker). Entries are worker addresses,
	// optionally annotated with the raw sources the worker physically
	// hosts ("addr=temperature,light" — see ParseNodes). Placement is
	// locality-aware: shards round-robin over the workers whose affinity
	// covers a scanned source, falling back to round-robin over all
	// workers ("" keeps a replica in-process; empty list means all
	// in-process). Exchange routing, clock ticks, and Flush/Snapshot
	// barriers span the worker connections, so results stay
	// multiset-identical to serial execution wherever the replicas live.
	// All deployments to one worker multiplex over a single pooled TCP
	// connection, each as its own wire stream.
	//
	// Naming workers without Parallelism >= 2 is a configuration error
	// (the explicit machine list would be silently ignored). Plans the
	// shard analysis cannot partition still fall back to serial without
	// their workers, mirroring the documented Parallelism semantics —
	// check Deployment.Shards/Placement when distribution matters.
	Nodes []string
	stream.Recovery
}

// Workers validates the topology and splits Nodes into the worker addresses
// and their source affinities (see ParseNodes).
func (t Topology) Workers() (addrs []string, affinity map[string][]string, err error) {
	if len(t.Nodes) > 0 && t.Parallelism < 2 {
		return nil, nil, fmt.Errorf("plan: a Nodes topology (%d workers) requires Parallelism >= 2, got %d",
			len(t.Nodes), t.Parallelism)
	}
	return ParseNodes(t.Nodes)
}

// Host is the one description of the process a plan compiles into: the
// stream engine, and what that process offers a deployment besides it. A
// Coordinator is built from one and compiles every Deploy and Restore
// against it; CompileStreamOpts takes it where a bare compile has no
// coordinator. Only Engine is required.
type Host struct {
	Engine *stream.Engine
	// Sharing, when set, lets serial compiles share canonicalized plan
	// prefixes — the scan, its window, and any stack of selections over one
	// non-table source — with every other deployment compiled against the
	// same registry: N queries run one physical prefix chain, fanning out
	// only where their plans diverge, and the last Close tears the chain
	// down. Identical Project?(Select*(Scan)) plans over a windowed chain
	// also share one result store, each reading it through a view of its own.
	// Sharded plans ignore it. See Sharing for semantics (warm-start attach,
	// positional canon keys, result groups).
	Sharing *Sharing
	// Sensors registers the sensor engines this process hosts: central
	// fragment runners sample on them, and in-process shards (and
	// failover's in-process last resort) run fragment partitions on them.
	// A deployment with fragments compiles only where it resolves their
	// sources — here, or at every remote shard home that hosts them.
	Sensors *SensorHosts
	// Sched is the scheduler central fragment runners fire on.
	Sched *vtime.Scheduler
	// Tick is the engine's clock tick cadence; shard-hosted fragments must
	// fire on tick instants (period a positive multiple, anchor aligned), so
	// the compile needs it to decide eligibility.
	Tick time.Duration
	// Now is the scheduler clock, read once per compile: fragment epochs
	// anchor at Now()+period, matching a central runner started at the same
	// instant. Nil reads as instant 0.
	Now func() vtime.Time
}

func (h Host) now() vtime.Time {
	if h.Now == nil {
		return 0
	}
	return h.Now()
}

// CompileOptions is what varies from one deployment to the next on the same
// Host.
type CompileOptions struct {
	Topology
	// OnFailover, when set, observes completed failovers (tests, ops).
	OnFailover func(stream.FailoverEvent)
	// Fragments lists the sensor fragments feeding this plan's scans, each
	// the scan whose Input is its Name. The deployment owns their runners,
	// and each pushes straight into its scan's head: such a scan is never
	// subscribed to a named engine input, never joins a shared chain or
	// result group, and its name is not registered with the engine. The
	// compile hosts a fragment inside the shard replicas — partitioned
	// sampling next to the data — when the shard key is node-determined,
	// epochs align with engine ticks, and every remote shard home declares
	// affinity for the fragment's sources (see Deployment.RemoteFragments);
	// every other fragment runs centrally, on Host.Sensors and Host.Sched.
	Fragments []SensorFragment

	// restoreShards and restoreCoord rehydrate a deployment from a durable
	// coordinator snapshot (see Coordinator): per-shard operator states
	// keyed by shard index, and the coordinator-side state. Unexported —
	// only Coordinator.Restore compiles with them, and it derives both
	// from a snapshot the same compile produced.
	restoreShards map[int][]byte
	restoreCoord  []byte
	// restoreLoc pins the exact per-shard placement captured at snapshot
	// time (after any failovers/rescales), overriding the Nodes round-robin
	// rule, so a rehydrated deployment lands its shards where their state
	// last lived.
	restoreLoc []string
	// restoreForceFrags pins the fragment placement decision instead of
	// re-deriving it: exactly the fragments named in restoreRemoteFrags
	// deploy inside the shard replicas, in that order. Eligibility is
	// time-dependent (epoch/tick alignment anchors at Now), so a restore
	// must replay the snapshot's decision — the shard checkpoints carry one
	// opaque runner state per remote fragment, and the checkpointer lists
	// must match position for position.
	restoreForceFrags  bool
	restoreRemoteFrags []string
}

// CompileStreamOpts lowers a logical plan onto host's stream engine: it builds
// the operator pipeline bottom-up, registers/validates the engine inputs
// the scans need, and subscribes the pipeline to them. When the plan names
// a display (OUTPUT TO), the result also feeds the engine's display. With
// Parallelism > 1 and a partitionable plan, the pipeline is replicated per
// shard behind Sharder exchanges and folded back through a Merge. A plan
// carrying a recursive view (Built.View) compiles serial at any Parallelism.
func CompileStreamOpts(b *Built, host Host, opts CompileOptions) (*Deployment, error) {
	eng := host.Engine
	// Validate the topology up front, on every path: serial fallbacks would
	// otherwise carry a malformed node list into a later Rescale.
	addrs, affinity, err := opts.Workers()
	if err != nil {
		return nil, err
	}
	if opts.Parallelism > 1 && b.View == nil {
		if strat, ok := analyzeShard(b.Root); ok {
			return compileSharded(b, host, opts, strat, addrs, affinity)
		}
	}
	feeds, fragFor, err := feedScans(opts.Fragments, Scans(b.Root))
	if err != nil {
		return nil, err
	}
	dep := &Deployment{OrderBy: b.OrderBy, Limit: b.Limit, Shards: 1, eng: eng}
	if host.Sharing != nil && len(feeds) == 0 && b.View == nil {
		if handled, err := host.Sharing.tryAttachResult(b, dep); handled {
			if err != nil {
				return nil, err
			}
			return dep, nil
		}
	}
	sink, err := newDeploymentSink(b, eng, dep)
	if err != nil {
		return nil, err
	}
	heads := map[*Scan]stream.Operator{}
	c := &compiler{
		track: func(a stream.Advancer) {
			eng.TrackWindow(a)
			dep.advs = append(dep.advs, a)
		},
		ck: func(k stream.Checkpointer) { dep.coordCks = append(dep.coordCks, k) },
		scanHead: func(x *Scan, head stream.Operator) error {
			if fragFor[x] != nil {
				heads[x] = head // its fragment's runner feeds it
				return nil
			}
			return attachScan(x, head, eng, dep)
		},
		share:     host.Sharing,
		fragFor:   fragFor,
		rec:       b.View,
		dep:       dep,
		restoring: opts.restoreCoord != nil,
	}
	if sink == stream.Operator(dep.Result) {
		c.store = dep.Result
	}
	fail := func(err error) (*Deployment, error) {
		dep.Close() // detach whatever the partial compile already wired
		return nil, err
	}
	if err := c.compile(b.Root, sink, nil); err != nil {
		return fail(err)
	}
	if err := dep.buildRunners(host, opts.Fragments, feeds, heads); err != nil {
		return fail(err)
	}
	dep.coordCks = append(dep.coordCks, dep.Result)
	if opts.restoreCoord != nil {
		if err := stream.RestoreCheckpoint(dep.coordCks, opts.restoreCoord); err != nil {
			return fail(err)
		}
	}
	dep.startRunners(host.Sched)
	return dep, nil
}

// buildRunners builds the central runner of every fragment whose scan has a
// head in heads — frags[i] feeds feeds[i] — in frags order. Its engine is
// the one host.Sensors registers for the fragment's sources, the rule every
// shard home uses, and it will fire on host.Sched.
func (d *Deployment) buildRunners(host Host, frags []SensorFragment, feeds []*Scan, heads map[*Scan]stream.Operator) error {
	for i := range frags {
		f, head := &frags[i], heads[feeds[i]]
		if head == nil {
			continue // hosted in the shard replicas
		}
		if host.Sched == nil {
			return fmt.Errorf("plan: fragment %s runs on the coordinator, but the Host has no scheduler", f.Name)
		}
		eng, err := host.Sensors.engineFor(f.Name, f.Sources)
		if err != nil {
			return err
		}
		r, err := newFragRunner(eng, f, head, nil, nil)
		if err != nil {
			return err
		}
		d.runners = append(d.runners, r)
	}
	return nil
}

// startRunners puts the central fragment runners on sched's schedule, in
// CompileOptions.Fragments order, once the deployment's taps are open: at an
// instant they share with the engine tick or another query's runners they
// fire in the order they were registered.
func (d *Deployment) startRunners(sched *vtime.Scheduler) {
	for _, r := range d.runners {
		r.start(sched)
	}
}

// newDeploymentSink builds the shared result sink: the materialized result,
// fanned out to the engine display too when the plan names one.
func newDeploymentSink(b *Built, eng *stream.Engine, dep *Deployment) (stream.Operator, error) {
	mat := stream.NewMaterialize(b.Root.Schema())
	dep.Result = mat
	var sink stream.Operator = mat
	if b.Display != "" {
		disp, err := eng.Display(b.Display, b.Root.Schema())
		if err != nil {
			return nil, err
		}
		fan := stream.NewFanout(b.Root.Schema())
		fan.Subscribe(mat)
		fan.Subscribe(disp)
		sink = fan
	}
	return sink, nil
}

// resolveScanInput registers (or validates) the engine input behind a
// scan without subscribing anything.
func resolveScanInput(x *Scan, eng *stream.Engine) (*stream.Input, error) {
	in, ok := eng.Input(x.Input)
	if !ok {
		var err error
		in, err = eng.Register(x.Input, x.Schema())
		if err != nil {
			return nil, err
		}
	}
	if in.Schema().Arity() != x.Schema().Arity() {
		return nil, fmt.Errorf("plan: input %s arity %d does not match scan %s",
			x.Input, in.Schema().Arity(), x.Schema())
	}
	return in, nil
}

// attachScan wires a finished pipeline head to its scan's engine input and
// records it on the deployment.
func attachScan(x *Scan, head stream.Operator, eng *stream.Engine, dep *Deployment) error {
	in, err := resolveScanInput(x, eng)
	if err != nil {
		return err
	}
	in.Subscribe(head)
	dep.heads = append(dep.heads, headSub{in: in, op: head})
	dep.Inputs = append(dep.Inputs, x.Input)
	if x.IsTable {
		dep.TableHeads = append(dep.TableHeads, TableHead{Input: x.Input, Head: head})
	}
	return nil
}

// compileSharded deploys P pipeline replicas: each scan feeds a Sharder
// that hash-partitions its input on the analysis-chosen key, every
// replica's windows are clock-ticked by the shard set in-order with that
// shard's data, and all replicas emit into one Merge-guarded sink.
//
// With a two-phase strategy the replicas cover only the subtree below the
// split aggregate, each capped by a PartialAggregate; the operators above
// the split — the serial spine — compile once behind the Merge funnel,
// fed by the FinalMerge that combines the shards' partial states.
//
// The replicas themselves are never compiled here: the subtree is encoded
// once into a wire spec and the shard set builds every replica from it
// through SensorHosts.DeployReplica — in this process for a "" home, inside
// the worker process for a node address — the same routine a later Rescale
// or failover uses, so a shard is the same replica wherever and whenever it
// comes to exist. The Sharder routes a remote shard's partitions over the
// worker connection, and the worker funnels results (or partial rows) back
// through the same connection into the Merge sink. Worker connections are
// logical streams: every deployment to the same address shares one pooled
// TCP connection (stream.WorkerConnCount counts the sockets), with FIFO
// ordering per stream preserved for barriers and failover.
//
// A selection directly over a scan that an engine input feeds also runs
// ahead of that scan's exchange (exchangePreds): the input feeds
// Filter → Sharder, so a rejected tuple is never routed, queued, encoded or
// sent. The replica spec is unchanged — the replica still evaluates the
// selection, as its window's admission predicate — so snapshots and wire
// specs stay what they were. The consequence: a rejected tuple no longer
// reaches its shard's window, so it no longer drives that window's expiry;
// the expiry happens at the shard's next admitted tuple or tick instead.
// Sharding had already made that expiry shard-local, so the contract stands:
// the result is multiset-equal to serial execution after every tick and
// Flush.
func compileSharded(b *Built, host Host, opts CompileOptions, strat *shardStrategy, addrs []string, affinity map[string][]string) (*Deployment, error) {
	p, eng := opts.Parallelism, host.Engine
	dep := &Deployment{OrderBy: b.OrderBy, Limit: b.Limit, Shards: p,
		TwoPhase: strat.Split != nil, eng: eng}
	sink, err := newDeploymentSink(b, eng, dep)
	if err != nil {
		return nil, err
	}

	parRoot := b.Root
	merge := stream.NewMerge(sink)
	if strat.Split != nil {
		sc := &compiler{
			splitAgg: strat.Split,
			track:    func(stream.Advancer) {}, // the spine is unary and windowless
			ck:       func(k stream.Checkpointer) { dep.coordCks = append(dep.coordCks, k) },
			scanHead: func(x *Scan, _ stream.Operator) error {
				return fmt.Errorf("plan: scan %s on the serial spine of a two-phase plan", x.Input)
			},
		}
		if err := sc.compile(b.Root, sink, nil); err != nil {
			return nil, err
		}
		merge = stream.NewMerge(sc.finalMerge)
		parRoot = strat.Split.In
	}

	// Place: shards land on the workers hosting the plan's sources — a
	// scan's input, or the raw sensor sources behind the fragment feeding
	// it — load-balanced over all workers otherwise ("" keeps a shard
	// in-process); Rescale re-applies the same policy from scanSources. A
	// rehydrating compile instead pins the placement the snapshot captured.
	scans := Scans(parRoot)
	feeds, fragFor, err := feedScans(opts.Fragments, scans)
	if err != nil {
		return nil, err
	}
	for _, sc := range scans {
		if f := fragFor[sc]; f != nil {
			dep.scanSources = append(dep.scanSources, f.Sources...)
		} else if !sc.IsTable {
			dep.scanSources = append(dep.scanSources, strings.ToLower(sc.Input))
		}
	}
	loc := placeShards(p, addrs, affinity, dep.scanSources)
	if len(opts.restoreLoc) == p {
		copy(loc, opts.restoreLoc)
	}

	// Decide which fragments run inside the replicas, and encode.
	wireFrags, err := hostedFragments(host, &opts, scans, fragFor, strat.Keys, loc, affinity)
	if err != nil {
		return nil, err
	}
	hosted := map[string]bool{}
	for _, w := range wireFrags {
		dep.RemoteFragments = append(dep.RemoteFragments, w.Query.Name)
		hosted[w.Scan] = true
	}

	// Every sharded deployment encodes its replica spec and arms the shard
	// set with it, even all-in-process ones: Rescale needs the spec to move
	// shards onto workers that join later. With Failover the arming also
	// carries replay logs and failure notification (checkpointed redeploy on
	// worker loss); without it moves are planned-only — worker loss stays
	// fail-stop and the hot path pays nothing.
	spec, err := encodeReplica(parRoot, strat.Split, wireFrags)
	if err != nil {
		return nil, err
	}
	dep.coordCks = append(dep.coordCks, dep.Result)
	if opts.restoreCoord != nil {
		if err := stream.RestoreCheckpoint(dep.coordCks, opts.restoreCoord); err != nil {
			return nil, err
		}
	}

	// Build every exchange and central fragment runner, then every replica,
	// then resolve every input — all before anything is wired into the live
	// engine: a failure on the second scan must not leave the first scan's
	// Sharder subscribed and feeding a dead set. The scan heads answer to the
	// walk-order names both sides derive from the tree. A central fragment
	// feeds its scan's Sharder; a hosted one, the replica heads.
	set := stream.NewShardSet(p)
	shs := make([]*stream.Sharder, len(scans))
	heads := map[*Scan]stream.Operator{}
	for i, scan := range scans {
		if shs[i], err = newScanSharder(set, scanName(i), scan, strat.Keys[scan]); err != nil {
			return nil, err
		}
		if fragFor[scan] != nil && !hosted[scanName(i)] {
			heads[scan] = shs[i]
		}
	}
	if err := dep.buildRunners(host, opts.Fragments, feeds, heads); err != nil {
		return nil, err
	}
	preds, err := exchangePreds(parRoot, scans, fragFor)
	if err != nil {
		return nil, err
	}
	// A rehydrating compile ships each shard's snapshotted state along. On
	// error the set has torn down whatever it had placed.
	err = set.Deploy(stream.ShardConfig{
		Spec:        spec,
		Nodes:       addrs,
		Sink:        merge,
		LocalDeploy: host.Sensors.DeployReplica,
		Recovery:    opts.Recovery,
		OnFailover:  opts.OnFailover,
	}, loc, opts.restoreShards)
	if err != nil {
		return nil, err
	}
	ins := make([]*stream.Input, len(scans))
	for i, scan := range scans {
		if fragFor[scan] != nil {
			continue
		}
		if ins[i], err = resolveScanInput(scan, eng); err != nil {
			set.Close()
			return nil, err
		}
	}
	// Nothing can fail past here: open the taps. From Deploy on, the set
	// owns the worker connections (Close barriers and closes them).
	eng.TrackWindow(set)
	dep.advs = append(dep.advs, set)
	dep.set = set
	for i, scan := range scans {
		if ins[i] == nil {
			continue
		}
		var head stream.Operator = shs[i]
		if preds[i] != nil {
			head = stream.NewFilter(shs[i], preds[i])
		}
		ins[i].Subscribe(head)
		dep.heads = append(dep.heads, headSub{in: ins[i], op: head})
		dep.Inputs = append(dep.Inputs, scan.Input)
		if scan.IsTable {
			dep.TableHeads = append(dep.TableHeads, TableHead{Input: scan.Input, Head: shs[i]})
		}
	}
	dep.startRunners(host.Sched)
	return dep, nil
}

// exchangePreds binds, for each of scans (the scans of root, in walk
// order), the selection directly over it that also runs ahead of its
// exchange, or leaves nil. Only a scan an engine input feeds takes one — a
// fragment's runner pushes into its scan's head directly — and only where
// filtersAhead allows.
func exchangePreds(root Node, scans []*Scan, fragFor map[*Scan]*SensorFragment) ([]*expr.Compiled, error) {
	over := map[*Scan]*Select{}
	var walk func(Node)
	walk = func(n Node) {
		if sel, ok := n.(*Select); ok {
			if sc, ok := sel.In.(*Scan); ok {
				over[sc] = sel
			}
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(root)
	preds := make([]*expr.Compiled, len(scans))
	for i, sc := range scans {
		sel := over[sc]
		if sel == nil || fragFor[sc] != nil || !filtersAhead(sc) {
			continue
		}
		pred, err := expr.Bind(sel.Pred, sc.Schema())
		if err != nil {
			return nil, err
		}
		preds[i] = pred
	}
	return preds, nil
}

// filtersAhead reports whether a selection directly over x may also run
// ahead of x's exchange: x is a stream whose window, if any, counts time.
// A table routes every row it is loaded with (TableHead feeds the exchange
// directly), and a selection commutes with a time window but not with a
// ROWS window's row count.
func filtersAhead(x *Scan) bool {
	w := windowFor(x.Window)
	return !x.IsTable && (w == nil || w.kind != sql.WindowRows)
}

// newScanSharder builds the exchange in front of one scan's replica heads
// (registered under name at every home). When every key is a bare column
// the exchange routes on stored values (the allocation-free fast path);
// computed keys route on evaluated expression values. nil keys partition on
// all columns.
func newScanSharder(set *stream.ShardSet, name string, scan *Scan, keys []expr.Expr) (*stream.Sharder, error) {
	if keys == nil {
		return stream.NewSharder(set, name, scan.Schema(), nil)
	}
	keyIdx := make([]int, 0, len(keys))
	allCols := true
	for _, k := range keys {
		col, ok := k.(expr.Col)
		if !ok {
			allCols = false
			break
		}
		i, err := scan.Schema().ColIndex(col.Ref)
		if err != nil {
			return nil, fmt.Errorf("plan: shard key %s: %w", col.Ref, err)
		}
		keyIdx = append(keyIdx, i)
	}
	if allCols {
		return stream.NewSharder(set, name, scan.Schema(), keyIdx)
	}
	compiled := make([]*expr.Compiled, len(keys))
	for i, k := range keys {
		c, err := expr.Bind(k, scan.Schema())
		if err != nil {
			return nil, fmt.Errorf("plan: shard key %s: %w", k, err)
		}
		compiled[i] = c
	}
	return stream.NewExprSharder(set, name, scan.Schema(), compiled)
}

// compiler carries the deployment context of one pipeline replica: who
// receives clock ticks, what to do with a finished scan head (subscribe it
// directly, or hand it to a Sharder), and — for failover-capable replicas —
// who collects the stateful operators for checkpointing.
//
// splitAgg, when set, marks the aggregate a two-phase plan splits at: the
// compiler lowers it to a FinalMerge (recorded in finalMerge) and stops
// descending — the subtree below belongs to the replicas.
type compiler struct {
	track    func(stream.Advancer)
	scanHead func(*Scan, stream.Operator) error
	// ck observes every stateful operator in compile order; DeployReplica
	// sets it so checkpoints snapshot and restore in one deterministic
	// sequence on every host of the same spec.
	ck func(stream.Checkpointer)

	// share and dep, when set (serial compiles on a Host with Sharing),
	// divert shareable prefixes onto the shared chain registry instead of
	// compiling them privately. restoring marks a snapshot rehydration:
	// shared attaches skip the warm-start replay because the restored suffix
	// state already reflects the window.
	share     *Sharing
	dep       *Deployment
	restoring bool
	// fragFor marks the scans sensor fragments feed, and rec is the
	// recursive view that feeds every scan of its name (see view); neither
	// kind of scan ever shares.
	fragFor map[*Scan]*SensorFragment
	rec     *recView

	splitAgg   *Aggregate
	finalMerge *stream.FinalMerge
	// store is the deployment's result when it is the plan root's one
	// consumer — a serial deployment naming no display — and nil
	// otherwise: rule 4 compiles a bare-column projection into it.
	store *stream.Materialize
}

// deploymentFed reports whether n is a stack of selections over a scan its
// deployment feeds — from a sensor fragment's runner or a recursive view —
// rather than a named engine input.
func (c *compiler) deploymentFed(n Node) bool {
	sc, _, ok := shareablePrefix(n)
	return ok && (c.fragFor[sc] != nil || c.rec.feeds(sc))
}

// ckAdd reports a stateful operator to the checkpoint collector, if any.
func (c *compiler) ckAdd(k stream.Checkpointer) {
	if c.ck != nil {
		c.ck(k)
	}
}

// compile lowers the plan rooted at n onto stream operators feeding out.
// cols lists the columns of n's schema that out accepts — what writes(n, …)
// returned for the columns out's operator reads — nil meaning all of them,
// as for a plan's root.
//
// It builds only what the plan reads, by three rules. They run wherever the
// compiler does — serial deployments, the serial spine of a two-phase plan,
// and every shard replica (DeployReplica) — and never rewrite the plan
// tree, so Node.String, the wire spec and the snapshot layout are the
// tree's.
//
//  1. A selection directly over a scan's RANGE, RANGE…SLIDE or NOW window
//     becomes the window's admission predicate (stream.Window.Admit): it
//     runs before the window buffers, so rejected tuples are never held,
//     expired or tested twice. A selection commutes with a time window but
//     not with a row count, so over a ROWS window it stays a Filter above
//     the window. So it does in a compile with Sharing, where the scan and
//     its selections belong to a shared chain with one window and a
//     GroupedFilter.
//  2. Each operator is told which of its input's columns it reads — group
//     keys and aggregate arguments, projection items, predicate columns —
//     and a join writes only those plus its own residual's columns, in
//     concatenated order (stream.NewJoinCols); its consumer binds to that
//     narrower schema. Only what a join emits narrows: its sides still hand
//     it whole rows, so the rows it stores, and which of them a deletion
//     finds, are the node-per-operator lowering's. A join over a join,
//     DISTINCT and the plan's root consumer read every column.
//  3. A projection whose items are exactly its input's columns in order —
//     buildFlat's reprojection to SELECT order over an aggregate already in
//     that order, or over a join that writes just the selected columns —
//     compiles to nothing: its input feeds out directly.
//  4. A projection of bare columns straight into the deployment's own
//     store compiles into the store: its input feeds the store's column
//     feed (stream.Materialize.KeepColumns, through resultFeed), which
//     copies those columns into the store's row with no projected row
//     built first. It applies only where out is that store, so a serial
//     deployment naming no display. A computed item keeps its Project, and
//     so do a display fan-out (OUTPUT TO), the serial spine of a two-phase
//     plan and a sharded plan's Merge-fed sink, whose compiles have no
//     store; a result group applies the same rule to its own store
//     (Sharing.tryAttachResult).
//
// Every rule holds rows, their order and their batches to what the
// node-per-operator lowering emits, so results are bit-identical.
func (c *compiler) compile(n Node, out stream.Operator, cols []int) error {
	// The walk is top-down, so the first shareable subtree seen is the
	// maximal shareable prefix: attach out to its shared chain and stop
	// descending — the chain (not this deployment) owns those operators. A
	// shareable subtree holds no join, so it writes every column. A scan the
	// deployment feeds is its own.
	if c.share != nil && !c.deploymentFed(n) {
		if handled, err := c.share.tryAttach(n, out, c.dep, c.restoring); handled {
			return err
		}
	}
	switch x := n.(type) {
	case *Scan:
		return c.scan(x, out, nil)

	case *Select:
		pred, err := expr.Bind(x.Pred, narrow(x.In.Schema(), cols))
		if err != nil {
			return err
		}
		if sc, ok := x.In.(*Scan); ok && c.share == nil && admits(sc) {
			return c.scan(sc, out, pred)
		}
		return c.compile(x.In, stream.NewFilter(out, pred), cols)

	case *Project:
		need := make([]bool, x.In.Schema().Arity())
		for _, it := range x.Items {
			if err := readCols(need, x.In.Schema(), it.Expr); err != nil {
				return err
			}
		}
		in, err := writes(x.In, need)
		if err != nil {
			return err
		}
		schema := narrow(x.In.Schema(), in)
		if isIdentity(x.Items, schema) {
			return c.compile(x.In, out, in)
		}
		var p stream.Operator
		if c.store != nil && out == stream.Operator(c.store) {
			p, err = resultFeed(c.store, schema, x.Items)
		} else {
			p, err = stream.NewProject(out, schema, x.Items)
		}
		if err != nil {
			return err
		}
		return c.compile(x.In, p, in)

	case *Join:
		// Only the rows the join emits narrow: its sides hand it whole
		// rows, so what it stores, and which row a deletion removes, are
		// what they would be unnarrowed.
		j, err := stream.NewJoinCols(out, x.L.Schema(), x.R.Schema(), x.LKey, x.RKey, x.Residual, cols)
		if err != nil {
			return err
		}
		c.ckAdd(j)
		if err := c.compile(x.L, j.Left(), nil); err != nil {
			return err
		}
		return c.compile(x.R, j.Right(), nil)

	case *Aggregate:
		if c.splitAgg == x {
			fm, err := stream.NewFinalMerge(out, x.In.Schema(), x.GroupBy, x.Specs, x.Having)
			if err != nil {
				return err
			}
			c.finalMerge = fm
			c.ckAdd(fm)
			return nil
		}
		in, err := aggWrites(x.In, x.GroupBy, x.Specs)
		if err != nil {
			return err
		}
		a, err := stream.NewAggregate(out, narrow(x.In.Schema(), in), x.GroupBy, x.Specs, x.Having)
		if err != nil {
			return err
		}
		c.ckAdd(a)
		return c.compile(x.In, a, in)

	case *Distinct:
		d := stream.NewDistinct(out)
		c.ckAdd(d)
		return c.compile(x.In, d, nil)
	}
	return fmt.Errorf("plan: cannot compile %T", n)
}

// scan compiles a scan feeding out: through its window, if it has one, with
// admit (when set) as the window's admission predicate. A scan of the
// recursive view is fed by a view of its own, never by an engine input.
func (c *compiler) scan(x *Scan, out stream.Operator, admit *expr.Compiled) error {
	head := out
	if w := windowFor(x.Window); w != nil && !x.IsTable {
		win := buildWindow(w, out)
		if admit != nil {
			if err := win.Admit(admit); err != nil {
				return err
			}
		}
		c.track(win)
		c.ckAdd(win)
		head = win
	}
	// else unwindowed stream: tuples accumulate (append-only source)
	if c.rec.feeds(x) {
		return c.view(head)
	}
	return c.scanHead(x, head)
}

// admits reports whether a selection directly over the scan may run as its
// window's admission predicate: the scan is a stream with a time or NOW
// window. Over a ROWS window, or none, the selection stays a Filter.
func admits(x *Scan) bool {
	w := windowFor(x.Window)
	return !x.IsTable && w != nil && w.kind != sql.WindowRows
}

// writes returns the columns of n's schema that n's operators write when
// their consumer reads the columns need marks (nil: all): ascending
// positions, or nil for every column. Only a join leaves columns out — it
// still writes its residual's — and a selection passes its input's choice
// through, adding its predicate's columns to what it asks for.
func writes(n Node, need []bool) ([]int, error) {
	if need == nil {
		return nil, nil
	}
	switch x := n.(type) {
	case *Select:
		need = slices.Clone(need)
		if err := readCols(need, x.Schema(), x.Pred); err != nil {
			return nil, err
		}
		return writes(x.In, need)
	case *Join:
		need = slices.Clone(need)
		if err := readCols(need, x.Schema(), x.Residual); err != nil {
			return nil, err
		}
		if !slices.Contains(need, false) {
			return nil, nil
		}
		cols := []int{}
		for i, read := range need {
			if read {
				cols = append(cols, i)
			}
		}
		return cols, nil
	}
	return nil, nil
}

// aggWrites returns what writes does for an aggregate's input: the columns
// the aggregate reads are its group keys and its arguments.
func aggWrites(in Node, groupBy []string, specs []stream.AggSpec) ([]int, error) {
	need := make([]bool, in.Schema().Arity())
	for _, g := range groupBy {
		if err := readCols(need, in.Schema(), expr.C(g)); err != nil {
			return nil, err
		}
	}
	for _, s := range specs {
		if err := readCols(need, in.Schema(), s.Arg); err != nil {
			return nil, err
		}
	}
	return writes(in, need)
}

// readCols marks in need the columns of s that e reads.
func readCols(need []bool, s *data.Schema, e expr.Expr) error {
	if e == nil {
		return nil
	}
	for _, ref := range expr.Columns(e) {
		i, err := s.ColIndex(ref)
		if err != nil {
			return err
		}
		need[i] = true
	}
	return nil
}

// narrow is s narrowed to the columns cols lists (nil: all of them).
func narrow(s *data.Schema, cols []int) *data.Schema {
	if cols == nil {
		return s
	}
	return s.Project(cols)
}

// resultFeed returns what feeds store with the projection of in through
// items: when every item is a bare column of in, the store's own column feed,
// which copies those columns into its row with no projected row built;
// otherwise a Project in front of it.
func resultFeed(store *stream.Materialize, in *data.Schema, items []stream.ProjectItem) (stream.Operator, error) {
	cols := make([]int, len(items))
	for i, it := range items {
		col, ok := it.Expr.(expr.Col)
		if !ok {
			return stream.NewProject(store, in, items)
		}
		k, err := in.ColIndex(col.Ref)
		if err != nil {
			return stream.NewProject(store, in, items)
		}
		cols[i] = k
	}
	return store.KeepColumns(in, cols)
}

// isIdentity reports whether a projection's items are exactly the columns
// of its input, in order.
func isIdentity(items []stream.ProjectItem, in *data.Schema) bool {
	if len(items) != in.Arity() {
		return false
	}
	for i, it := range items {
		col, ok := it.Expr.(expr.Col)
		if !ok {
			return false
		}
		if k, err := in.ColIndex(col.Ref); err != nil || k != i {
			return false
		}
	}
	return true
}

type windowSpec struct {
	kind  sql.WindowKind
	rng   time.Duration
	slide time.Duration
	rows  int
}

func windowFor(w *sql.WindowSpec) *windowSpec {
	if w == nil || w.Kind == sql.WindowNone {
		return nil
	}
	return &windowSpec{kind: w.Kind, rng: w.Range, slide: w.Slide, rows: w.Rows}
}

func buildWindow(w *windowSpec, out stream.Operator) *stream.Window {
	switch w.kind {
	case sql.WindowRows:
		return stream.NewRowsWindow(out, w.rows)
	case sql.WindowNow:
		return stream.NewNowWindow(out)
	default:
		return stream.NewTimeWindow(out, w.rng, w.slide)
	}
}
