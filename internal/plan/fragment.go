package plan

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"strings"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/gobcheck"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// This file runs a deployment's sensor fragments: the federated optimizer's
// in-network select and join fragments, each feeding one scan of the
// deployment's plan. Every fragment runs as one fragRunner, owned by the
// deployment, that pushes each epoch's deliveries as one batch straight into
// its scan's head — never through a named engine input, so no other query
// can read them. Where it runs is the compile's decision:
//
//   - central: on the coordinator, sampling every mote, fired by the host
//     scheduler; it feeds the serial pipeline head or the scan's Sharder.
//   - shard-hosted: inside the replicas, shipped in the wire spec, on the
//     shard worker that physically hosts the sensor source. Each shard's
//     replica samples only the motes (or mote pairs) whose partition-key
//     hash routes to that shard, exactly mirroring the coordinator Sharder's
//     hash (data.Hasher.Route % P), so the shards' deliveries union to the
//     central run's and no exchange hop is needed.
//
// Hosted runners implement stream.Advancer (epochs catch up at tick
// barriers, after windows advance — the same advance-then-epoch order the
// serial scheduler's FIFO produces at shared instants) and
// stream.Checkpointer (the next-epoch anchor plus adaptive join placement
// stats ride shard checkpoints), so failover, rescale, and coordinator
// snapshots of the *stream* state stay exact: a re-deployed replica
// regenerates exactly the epochs after its restored anchor, which the
// failover undo already retracted downstream. Central runners keep no
// checkpointed state: they fire at the scheduler's instants.

// SensorFragment describes one sensor fragment feeding a scan of a plan,
// for CompileOptions.Fragments: the compile decides per fragment whether it
// can deploy inside the shard replicas (partition-aligned keys, epoch/tick
// alignment, every shard home hosting the sources) or runs centrally on the
// coordinator.
type SensorFragment struct {
	// Name is the derived input name the fragment covers: the Scan.Input of
	// the plan scan it feeds. The name only pairs the fragment with its
	// scan; nothing registers it as an engine input.
	Name string
	// Sources lists the raw catalog sensor sources the fragment reads
	// (lowercased); locality placement routes shards to workers hosting
	// them, and a worker can only host the fragment if its SensorHosts
	// registry carries every one.
	Sources []string

	// Exactly one of Select and Join is set, mirroring federation.Fragment.
	Select *sensor.SelectQuery
	Join   *sensor.JoinQuery
}

// period returns the fragment's effective epoch period (the sensor
// engine's 1s default applies).
func (f *SensorFragment) period() time.Duration {
	var p time.Duration
	switch {
	case f.Select != nil:
		p = f.Select.Period
	case f.Join != nil:
		p = f.Join.Period
	}
	if p <= 0 {
		p = time.Second
	}
	return p
}

// Schema returns the schema of the tuples the fragment delivers (nil when no
// query is set).
func (f *SensorFragment) Schema() *data.Schema {
	switch {
	case f.Select != nil:
		return f.Select.Schema()
	case f.Join != nil:
		return f.Join.Schema()
	}
	return nil
}

// fragKind discriminates wire fragments. Any other value is refused at
// decode.
type fragKind uint8

const (
	fragSelect fragKind = iota
	fragJoin
)

// snapFragment is the one gob mirror of a SensorFragment: a durable
// coordinator snapshot stores it per CompileOptions.Fragments entry (so a
// restored coordinator recompiles the deployment with its fragments), and a
// replica wire spec carries it inside each wireFragment. Predicates travel
// as raw expressions (expr.Compiled closures cannot cross processes or
// restarts) and re-Bind against the reading schemas at decode.
type snapFragment struct {
	Kind    fragKind
	Name    string
	Sources []string // SensorHosts registry keys a host must carry
	Period  time.Duration

	// fragSelect and the left side of fragJoin.
	Rel    string
	Sensor sensornet.SensorKind
	Pred   expr.Expr

	// fragJoin.
	RRel      string
	RSensor   sensornet.SensorKind
	RPred     expr.Expr
	On        expr.Expr
	PairBy    sensor.PairBy
	Radius    float64
	Placement sensor.Placement
}

// wireFragment is one shard-hosted sensor fragment inside a replica wire
// spec: the fragment's mirror plus what is particular to this deployment.
type wireFragment struct {
	Query   snapFragment
	Scan    string     // wire name of the scan head the epochs feed
	StartAt vtime.Time // first epoch instant (anchor; checkpoints override)
	KeyIdx  []int      // partition key columns of the fragment output schema
	P       int        // shard count the key hashes over
}

// exprSource unwraps a compiled predicate to its raw expression (nil-safe).
func exprSource(c *expr.Compiled) expr.Expr {
	if c == nil {
		return nil
	}
	return c.Source()
}

// encodeFragment lowers one shard-hosted fragment to its wire form.
func encodeFragment(f *SensorFragment, scan string, keyIdx []int, p int, startAt vtime.Time) (wireFragment, error) {
	q, err := encodeSnapFragment(f)
	if err != nil {
		return wireFragment{}, err
	}
	return wireFragment{Query: q, Scan: scan, StartAt: startAt, KeyIdx: keyIdx, P: p}, nil
}

// bindPred re-binds a raw wire predicate against a schema ("" = none).
func bindPred(e expr.Expr, schema *data.Schema) (*expr.Compiled, error) {
	if e == nil {
		return nil, nil
	}
	return expr.Bind(e, schema)
}

// SensorHosts registers the sensor engines a process hosts, keyed by
// lowercased raw source name. It is how every fragment runner finds its
// engine: a shard worker built with NewSensorWorker consults it when a
// deploy spec carries sensor fragments, and the coordinator passes its own
// registry as Host.Sensors for central runners and in-process shards (and
// failover's local last resort) alike.
// A nil *SensorHosts is a valid empty registry.
type SensorHosts struct {
	m map[string]*sensor.Engine
}

// NewSensorHosts creates an empty registry.
func NewSensorHosts() *SensorHosts { return &SensorHosts{m: map[string]*sensor.Engine{}} }

// Add registers an engine as the host of source (case-insensitive).
func (h *SensorHosts) Add(source string, e *sensor.Engine) {
	h.m[strings.ToLower(source)] = e
}

// Engine returns the engine hosting source, if any. Nil-receiver-safe.
func (h *SensorHosts) Engine(source string) (*sensor.Engine, bool) {
	if h == nil {
		return nil, false
	}
	e, ok := h.m[strings.ToLower(source)]
	return e, ok
}

// engineFor resolves the single engine hosting every source of the named
// fragment.
func (h *SensorHosts) engineFor(name string, sources []string) (*sensor.Engine, error) {
	var eng *sensor.Engine
	for _, src := range sources {
		e, ok := h.Engine(src)
		if !ok {
			return nil, fmt.Errorf("plan: fragment %s: this host has no sensor source %q", name, src)
		}
		if eng != nil && e != eng {
			return nil, fmt.Errorf("plan: fragment %s: sources %v span different sensor engines", name, sources)
		}
		eng = e
	}
	if eng == nil {
		return nil, fmt.Errorf("plan: fragment %s names no sources", name)
	}
	return eng, nil
}

// fragRunner runs one sensor fragment's epochs into the head of the scan it
// feeds, one batch per epoch (an epoch that delivers nothing pushes
// nothing). A central runner samples every mote and fires from the host
// scheduler (start). A shard-hosted runner samples its shard's partition and
// is driven by the replica's tick path (the replica's executor, on a worker
// or in process) after the windows advance, so its batches enter the replica
// head under the same single-writer discipline as exchanged data.
type fragRunner struct {
	head   stream.Operator
	period time.Duration
	run    func(now vtime.Time) // one epoch, delivering into buf
	buf    []data.Tuple
	// next is a hosted runner's next epoch instant.
	next vtime.Time
	// joinState is set for join fragments: its adaptive placement stats
	// ride a hosted runner's checkpoints.
	joinState *sensor.JoinState
	// stop cancels a central runner's schedule.
	stop func()
}

// newFragRunner binds fragment f, sampled on eng, to head. keep and pair
// restrict sampling to one shard's partition; nil filters sample every mote.
func newFragRunner(eng *sensor.Engine, f *SensorFragment, head stream.Operator, keep sensor.NodeFilter, pair sensor.PairFilter) (*fragRunner, error) {
	schema := f.Schema()
	if schema == nil {
		return nil, fmt.Errorf("plan: fragment %s has no query", f.Name)
	}
	if head.Schema().Arity() != schema.Arity() {
		return nil, fmt.Errorf("plan: fragment %s delivers %d columns into a %d-column scan", f.Name, schema.Arity(), head.Schema().Arity())
	}
	r := &fragRunner{head: head, period: f.period()}
	deliver := func(t data.Tuple) { r.buf = append(r.buf, t) }
	switch {
	case f.Select != nil:
		r.run = func(now vtime.Time) { eng.RunSelectEpochPart(f.Select, now, keep, deliver) }
	case f.Join != nil:
		st, err := eng.PlanJoinPart(f.Join, pair)
		if err != nil {
			return nil, err
		}
		r.joinState = st
		r.run = func(now vtime.Time) { eng.RunJoinEpoch(st, now, deliver) }
	}
	return r, nil
}

// epoch runs the epoch at instant at and pushes its deliveries as one batch.
// The batch's tuples pass to the head; the slice is reused for the next
// epoch. Once the runner is closed — even from inside this push — it pushes
// nothing more.
func (r *fragRunner) epoch(at vtime.Time) {
	r.run(at)
	if len(r.buf) > 0 && r.head != nil {
		r.head.PushBatch(r.buf)
	}
	clear(r.buf)
	r.buf = r.buf[:0]
}

// start fires a central runner every period on sched, at the scheduler's
// instants.
func (r *fragRunner) start(sched *vtime.Scheduler) {
	r.stop = sched.Every(r.period, func() { r.epoch(sched.Now()) })
}

// Close cancels a central runner's schedule and lets go of its head and
// buffer, so a closed runner holds neither tuples nor the pipeline.
// Idempotent.
func (r *fragRunner) Close() {
	if r.stop != nil {
		r.stop()
	}
	r.head, r.buf = nil, nil
}

// Advance implements stream.Advancer for a hosted runner: catch epochs up to
// now. Epoch instants coincide with tick instants (compile-side
// eligibility), so the runner fires at most once per tick in steady state;
// after a failover restore it regenerates every epoch since the checkpoint
// anchor — exactly the deliveries the coordinator's undo log retracted.
func (r *fragRunner) Advance(now vtime.Time) {
	for ; r.next <= now; r.next = r.next.Add(r.period) {
		r.epoch(r.next)
	}
}

// fragCkState is the gob body of a fragment runner checkpoint.
type fragCkState struct {
	Next  vtime.Time
	Stats []sensor.PairStatsSnapshot
}

// CheckpointState implements stream.Checkpointer.
func (r *fragRunner) CheckpointState() stream.OpState {
	st := fragCkState{Next: r.next}
	if r.joinState != nil {
		st.Stats = r.joinState.SnapshotStats()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		// gob of plain values cannot fail; keep the Checkpointer contract
		// total anyway.
		return stream.NewOpaqueState(nil)
	}
	return stream.NewOpaqueState(buf.Bytes())
}

// RestoreState implements stream.Checkpointer.
func (r *fragRunner) RestoreState(s stream.OpState) error {
	b, err := s.OpaqueData()
	if err != nil {
		return err
	}
	if len(b) == 0 {
		return nil
	}
	var st fragCkState
	if err := gobcheck.Decode(b, &st); err != nil {
		return fmt.Errorf("plan: decode fragment checkpoint: %w", err)
	}
	r.next = st.Next
	if r.joinState != nil {
		r.joinState.RestoreStats(st.Stats)
	}
	return nil
}

// shardKeep builds the node filter of one shard's partition of a select
// fragment: hash the node-determined key columns of its output schema
// (mote, room, desk, value) exactly as the coordinator's Sharder hashes
// delivered tuples. Unused value slots stay zero — Route folds only the
// KeyIdx positions.
func shardKeep(w *wireFragment, shard int) sensor.NodeFilter {
	var h data.Hasher
	p := uint64(w.P)
	vals := make([]data.Value, 4)
	return func(n sensornet.Node) bool {
		vals[0] = data.Int(int64(n.ID))
		vals[1] = data.Str(n.Room)
		vals[2] = data.Int(int64(n.Desk))
		return int(h.Route(data.Tuple{Vals: vals}, w.KeyIdx)%p) == shard
	}
}

// shardKeepPair is shardKeep over the concatenated join schema
// (mote,room,desk,value) × 2.
func shardKeepPair(w *wireFragment, shard int) sensor.PairFilter {
	var h data.Hasher
	p := uint64(w.P)
	vals := make([]data.Value, 8)
	return func(l, r sensornet.Node) bool {
		vals[0] = data.Int(int64(l.ID))
		vals[1] = data.Str(l.Room)
		vals[2] = data.Int(int64(l.Desk))
		vals[4] = data.Int(int64(r.ID))
		vals[5] = data.Str(r.Room)
		vals[6] = data.Int(int64(r.Desk))
		return int(h.Route(data.Tuple{Vals: vals}, w.KeyIdx)%p) == shard
	}
}

// hostedRunner rebuilds one wire fragment's query on this host's engine
// and binds its shard partition to the given replica head.
func (h *SensorHosts) hostedRunner(w *wireFragment, shard int, head stream.Operator) (*fragRunner, error) {
	eng, err := h.engineFor(w.Query.Name, w.Query.Sources)
	if err != nil {
		return nil, err
	}
	f, err := decodeSnapFragment(w.Query)
	if err != nil {
		return nil, err
	}
	// The spec arrived over the wire: re-check what the coordinator's
	// eligibility test established, or a damaged spec deploys a replica that
	// panics at its first epoch (a zero modulus, a key column off the row).
	if w.P < 1 || shard < 0 || shard >= w.P {
		return nil, fmt.Errorf("plan: fragment %s: shard %d of %d", w.Scan, shard, w.P)
	}
	arity := f.Schema().Arity()
	for _, idx := range w.KeyIdx {
		if idx < 0 || idx >= arity || !fragKeyEligible(&f, idx) {
			return nil, fmt.Errorf("plan: fragment %s: partition key column %d is not node-determined", w.Scan, idx)
		}
	}
	var keep sensor.NodeFilter
	var pair sensor.PairFilter
	if f.Join != nil {
		pair = shardKeepPair(w, shard)
	} else {
		keep = shardKeep(w, shard)
	}
	r, err := newFragRunner(eng, &f, head, keep, pair)
	if err != nil {
		return nil, err
	}
	r.next = w.StartAt
	return r, nil
}

// buildFragRunners instantiates every wire fragment of a replica for one
// shard, resolving each fragment's scan head by wire name. The returned
// runners append to the replica's advancers (after the windows — epochs
// run after the windows advance, matching the serial scheduler's FIFO
// order at shared instants) and to its checkpointers (after the compile
// order, identically on every host of the same spec).
func (h *SensorHosts) buildFragRunners(frags []wireFragment, shard int, heads map[string]stream.Operator) ([]*fragRunner, error) {
	var runners []*fragRunner
	for i := range frags {
		w := &frags[i]
		head, ok := heads[w.Scan]
		if !ok {
			return nil, fmt.Errorf("plan: fragment names unknown scan %s", w.Scan)
		}
		r, err := h.hostedRunner(w, shard, head)
		if err != nil {
			return nil, err
		}
		runners = append(runners, r)
	}
	return runners, nil
}

// encodeSnapFragment lowers one fragment spec to its mirror.
func encodeSnapFragment(f *SensorFragment) (snapFragment, error) {
	s := snapFragment{Name: f.Name, Sources: f.Sources}
	switch {
	case f.Select != nil:
		q := f.Select
		s.Kind, s.Rel, s.Sensor, s.Pred, s.Period = fragSelect, q.Rel, q.Sensor, exprSource(q.Pred), q.Period
	case f.Join != nil:
		q := f.Join
		s.Kind, s.PairBy, s.Radius, s.Placement, s.Period = fragJoin, q.PairBy, q.Radius, q.Placement, q.Period
		s.Rel, s.Sensor, s.Pred = q.Left.Rel, q.Left.Sensor, exprSource(q.Left.Pred)
		s.RRel, s.RSensor, s.RPred = q.Right.Rel, q.Right.Sensor, exprSource(q.Right.Pred)
		s.On = exprSource(q.On)
	default:
		return snapFragment{}, fmt.Errorf("plan: fragment %s has no query", f.Name)
	}
	return s, nil
}

// decodeSnapFragment rebuilds a fragment spec from its mirror, re-binding
// predicates — at a coordinator restore and at every shard home alike.
func decodeSnapFragment(s snapFragment) (SensorFragment, error) {
	f := SensorFragment{Name: s.Name, Sources: s.Sources}
	switch s.Kind {
	case fragSelect:
		pred, err := bindPred(s.Pred, sensor.ReadingSchema(s.Rel))
		if err != nil {
			return SensorFragment{}, err
		}
		f.Select = &sensor.SelectQuery{Rel: s.Rel, Sensor: s.Sensor, Pred: pred, Period: s.Period}
	case fragJoin:
		lPred, err := bindPred(s.Pred, sensor.ReadingSchema(s.Rel))
		if err != nil {
			return SensorFragment{}, err
		}
		rPred, err := bindPred(s.RPred, sensor.ReadingSchema(s.RRel))
		if err != nil {
			return SensorFragment{}, err
		}
		q := &sensor.JoinQuery{
			Left:   sensor.JoinSide{Rel: s.Rel, Sensor: s.Sensor, Pred: lPred},
			Right:  sensor.JoinSide{Rel: s.RRel, Sensor: s.RSensor, Pred: rPred},
			PairBy: s.PairBy, Radius: s.Radius, Placement: s.Placement, Period: s.Period,
		}
		if q.On, err = bindPred(s.On, q.Schema()); err != nil {
			return SensorFragment{}, err
		}
		f.Join = q
	default:
		return SensorFragment{}, fmt.Errorf("plan: unknown fragment kind %d", s.Kind)
	}
	return f, nil
}

// feedScans pairs every fragment with the scan it feeds: the first scan, in
// plan-walk order, that reads the fragment's derived input and that no
// earlier fragment claimed. It returns the pairing both ways — frags[i]
// feeds scans[i] — and fails on a fragment that feeds no scan of the plan.
func feedScans(frags []SensorFragment, all []*Scan) ([]*Scan, map[*Scan]*SensorFragment, error) {
	if len(frags) == 0 {
		return nil, nil, nil
	}
	scans := make([]*Scan, len(frags))
	fragFor := make(map[*Scan]*SensorFragment, len(frags))
	for i := range frags {
		j := slices.IndexFunc(all, func(sc *Scan) bool {
			return fragFor[sc] == nil && strings.EqualFold(sc.Input, frags[i].Name)
		})
		if j < 0 {
			return nil, nil, fmt.Errorf("plan: fragment %s feeds no scan of the plan", frags[i].Name)
		}
		scans[i], fragFor[all[j]] = all[j], &frags[i]
	}
	return scans, fragFor, nil
}

// hostedFragments decides which fragments deploy inside the shard replicas
// placed at loc — in plan-walk order of the scans they feed — and encodes
// them for the replica spec. A fragment goes there when its shard key is
// node-determined (sampling partitions by it), its epochs land on tick
// instants, the coordinator hosts its sources (in-process shards, failover's
// local last resort) and every remote shard home declares affinity for
// them; anything else stays a central runner. With every shard in-process
// there is no hop to save and nothing is hosted.
//
// A rehydrating compile replays the snapshot's decision verbatim instead:
// eligibility is a function of the compile instant (epoch anchors, tick
// alignment) and of worker affinity, both of which may legitimately differ
// now — but the shard checkpoints were encoded against exactly the
// snapshot's runner list, so the same fragments must go remote in the same
// wire order.
func hostedFragments(host Host, opts *CompileOptions, scans []*Scan, fragFor map[*Scan]*SensorFragment, keys map[*Scan][]expr.Expr, loc []string, affinity map[string][]string) ([]wireFragment, error) {
	var wire []wireFragment
	now := host.now()
	encode := func(i int, keyIdx []int) error {
		f := fragFor[scans[i]]
		w, err := encodeFragment(f, scanName(i), keyIdx, opts.Parallelism, now.Add(f.period()))
		if err == nil {
			wire = append(wire, w)
		}
		return err
	}
	switch {
	case opts.restoreForceFrags:
		for _, name := range opts.restoreRemoteFrags {
			i := slices.IndexFunc(scans, func(sc *Scan) bool {
				return fragFor[sc] != nil && strings.EqualFold(fragFor[sc].Name, name)
			})
			if i < 0 {
				return nil, fmt.Errorf("plan: snapshot pins fragment %s remote, but the plan no longer carries it", name)
			}
			keyIdx, ok := fragmentKeyIdx(fragFor[scans[i]], scans[i], keys[scans[i]])
			if !ok {
				return nil, fmt.Errorf("plan: snapshot pins fragment %s remote, but its shard key is no longer node-determined", name)
			}
			if err := encode(i, keyIdx); err != nil {
				return nil, err
			}
		}
	case anyRemote(loc):
		for i, sc := range scans {
			f := fragFor[sc]
			if f == nil {
				continue
			}
			keyIdx, ok := fragmentKeyIdx(f, sc, keys[sc])
			if !ok || !alignedWithTicks(f.period(), host.Tick, now) || !hostedAt(f, host.Sensors, loc, affinity) {
				continue
			}
			if err := encode(i, keyIdx); err != nil {
				return nil, err
			}
		}
	}
	return wire, nil
}

// hostedAt reports whether every source of f is hosted by this process and
// declared by every worker in the placement.
func hostedAt(f *SensorFragment, hosts *SensorHosts, loc []string, affinity map[string][]string) bool {
	if hosts == nil {
		return false
	}
	for _, src := range f.Sources {
		if _, ok := hosts.Engine(src); !ok {
			return false
		}
		for _, addr := range loc {
			if addr != "" && !slices.Contains(affinity[addr], strings.ToLower(src)) {
				return false
			}
		}
	}
	return true
}

// fragKeyEligible reports, per fragment kind, whether an output-schema
// column is node-determined — known at sampling time from the mote alone,
// before any reading — and therefore usable as a sampling partition key.
func fragKeyEligible(f *SensorFragment, idx int) bool {
	switch {
	case f.Select != nil:
		return idx <= 2 // (mote, room, desk) of (mote, room, desk, value)
	case f.Join != nil:
		return idx != 3 && idx != 7 // both sides' (mote, room, desk)
	}
	return false
}

// fragmentKeyIdx resolves the shard-key columns of the scan a fragment
// feeds to output-schema indexes, reporting whether the fragment's
// sampling can be partitioned on them: every key must be a bare column the
// mote determines before sampling. Value-dependent or expression keys keep
// the fragment central.
func fragmentKeyIdx(f *SensorFragment, sc *Scan, keys []expr.Expr) ([]int, bool) {
	if len(keys) == 0 {
		return nil, false // nil = all columns (value included): not node-determined
	}
	idxs := make([]int, 0, len(keys))
	for _, k := range keys {
		col, ok := k.(expr.Col)
		if !ok {
			return nil, false
		}
		i, err := sc.Schema().ColIndex(col.Ref)
		if err != nil || !fragKeyEligible(f, i) {
			return nil, false
		}
		idxs = append(idxs, i)
	}
	return idxs, true
}

// alignedWithTicks reports whether epochs anchored at now+period land
// exactly on engine tick instants — the condition under which the worker's
// advance-then-epoch order at tick barriers reproduces the serial
// scheduler's FIFO order, keeping the distributed run multiset-identical.
func alignedWithTicks(period, tick time.Duration, now vtime.Time) bool {
	if tick <= 0 || period <= 0 {
		return false
	}
	return period%tick == 0 && int64(now)%int64(tick) == 0
}
