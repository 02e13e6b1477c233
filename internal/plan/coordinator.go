package plan

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"aspen/internal/gobcheck"
	"aspen/internal/stream"
)

// Coordinator is the one owner of every standing query a process runs, and
// what makes that process survivable. Built once from the Host it compiles
// into, it deploys, rescales and drops every named deployment — SELECTs and
// recursive views alike — and persists what it can rebuild:
// logical plans, compile options, the live shard placement, and a consistent
// checkpoint of every operator's state, in a single snapshot file. A
// restarted coordinator rehydrates its standing queries from that file and
// resumes from the last committed checkpoint, closing the survivability
// gap PR 5 left: workers could die and recover, but the coordinator was a
// single point of total loss.
//
// # Snapshot format
//
// One file, replaced atomically (temp file + rename on the same
// directory, both fsynced, and the directory synced across the rename):
//
//	offset  size  field
//	0       8     magic "ASPENSNP"
//	8       4     format version (little-endian u32, currently 2)
//	12      4     CRC-32 (IEEE) of the body
//	16      —     body: gob-encoded snapFile
//
// The body holds one record per deployment: the wire-encoded plan tree
// (the same wireNode mirror shard workers deploy from), the presentation
// spec (ORDER BY / LIMIT / display), the compile options, the per-shard
// placement and operator states, the coordinator-side state (serial
// pipeline or two-phase spine plus the materialized result), and — new
// in version 2 — the deployment's sensor fragment specs with the names
// of those deployed remotely, plus one window state per shared prefix
// chain and the names of any deployments the Save had to skip. Version 1
// snapshots still load (their new fields decode zero: no fragments, no
// chain state, no skips — exactly what a v1 Save could record). Load
// verifies magic, version, and checksum before decoding, so a truncated,
// corrupted, or stale-format file is a clean error — never a panic or a
// silently partial rehydration.
type Coordinator struct {
	host Host
	path string

	mu   sync.Mutex
	deps map[string]*coordEntry
}

type coordEntry struct {
	dep   *Deployment
	built *Built
	opts  CompileOptions
}

var errNoPath = errors.New("plan: no SnapshotPath configured")

const (
	snapMagic = "ASPENSNP"
	// snapVersion is the format this build writes; snapVersionMin..snapVersion
	// all load (older bodies decode with the newer fields zero).
	snapVersion    = 2
	snapVersionMin = 1
)

// snapFile is the gob body of a coordinator snapshot.
type snapFile struct {
	Deployments []snapDeployment
	// Chains maps each shared prefix chain's canonical key to its base
	// window's encoded state, captured once per chain however many
	// deployments attach to it (v2).
	Chains map[string][]byte
	// Skipped names deployments this snapshot could not capture (v2);
	// Save and Restore both surface the list so a skip is never silent.
	Skipped []string
}

// snapDeployment is one standing query's durable record.
type snapDeployment struct {
	Name string

	// Logical plan and presentation (Built).
	Root         wireNode
	OrderBy      []stream.OrderSpec
	Limit        int
	Display      string
	SamplePeriod time.Duration

	// The Topology the deployment ran with, kept as the flat fields format
	// version 2 first had (an embedded struct would gob as one
	// nested field and orphan every existing file); setTopology and topology
	// are the only conversions.
	Parallelism     int
	Nodes           []string
	Failover        bool
	CheckpointEvery int
	StallTimeout    time.Duration

	// Live topology and state at the snapshot's consistency point: Coord is
	// nil for a deployment with no coordinator-side operators, such as a
	// shared result's member, whose store copy in older files Restore ignores.
	Placement []string
	Shards    map[int][]byte
	Coord     []byte

	// Sensor fragments feeding the plan's scans (v2): the full
	// specs, and the names of those that deployed inside shard replicas
	// at snapshot time — the shard states above carry one runner state
	// per RemoteFrags entry, so a rehydrating compile must re-deploy
	// exactly those fragments in this order.
	Fragments   []snapFragment
	RemoteFrags []string
}

func (sd *snapDeployment) setTopology(t Topology) {
	sd.Parallelism, sd.Nodes = t.Parallelism, t.Nodes
	sd.Failover, sd.CheckpointEvery, sd.StallTimeout = t.Failover, t.CheckpointEvery, t.StallTimeout
}

func (sd *snapDeployment) topology() Topology {
	return Topology{Parallelism: sd.Parallelism, Nodes: sd.Nodes, Recovery: stream.Recovery{
		Failover: sd.Failover, CheckpointEvery: sd.CheckpointEvery, StallTimeout: sd.StallTimeout}}
}

// NewCoordinator tracks deployments compiled into host and snapshots them to
// path. Deploy and Restore compile against the same host, so a snapshot saved
// on a host with Sharing restores only on one with it (and the coordinator-
// side checkpoint sequence both compiles produce lines up): Save captures
// each shared chain's window state once per chain, and Restore rebuilds the
// chains warm before re-attaching queries. Restoring fragment-carrying
// deployments needs the host's Sensors, Sched, Tick and Now; pure stream
// deployments need only its Engine. An empty path keeps the coordinator
// in-memory only: everything but Save and Restore works.
func NewCoordinator(host Host, path string) *Coordinator {
	return &Coordinator{host: host, path: path, deps: map[string]*coordEntry{}}
}

// Host returns the process description the coordinator was built from.
func (c *Coordinator) Host() Host { return c.host }

// Deploy compiles b under name and tracks it for snapshots. Names must be
// unique among live deployments.
func (c *Coordinator) Deploy(name string, b *Built, opts CompileOptions) (*Deployment, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.deps[name]; ok {
		return nil, fmt.Errorf("plan: deployment %q already exists", name)
	}
	dep, err := CompileStreamOpts(b, c.host, opts)
	if err != nil {
		return nil, err
	}
	c.deps[name] = &coordEntry{dep: dep, built: b, opts: opts}
	return dep, nil
}

// Deployment returns a tracked deployment by name.
func (c *Coordinator) Deployment(name string) (*Deployment, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.deps[name]
	if !ok {
		return nil, false
	}
	return e.dep, true
}

// Built returns the logical plan a tracked deployment compiled from.
func (c *Coordinator) Built(name string) (*Built, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.deps[name]
	if !ok {
		return nil, false
	}
	return e.built, true
}

// Names lists tracked deployments, sorted.
func (c *Coordinator) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.deps))
	for n := range c.deps {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Drop closes and forgets a tracked deployment.
func (c *Coordinator) Drop(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.deps[name]
	if !ok {
		return fmt.Errorf("plan: no deployment %q", name)
	}
	e.dep.Close()
	delete(c.deps, name)
	return nil
}

// Rescale moves one tracked deployment onto a new worker topology (see
// Deployment.Rescale) and records the topology for future snapshots.
func (c *Coordinator) Rescale(name string, nodes []string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.deps[name]
	if !ok {
		return fmt.Errorf("plan: no deployment %q", name)
	}
	if err := e.dep.Rescale(nodes); err != nil {
		return err
	}
	e.opts.Nodes = nodes
	return nil
}

// Close tears down every tracked deployment (the snapshot file stays).
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.deps {
		e.dep.Close()
	}
	c.deps = map[string]*coordEntry{}
}

// Save checkpoints every tracked deployment at a quiescent barrier and
// atomically replaces the snapshot file. The snapshot is the last
// committed state a restarted coordinator resumes from; input pushed
// after a Save and before a crash is lost to the restarted coordinator
// (sources replay from their own cursors, as in the paper's model).
//
// Fragment-carrying deployments are captured in full — the fragment
// specs, which fragments ran remotely, and the runner states inside the
// shard checkpoints — and shared prefix chains contribute their window
// state once per chain. A shared result's store is not saved: Restore
// rebuilds it from its chain's window, as a deploy does. The returned slice
// names any deployment the snapshot could NOT capture: one whose plan
// carries a recursive view (Built.View), whose state the format has no field
// for. The names are also recorded in the snapshot so Restore surfaces the
// same list. An empty slice means the snapshot is complete.
func (c *Coordinator) Save() ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.path == "" {
		return nil, errNoPath
	}
	var f snapFile
	names := make([]string, 0, len(c.deps))
	for n := range c.deps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		e := c.deps[name]
		if e.built.View != nil {
			// No snapshot field holds a recursive view's state. Record the
			// skip — never drop silently.
			f.Skipped = append(f.Skipped, name)
			continue
		}
		root, err := encodeNode(e.built.Root)
		if err != nil {
			return nil, fmt.Errorf("plan: snapshot %q: %w", name, err)
		}
		var frags []snapFragment
		for i := range e.opts.Fragments {
			sf, err := encodeSnapFragment(&e.opts.Fragments[i])
			if err != nil {
				return nil, fmt.Errorf("plan: snapshot %q: %w", name, err)
			}
			frags = append(frags, sf)
		}
		e.dep.Flush()
		shards, coord, err := e.dep.captureStates()
		if err != nil {
			return nil, fmt.Errorf("plan: snapshot %q: %w", name, err)
		}
		sd := snapDeployment{
			Name:         name,
			Root:         root,
			OrderBy:      e.built.OrderBy,
			Limit:        e.built.Limit,
			Display:      e.built.Display,
			SamplePeriod: e.built.SamplePeriod,
			Placement:    e.dep.Placement(),
			Shards:       shards,
			Coord:        coord,
			Fragments:    frags,
			RemoteFrags:  e.dep.RemoteFragments,
		}
		sd.setTopology(e.opts.Topology)
		f.Deployments = append(f.Deployments, sd)
	}
	if c.host.Sharing != nil {
		chains, err := c.host.Sharing.CaptureChains()
		if err != nil {
			return nil, err
		}
		f.Chains = chains
	}
	// The 16-byte header is reserved in front of the body and filled in
	// after the encode, so the file image is one buffer.
	body := bytes.NewBuffer(make([]byte, 16))
	if err := gob.NewEncoder(body).Encode(&f); err != nil {
		return nil, fmt.Errorf("plan: snapshot encode: %w", err)
	}
	buf := body.Bytes()
	copy(buf, snapMagic)
	binary.LittleEndian.PutUint32(buf[8:], snapVersion)
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(buf[16:]))
	tmp := c.path + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		return nil, fmt.Errorf("plan: snapshot write: %w", err)
	}
	if err := os.Rename(tmp, c.path); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("plan: snapshot commit: %w", err)
	}
	if err := syncDir(filepath.Dir(c.path)); err != nil {
		return nil, fmt.Errorf("plan: snapshot commit: %w", err)
	}
	return f.Skipped, nil
}

// writeFileSync writes data to path and fsyncs it before close, so the
// bytes are durable before the commit rename makes them reachable.
func writeFileSync(path string, data []byte) error {
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := fh.Write(data); err != nil {
		fh.Close()
		os.Remove(path)
		return err
	}
	if err := fh.Sync(); err != nil {
		fh.Close()
		os.Remove(path)
		return err
	}
	if err := fh.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}

// syncDir fsyncs a directory, making a just-renamed entry durable: the
// rename itself lives in the directory, so without this a crash right
// after Save could surface as a missing (or stale) snapshot file.
func syncDir(dir string) error {
	if dir == "" {
		dir = "."
	}
	fh, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer fh.Close()
	return fh.Sync()
}

// Restore rehydrates the coordinator from its snapshot file: every
// recorded deployment recompiles against the engine with its shards
// pinned to the snapshotted placement and every operator — shared chain
// windows and shard-hosted fragment runners included — restored from the
// snapshotted state. A missing file is a fresh start (no error). Any validation or
// compile failure leaves the coordinator empty but alive — partially
// restored deployments are torn down, never half-served.
//
// A fragment-carrying deployment comes back with its fragments: shard-hosted
// ones redeploy with their checkpointed epoch anchors, central ones restart
// their runners on this Host's Sensors and Sched. When the snapshotted
// workers are absent, every shard pulls in-process with the fragments still
// pinned (exact state; this process must host their sources). A deployment
// whose fragment sources nothing here hosts fails the Restore, naming the
// source. The returned slice surfaces the names Save recorded as skipped —
// queries the snapshot never captured, to be re-deployed by the operator.
//
// Restore does not replay table loads or input pushed after the snapshot;
// callers re-attach sources, which resume from their own cursors.
func (c *Coordinator) Restore() ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.path == "" {
		return nil, errNoPath
	}
	if len(c.deps) != 0 {
		return nil, fmt.Errorf("plan: Restore on a coordinator with %d live deployments", len(c.deps))
	}
	raw, err := os.ReadFile(c.path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("plan: snapshot read: %w", err)
	}
	f, err := decodeSnapshot(raw)
	if err != nil {
		return nil, err
	}
	if len(f.Chains) > 0 && c.host.Sharing == nil {
		return nil, fmt.Errorf("plan: snapshot carries %d shared-chain states but this coordinator's Host has no Sharing", len(f.Chains))
	}
	if c.host.Sharing != nil {
		c.host.Sharing.primeRestore(f.Chains)
		defer c.host.Sharing.finishRestore()
	}
	restored := map[string]*coordEntry{}
	fail := func(err error) ([]string, error) {
		for _, e := range restored {
			e.dep.Close()
		}
		return nil, err
	}
	for _, sd := range f.Deployments {
		root, err := decodeNode(sd.Root)
		if err != nil {
			return fail(fmt.Errorf("plan: snapshot %q: %w", sd.Name, err))
		}
		b := &Built{Root: root, OrderBy: sd.OrderBy, Limit: sd.Limit,
			Display: sd.Display, SamplePeriod: sd.SamplePeriod}
		var frags []SensorFragment
		for _, sf := range sd.Fragments {
			fr, err := decodeSnapFragment(sf)
			if err != nil {
				return fail(fmt.Errorf("plan: snapshot %q: %w", sd.Name, err))
			}
			frags = append(frags, fr)
		}
		opts := CompileOptions{
			Topology:           sd.topology(),
			Fragments:          frags,
			restoreShards:      sd.Shards,
			restoreCoord:       sd.Coord,
			restoreLoc:         sd.Placement,
			restoreForceFrags:  true,
			restoreRemoteFrags: sd.RemoteFrags,
		}
		dep, err := c.rehydrate(b, opts, &sd)
		if err != nil {
			return fail(fmt.Errorf("plan: rehydrate %q: %w", sd.Name, err))
		}
		restored[sd.Name] = &coordEntry{dep: dep, built: b,
			opts: CompileOptions{Topology: opts.Topology, Fragments: frags}}
	}
	c.deps = restored
	return f.Skipped, nil
}

// rehydrate compiles one snapshotted deployment in two tiers: (1) as saved;
// (2) when that fails and the snapshot placed shards on workers, every shard
// in-process with the fragments still pinned and their exact runner state
// (workers gone, sources hosted here). When both fail, the error reports
// both.
func (c *Coordinator) rehydrate(b *Built, opts CompileOptions, sd *snapDeployment) (*Deployment, error) {
	dep, err0 := CompileStreamOpts(b, c.host, opts)
	if err0 == nil {
		return dep, nil
	}
	if anyRemote(sd.Placement) {
		home := opts
		home.restoreLoc = make([]string, sd.Parallelism)
		dep, err := CompileStreamOpts(b, c.host, home)
		if err == nil {
			return dep, nil
		}
		return nil, fmt.Errorf("%w; with every shard in-process: %v", err0, err)
	}
	return nil, err0
}

// decodeSnapshot validates a snapshot file image and decodes its body.
func decodeSnapshot(raw []byte) (*snapFile, error) {
	if len(raw) < 16 {
		return nil, fmt.Errorf("plan: snapshot truncated: %d bytes, need at least 16", len(raw))
	}
	if string(raw[:8]) != snapMagic {
		return nil, fmt.Errorf("plan: snapshot has bad magic %q", raw[:8])
	}
	if v := binary.LittleEndian.Uint32(raw[8:12]); v < snapVersionMin || v > snapVersion {
		return nil, fmt.Errorf("plan: snapshot format version %d, this build reads %d..%d", v, snapVersionMin, snapVersion)
	}
	body := raw[16:]
	if sum := crc32.ChecksumIEEE(body); sum != binary.LittleEndian.Uint32(raw[12:16]) {
		return nil, fmt.Errorf("plan: snapshot checksum mismatch (truncated or corrupted body)")
	}
	var f snapFile
	if err := gobcheck.Decode(body, &f); err != nil {
		return nil, fmt.Errorf("plan: snapshot decode: %w", err)
	}
	return &f, nil
}
