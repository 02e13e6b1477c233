// Package sensornet simulates the mote deployment that SmartCIS instruments
// the Moore building with: IRIS/iMote2-class devices with light and
// temperature sensors on desks and RFID-listening motes in hallways.
//
// The simulator models what the paper's sensor-engine claims depend on —
// topology, hop-by-hop message forwarding, per-message transmit/receive
// energy, lossy links, and a base-station collection tree — while staying
// deterministic (seeded RNG, virtual time) so experiments are reproducible.
package sensornet

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
)

// SensorKind enumerates the physical sensors a mote may carry.
type SensorKind uint8

// Sensor kinds deployed in SmartCIS (§2).
const (
	SensorLight SensorKind = iota
	SensorTemperature
	SensorRFID // listens for active RFID beacon transmissions
)

// String names the sensor kind.
func (k SensorKind) String() string {
	switch k {
	case SensorLight:
		return "light"
	case SensorTemperature:
		return "temperature"
	case SensorRFID:
		return "rfid"
	}
	return fmt.Sprintf("sensor(%d)", uint8(k))
}

// Config holds the radio and energy model parameters.
type Config struct {
	// Seed makes message loss reproducible.
	Seed int64
	// RadioRange is the maximum link distance in building-model units
	// (feet); the paper places hallway motes "every 100 feet".
	RadioRange float64
	// LossRate is the per-hop probability a message is dropped.
	LossRate float64
	// TxCost and RxCost are millijoules charged per message hop.
	TxCost, RxCost float64
	// InitialBattery is each mote's starting energy in millijoules.
	InitialBattery float64
}

// DefaultConfig returns the parameters used by the SmartCIS deployment.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		RadioRange:     110,
		LossRate:       0.0,
		TxCost:         0.06, // ~two AA motes sending 36-byte frames
		RxCost:         0.03,
		InitialBattery: 20_000,
	}
}

// Node is one mote.
type Node struct {
	ID      int
	X, Y    float64
	Room    string
	Desk    int // 0 if not desk-mounted
	Sensors []SensorKind

	Battery float64
	Dead    bool

	// Collection tree state (set by BuildTree).
	Parent int // -1 for the base station or unreachable nodes
	Hops   int // tree depth; 0 at the base, -1 if unreachable
}

// HasSensor reports whether the node carries the given sensor.
func (n *Node) HasSensor(k SensorKind) bool {
	for _, s := range n.Sensors {
		if s == k {
			return true
		}
	}
	return false
}

// Metrics is a snapshot of network-wide accounting.
type Metrics struct {
	Sent      int64 // message transmissions (per hop)
	Received  int64
	Dropped   int64 // lost to the radio
	EnergyMJ  float64
	DeadNodes int
	// RouteHits counts shortest-path lookups answered from the route
	// memo, RouteMisses the ones that ran the BFS; a steady-state epoch
	// with no topology change has no misses.
	RouteHits, RouteMisses int64
}

// mote is a Node plus the simulator's private topology state.
type mote struct {
	Node
	pos int32   // index in Network.nodes
	adj []*mote // motes in radio range: lower IDs ascending, then later arrivals in arrival order
}

// routeKey names a memoized route by the endpoints' positions in
// Network.nodes; a→b and b→a are separate entries because the BFS breaks
// ties by adjacency order.
type routeKey struct{ from, to int32 }

// routeRef locates a memoized route in Network.hops; n == 0 records that
// the endpoints are disconnected.
type routeRef struct{ off, n uint32 }

// Network is the simulated sensor field. All methods are safe for
// concurrent use.
//
// Ordering invariant: nodes, and each byKind list, hold every mote
// (carrying that sensor) in ascending ID order, maintained at AddNode, so
// Nodes, Each and EachWith enumerate by ID without sorting. The lists only
// ever grow by an in-place append or are replaced by a fresh slice, so a
// visitor iterating an earlier slice header stays valid without the lock.
//
// Route memo: Send, HopDist and Path answer from routes/hops, filled on a
// miss by the BFS. The whole memo is dropped on every topology event —
// AddNode, Kill, Revive and a battery running out — so a memoized route
// is always the path the BFS would find now, and the positions it is
// stored as are always current.
type Network struct {
	mu     sync.Mutex
	cfg    Config
	rng    *rand.Rand
	nodes  []*mote
	byKind [][]*mote // indexed by SensorKind
	base   int
	routes map[routeKey]routeRef
	hops   []int32 // arena: positions of every memoized route, endpoints included
	// metrics
	m Metrics
}

// New creates an empty network with the given configuration.
func New(cfg Config) *Network {
	if cfg.RadioRange <= 0 {
		cfg.RadioRange = DefaultConfig().RadioRange
	}
	return &Network{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		base: -1,
	}
}

// Config returns the network configuration.
func (nw *Network) Config() Config { return nw.cfg }

func compareID(m *mote, id int) int { return cmp.Compare(m.ID, id) }

// findLocked returns the mote with the given ID, or nil.
func (nw *Network) findLocked(id int) *mote {
	i, ok := slices.BinarySearchFunc(nw.nodes, id, compareID)
	if !ok {
		return nil
	}
	return nw.nodes[i]
}

// insertByID adds m to an ID-ordered list and returns the list and m's
// index. The common append happens in place; an insert in the middle
// builds a fresh list, so visitors holding the old one are undisturbed.
func insertByID(list []*mote, m *mote) ([]*mote, int) {
	i, _ := slices.BinarySearchFunc(list, m.ID, compareID)
	if i == len(list) {
		return append(list, m), i
	}
	out := make([]*mote, 0, len(list)+1)
	out = append(append(append(out, list[:i]...), m), list[i:]...)
	return out, i
}

// AddNode places a mote. IDs must be unique.
func (nw *Network) AddNode(n Node) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.findLocked(n.ID) != nil {
		return fmt.Errorf("sensornet: duplicate node id %d", n.ID)
	}
	n.Battery = nw.cfg.InitialBattery
	n.Parent, n.Hops = -1, -1
	m := &mote{Node: n}
	nw.linkLocked(m)
	var at int
	nw.nodes, at = insertByID(nw.nodes, m)
	for i := at; i < len(nw.nodes); i++ {
		nw.nodes[i].pos = int32(i)
	}
	for i, k := range n.Sensors {
		if slices.Contains(n.Sensors[:i], k) {
			continue
		}
		for int(k) >= len(nw.byKind) {
			nw.byKind = append(nw.byKind, nil)
		}
		nw.byKind[k], _ = insertByID(nw.byKind[k], m)
	}
	nw.dropRoutesLocked()
	return nil
}

// MustAddNode adds a node, panicking on error; for deployment builders.
func (nw *Network) MustAddNode(n Node) {
	if err := nw.AddNode(n); err != nil {
		panic(err)
	}
}

// linkLocked computes adjacency for a mote about to join nw.nodes.
func (nw *Network) linkLocked(m *mote) {
	for _, o := range nw.nodes {
		if dist(m.X, m.Y, o.X, o.Y) <= nw.cfg.RadioRange {
			m.adj = append(m.adj, o)
			o.adj = append(o.adj, m)
		}
	}
}

// SetBase designates the base station (gateway to the stream engine).
func (nw *Network) SetBase(id int) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.findLocked(id) == nil {
		return fmt.Errorf("sensornet: no node %d for base", id)
	}
	nw.base = id
	return nil
}

// Base returns the base station ID (-1 if unset).
func (nw *Network) Base() int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.base
}

// Node returns a copy of the node's current state.
func (nw *Network) Node(id int) (Node, bool) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	m := nw.findLocked(id)
	if m == nil {
		return Node{}, false
	}
	return m.Node, true
}

// Len returns the number of motes, dead ones included.
func (nw *Network) Len() int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return len(nw.nodes)
}

// Nodes returns copies of all nodes sorted by ID.
func (nw *Network) Nodes() []Node {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	out := make([]Node, len(nw.nodes))
	for i, m := range nw.nodes {
		out[i] = m.Node
	}
	return out
}

// Each calls fn with a copy of every mote's current state in ID order
// until fn returns false, without building the slice Nodes does. fn runs
// outside the network lock, so it may call back into the network; each
// mote is read as fn reaches it, and a mote added meanwhile may be missed.
func (nw *Network) Each(fn func(Node) bool) {
	nw.mu.Lock()
	list := nw.nodes
	nw.mu.Unlock()
	nw.visit(list, fn)
}

// EachWith is Each over only the motes carrying the given sensor.
func (nw *Network) EachWith(kind SensorKind, fn func(Node) bool) {
	nw.mu.Lock()
	list := nw.kindLocked(kind)
	nw.mu.Unlock()
	nw.visit(list, fn)
}

// kindLocked returns the ID-ordered motes carrying the given sensor.
func (nw *Network) kindLocked(kind SensorKind) []*mote {
	if int(kind) < len(nw.byKind) {
		return nw.byKind[kind]
	}
	return nil
}

func (nw *Network) visit(list []*mote, fn func(Node) bool) {
	for _, m := range list {
		nw.mu.Lock()
		n := m.Node
		nw.mu.Unlock()
		if !fn(n) {
			return
		}
	}
}

// BuildTree (re)computes the collection tree: a BFS spanning tree rooted at
// the base over alive nodes. Unreachable nodes get Hops == -1.
func (nw *Network) BuildTree() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.buildTreeLocked()
}

func (nw *Network) buildTreeLocked() {
	for _, n := range nw.nodes {
		n.Parent, n.Hops = -1, -1
	}
	root := nw.findLocked(nw.base)
	if root == nil || root.Dead {
		return
	}
	root.Hops = 0
	queue := []*mote{root}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range cur.adj {
			if n.Dead || n.Hops >= 0 {
				continue
			}
			n.Parent = cur.ID
			n.Hops = cur.Hops + 1
			queue = append(queue, n)
		}
	}
}

// topologyChangedLocked follows a mote dying or reviving: memoized routes
// may cross it (or now be beaten by a path through it), and the tree must
// route around it.
func (nw *Network) topologyChangedLocked() {
	nw.dropRoutesLocked()
	nw.buildTreeLocked()
}

// dropRoutesLocked forgets every memoized route. The arena is released,
// not truncated: a Send walking a route out of it finishes on the route it
// started with.
func (nw *Network) dropRoutesLocked() {
	nw.routes, nw.hops = nil, nil
}

// Diameter returns the maximum tree depth among reachable nodes; the catalog
// feeds this to the federated optimizer.
func (nw *Network) Diameter() int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	max := 0
	for _, n := range nw.nodes {
		if n.Hops > max {
			max = n.Hops
		}
	}
	return max
}

// HopDist returns the length of the shortest radio path between two alive
// nodes, or -1 if disconnected. Used by the in-network join placement
// optimizer.
func (nw *Network) HopDist(a, b int) int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return len(nw.routeLocked(a, b)) - 1
}

// Path returns the node sequence of a shortest radio path from a to b
// (inclusive), or nil if disconnected or either endpoint is dead. The
// slice is the caller's.
func (nw *Network) Path(a, b int) []int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	route := nw.routeLocked(a, b)
	if len(route) == 0 {
		return nil
	}
	path := make([]int, len(route))
	for i, pos := range route {
		path[i] = nw.nodes[pos].ID
	}
	return path
}

// routeLocked returns the shortest radio path from a to b as positions in
// nw.nodes, endpoints included — empty if disconnected or either endpoint
// is missing or dead — from the memo, running the BFS on a miss. The
// result aliases the arena: read it under the lock and do not keep it.
func (nw *Network) routeLocked(a, b int) []int32 {
	from, to := nw.findLocked(a), nw.findLocked(b)
	if from == nil || to == nil || from.Dead || to.Dead {
		return nil
	}
	key := routeKey{from.pos, to.pos}
	if ref, ok := nw.routes[key]; ok {
		nw.m.RouteHits++
		return nw.hops[ref.off : ref.off+ref.n]
	}
	nw.m.RouteMisses++
	off := len(nw.hops)
	nw.hops = nw.appendShortestLocked(nw.hops, from, to)
	if nw.routes == nil {
		nw.routes = map[routeKey]routeRef{}
	}
	nw.routes[key] = routeRef{off: uint32(off), n: uint32(len(nw.hops) - off)}
	return nw.hops[off:]
}

// appendShortestLocked appends to dst the positions of the breadth-first
// shortest path from a to b over alive motes, or nothing if there is none.
// Neighbours are tried in adjacency order and the search stops when b is
// first discovered, which fixes the path among equally short ones.
func (nw *Network) appendShortestLocked(dst []int32, a, b *mote) []int32 {
	if a == b {
		return append(dst, a.pos)
	}
	prev := make([]int32, len(nw.nodes)) // predecessor's position + 1; 0 = not reached
	prev[a.pos] = a.pos + 1
	queue := []*mote{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range cur.adj {
			if n.Dead || prev[n.pos] != 0 {
				continue
			}
			prev[n.pos] = cur.pos + 1
			if n != b {
				queue = append(queue, n)
				continue
			}
			start := len(dst)
			for pos := b.pos; ; pos = prev[pos] - 1 {
				dst = append(dst, pos)
				if pos == a.pos {
					break
				}
			}
			slices.Reverse(dst[start:])
			return dst
		}
	}
	return dst
}

// Send transmits a message from a to b along a shortest radio path,
// charging energy and counting one transmission per hop. It reports whether
// the message arrived (false on loss, disconnection or death). Size is in
// abstract message units; a unit is one radio frame.
func (nw *Network) Send(a, b int, frames int) bool {
	if frames <= 0 {
		frames = 1
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	route := nw.routeLocked(a, b)
	if len(route) == 0 {
		return false
	}
	for i := 0; i+1 < len(route); i++ {
		if !nw.hopLocked(nw.nodes[route[i]], nw.nodes[route[i+1]], frames) {
			return false
		}
	}
	return true
}

// SendToParent transmits one tree hop upward, the TAG aggregation primitive.
// Returns the parent ID and delivery status; parent == -1 at the base.
func (nw *Network) SendToParent(id int, frames int) (parent int, ok bool) {
	if frames <= 0 {
		frames = 1
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	n := nw.findLocked(id)
	if n == nil || n.Dead || n.Parent < 0 {
		return -1, false
	}
	p := nw.findLocked(n.Parent)
	if p == nil || p.Dead {
		return -1, false
	}
	return n.Parent, nw.hopLocked(n, p, frames)
}

// hopLocked performs one radio hop: charge tx on sender, roll loss, charge
// rx on receiver.
func (nw *Network) hopLocked(f, t *mote, frames int) bool {
	if f.Dead || t.Dead {
		return false
	}
	for i := 0; i < frames; i++ {
		nw.m.Sent++
		nw.chargeLocked(f, nw.cfg.TxCost)
		if nw.cfg.LossRate > 0 && nw.rng.Float64() < nw.cfg.LossRate {
			nw.m.Dropped++
			return false
		}
		nw.chargeLocked(t, nw.cfg.RxCost)
		nw.m.Received++
	}
	return true
}

func (nw *Network) chargeLocked(n *mote, mj float64) {
	if n.ID == nw.base {
		return // base stations are mains-powered
	}
	n.Battery -= mj
	nw.m.EnergyMJ += mj
	if n.Battery <= 0 && !n.Dead {
		n.Dead = true
		nw.m.DeadNodes++
		nw.topologyChangedLocked()
	}
}

// Kill marks a node dead (failure injection) and rebuilds the tree.
func (nw *Network) Kill(id int) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if n := nw.findLocked(id); n != nil && !n.Dead {
		n.Dead = true
		nw.m.DeadNodes++
		nw.topologyChangedLocked()
	}
}

// Revive restores a dead node with a fresh battery and rebuilds the tree.
func (nw *Network) Revive(id int) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if n := nw.findLocked(id); n != nil && n.Dead {
		n.Dead = false
		n.Battery = nw.cfg.InitialBattery
		nw.m.DeadNodes--
		nw.topologyChangedLocked()
	}
}

// Metrics returns a snapshot of the accounting counters.
func (nw *Network) Metrics() Metrics {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.m
}

// ResetMetrics zeroes the counters (battery state is preserved).
func (nw *Network) ResetMetrics() {
	nw.mu.Lock()
	nw.m = Metrics{DeadNodes: nw.m.DeadNodes}
	nw.mu.Unlock()
}

// MinBattery returns the lowest battery among alive non-base motes; the
// network "lifetime" metric of experiment E3.
func (nw *Network) MinBattery() float64 {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	min := math.Inf(1)
	for _, n := range nw.nodes {
		if n.Dead || n.ID == nw.base {
			continue
		}
		if n.Battery < min {
			min = n.Battery
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

func dist(x1, y1, x2, y2 float64) float64 {
	dx, dy := x1-x2, y1-y2
	return math.Sqrt(dx*dx + dy*dy)
}
