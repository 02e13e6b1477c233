package sensornet

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// refNet is the reference the memoized Network is checked against: maps
// keyed by ID and a fresh breadth-first search per Path, as the network was
// before routes were memoized. It is deliberately naive.
type refNet struct {
	cfg   Config
	rng   *rand.Rand
	nodes map[int]*Node
	adj   map[int][]int
	base  int
	m     Metrics
}

func newRefNet(cfg Config) *refNet {
	return &refNet{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)),
		nodes: map[int]*Node{}, adj: map[int][]int{}, base: -1}
}

func (r *refNet) addNode(n Node) {
	n.Battery = r.cfg.InitialBattery
	n.Parent, n.Hops = -1, -1
	r.nodes[n.ID] = &n
	for oid, o := range r.nodes {
		if oid != n.ID && dist(n.X, n.Y, o.X, o.Y) <= r.cfg.RadioRange {
			r.adj[n.ID] = append(r.adj[n.ID], oid)
			r.adj[oid] = append(r.adj[oid], n.ID)
		}
	}
	sort.Ints(r.adj[n.ID])
}

func (r *refNet) buildTree() {
	for _, n := range r.nodes {
		n.Parent, n.Hops = -1, -1
	}
	root := r.nodes[r.base]
	if root == nil || root.Dead {
		return
	}
	root.Hops = 0
	queue := []int{r.base}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range r.adj[cur] {
			n := r.nodes[nb]
			if n.Dead || n.Hops >= 0 {
				continue
			}
			n.Parent, n.Hops = cur, r.nodes[cur].Hops+1
			queue = append(queue, nb)
		}
	}
}

func (r *refNet) path(a, b int) []int {
	na, nb := r.nodes[a], r.nodes[b]
	if na == nil || nb == nil || na.Dead || nb.Dead {
		return nil
	}
	if a == b {
		return []int{a}
	}
	prev := map[int]int{a: a}
	queue := []int{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nbr := range r.adj[cur] {
			if r.nodes[nbr].Dead {
				continue
			}
			if _, seen := prev[nbr]; seen {
				continue
			}
			prev[nbr] = cur
			if nbr != b {
				queue = append(queue, nbr)
				continue
			}
			var rev []int
			for cur := b; ; cur = prev[cur] {
				rev = append(rev, cur)
				if cur == a {
					break
				}
			}
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			return rev
		}
	}
	return nil
}

func (r *refNet) hopDist(a, b int) int {
	p := r.path(a, b)
	if p == nil {
		return -1
	}
	return len(p) - 1
}

func (r *refNet) send(a, b, frames int) bool {
	path := r.path(a, b)
	if path == nil {
		return false
	}
	for i := 0; i+1 < len(path); i++ {
		if !r.hop(path[i], path[i+1], frames) {
			return false
		}
	}
	return true
}

func (r *refNet) hop(from, to, frames int) bool {
	f, t := r.nodes[from], r.nodes[to]
	if f.Dead || t.Dead {
		return false
	}
	for i := 0; i < frames; i++ {
		r.m.Sent++
		r.charge(f, r.cfg.TxCost)
		if r.cfg.LossRate > 0 && r.rng.Float64() < r.cfg.LossRate {
			r.m.Dropped++
			return false
		}
		r.charge(t, r.cfg.RxCost)
		r.m.Received++
	}
	return true
}

func (r *refNet) charge(n *Node, mj float64) {
	if n.ID == r.base {
		return
	}
	n.Battery -= mj
	r.m.EnergyMJ += mj
	if n.Battery <= 0 && !n.Dead {
		n.Dead = true
		r.m.DeadNodes++
		r.buildTree()
	}
}

func (r *refNet) kill(id int) {
	if n := r.nodes[id]; n != nil && !n.Dead {
		n.Dead = true
		r.m.DeadNodes++
		r.buildTree()
	}
}

func (r *refNet) revive(id int) {
	if n := r.nodes[id]; n != nil && n.Dead {
		n.Dead = false
		n.Battery = r.cfg.InitialBattery
		r.m.DeadNodes--
		r.buildTree()
	}
}

func (r *refNet) sorted() []Node {
	out := make([]Node, 0, len(r.nodes))
	for _, n := range r.nodes {
		out = append(out, *n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// sameState fails the test unless the network's accounting and every
// mote's battery, death and tree position equal the reference's.
func sameState(t *testing.T, step string, nw *Network, ref *refNet) {
	t.Helper()
	got := nw.Metrics()
	got.RouteHits, got.RouteMisses = 0, 0
	if got != ref.m {
		t.Fatalf("%s: metrics %+v, reference %+v", step, got, ref.m)
	}
	nodes, want := nw.Nodes(), ref.sorted()
	if len(nodes) != len(want) {
		t.Fatalf("%s: %d nodes, reference %d", step, len(nodes), len(want))
	}
	for i, w := range want {
		n := nodes[i]
		if n.ID != w.ID || n.Battery != w.Battery || n.Dead != w.Dead || n.Parent != w.Parent || n.Hops != w.Hops {
			t.Fatalf("%s: mote %+v, reference %+v", step, n, w)
		}
	}
}

// TestRouteMemoDifferential drives the memoized network and the reference
// through the same random interleaving of Path, Send, HopDist, Kill,
// Revive and AddNode over random geometric fields — lossless and lossy,
// with batteries small enough that motes die in the middle of a Send — and
// requires identical routes, results, accounting and per-mote state after
// every step.
func TestRouteMemoDifferential(t *testing.T) {
	for _, loss := range []float64{0, 0.2} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("loss=%v/seed=%d", loss, seed), func(t *testing.T) {
				routeMemoDifferential(t, seed, loss)
			})
		}
	}
}

func routeMemoDifferential(t *testing.T, seed int64, loss float64) {
	cfg := Config{Seed: seed, RadioRange: 90, LossRate: loss,
		TxCost: 0.06, RxCost: 0.03, InitialBattery: 1.5}
	nw, ref := New(cfg), newRefNet(cfg)
	rng := rand.New(rand.NewSource(seed * 977))
	var ids []int
	add := func() {
		// IDs arrive out of order, so motes are also inserted in the
		// middle of the ordered lists.
		id := rng.Intn(400)
		for ref.nodes[id] != nil {
			id = rng.Intn(400)
		}
		n := Node{ID: id, X: 400 * rng.Float64(), Y: 400 * rng.Float64(),
			Sensors: []SensorKind{SensorKind(rng.Intn(3))}}
		nw.MustAddNode(n)
		ref.addNode(n)
		ids = append(ids, id)
	}
	for i := 0; i < 40; i++ {
		add()
	}
	if err := nw.SetBase(ids[0]); err != nil {
		t.Fatal(err)
	}
	ref.base = ids[0]
	nw.BuildTree()
	ref.buildTree()
	sameState(t, "setup", nw, ref)

	pick := func() int {
		if rng.Intn(50) == 0 {
			return 1000 // no such mote
		}
		return ids[rng.Intn(len(ids))]
	}
	for step := 0; step < 3000; step++ {
		a, b := pick(), pick()
		if rng.Intn(3) == 0 {
			b = ids[0] // mote → base, the route an epoch repeats
		}
		var name string
		switch op := rng.Intn(100); {
		case op < 45:
			frames := 1 + rng.Intn(3)
			name = fmt.Sprintf("step %d Send(%d,%d,%d)", step, a, b, frames)
			if got, want := nw.Send(a, b, frames), ref.send(a, b, frames); got != want {
				t.Fatalf("%s = %v, reference %v", name, got, want)
			}
		case op < 70:
			name = fmt.Sprintf("step %d Path(%d,%d)", step, a, b)
			got, want := nw.Path(a, b), ref.path(a, b)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s = %v, reference %v", name, got, want)
			}
			if len(got) > 0 {
				got[0] = -7 // the caller's copy: scribbling must not reach the memo
			}
		case op < 88:
			name = fmt.Sprintf("step %d HopDist(%d,%d)", step, a, b)
			if got, want := nw.HopDist(a, b), ref.hopDist(a, b); got != want {
				t.Fatalf("%s = %d, reference %d", name, got, want)
			}
		case op < 93:
			name = fmt.Sprintf("step %d Kill(%d)", step, a)
			nw.Kill(a)
			ref.kill(a)
		case op < 98:
			name = fmt.Sprintf("step %d Revive(%d)", step, a)
			nw.Revive(a)
			ref.revive(a)
		default:
			name = fmt.Sprintf("step %d AddNode", step)
			add()
		}
		sameState(t, name, nw, ref)
	}
	if ref.m.DeadNodes == 0 && ref.m.Sent == 0 {
		t.Fatal("scenario exercised nothing")
	}
	m := nw.Metrics()
	if m.RouteHits == 0 || m.RouteMisses == 0 {
		t.Fatalf("route memo hits %d, misses %d: both paths must run", m.RouteHits, m.RouteMisses)
	}
}

// TestSendSurvivesRelayDeathMidRoute pins the mid-Send rule: a relay whose
// battery runs out on its own transmission still completes that hop, the
// memo is dropped under the walker's feet, and the message finishes on the
// route it started with; the next Send finds no route.
func TestSendSurvivesRelayDeathMidRoute(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialBattery = 0.08 // a relay affords the receive (0.03) but not the transmit (0.06) after it
	nw, ref := Line(cfg, 4, 100, SensorLight), newRefNet(cfg)
	for i := 0; i < 4; i++ {
		ref.addNode(Node{ID: i, X: float64(i) * 100, Room: fmt.Sprintf("H%d", i/4+1),
			Sensors: []SensorKind{SensorLight}})
	}
	ref.base = 0
	ref.buildTree()
	sameState(t, "setup", nw, ref)

	// 3 → 0 crosses relays 2 and 1; each dies transmitting.
	if !nw.Send(3, 0, 1) || !ref.send(3, 0, 1) {
		t.Fatal("the message must arrive over the relays that die forwarding it")
	}
	sameState(t, "first send", nw, ref)
	if dead := nw.Metrics().DeadNodes; dead != 2 {
		t.Fatalf("%d motes died mid-route, want relays 1 and 2", dead)
	}
	if nw.Send(3, 0, 1) || ref.send(3, 0, 1) {
		t.Fatal("second send crossed dead relays")
	}
	sameState(t, "second send", nw, ref)
	if nw.HopDist(3, 0) != -1 {
		t.Fatalf("route through dead relays still offered: %v", nw.Path(3, 0))
	}
}

// TestRouteMemoCounters checks RouteHits/RouteMisses, that ResetMetrics
// zeroes them, and that every topology event drops the memo.
func TestRouteMemoCounters(t *testing.T) {
	nw := Line(DefaultConfig(), 6, 100, SensorLight)
	counters := func() (hits, misses int64) {
		m := nw.Metrics()
		return m.RouteHits, m.RouteMisses
	}
	nw.HopDist(5, 0)
	nw.Send(5, 0, 1)
	nw.Path(5, 0)
	if h, m := counters(); h != 2 || m != 1 {
		t.Fatalf("after one miss and two hits: hits %d, misses %d", h, m)
	}
	nw.ResetMetrics()
	if h, m := counters(); h != 0 || m != 0 {
		t.Fatalf("ResetMetrics left hits %d, misses %d", h, m)
	}
	for _, ev := range []struct {
		name string
		do   func()
	}{
		{"Kill", func() { nw.Kill(4) }},
		{"Revive", func() { nw.Revive(4) }},
		{"AddNode", func() { nw.MustAddNode(Node{ID: 6, X: 600}) }},
	} {
		nw.HopDist(3, 0) // make sure the route is memoized
		nw.ResetMetrics()
		ev.do()
		nw.HopDist(3, 0)
		if h, m := counters(); h != 0 || m != 1 {
			t.Fatalf("%s did not drop the memo: hits %d, misses %d", ev.name, h, m)
		}
	}
}

// TestEachOrderAndReentrancy checks the visitors: ID order whatever the
// insertion order, only motes carrying the sensor, early stop, and that
// the callback may call back into the network.
func TestEachOrderAndReentrancy(t *testing.T) {
	nw := New(DefaultConfig())
	for _, id := range []int{5, 1, 9, 3, 7} {
		kind := SensorLight
		if id > 4 {
			kind = SensorRFID
		}
		nw.MustAddNode(Node{ID: id, X: float64(id) * 50, Sensors: []SensorKind{kind, kind}})
	}
	var all, rfid, firstTwo []int
	nw.Each(func(n Node) bool {
		all = append(all, n.ID)
		nw.Kill(9) // re-entrant; the visit reads each mote as it reaches it
		return true
	})
	nw.EachWith(SensorRFID, func(n Node) bool {
		if !n.Dead {
			rfid = append(rfid, n.ID)
		}
		return true
	})
	nw.Each(func(n Node) bool {
		firstTwo = append(firstTwo, n.ID)
		return len(firstTwo) < 2
	})
	nw.EachWith(SensorTemperature, func(Node) bool {
		t.Fatal("no mote carries a temperature sensor")
		return false
	})
	if want := []int{1, 3, 5, 7, 9}; !reflect.DeepEqual(all, want) {
		t.Fatalf("Each order %v, want %v", all, want)
	}
	if want := []int{5, 7}; !reflect.DeepEqual(rfid, want) {
		t.Fatalf("alive RFID motes %v, want %v", rfid, want)
	}
	if want := []int{1, 3}; !reflect.DeepEqual(firstTwo, want) {
		t.Fatalf("early stop visited %v, want %v", firstTwo, want)
	}
	if nw.Len() != 5 {
		t.Fatalf("Len = %d", nw.Len())
	}
}

// TestNetworkConcurrentUse runs routes, visitors and badge localization
// beside topology events from several goroutines; under -race it checks
// that the memo, the ordered lists and the beacon pass are guarded.
func TestNetworkConcurrentUse(t *testing.T) {
	nw := Grid(DefaultConfig(), 6, 6, 100, 6, SensorLight, SensorRFID)
	bf := NewBeaconField(nw, 150)
	bf.Place(Beacon{ID: 1, Owner: "alice", X: 250, Y: 250})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				a := (g*7 + i) % 36
				nw.Send(a, 0, 1)
				nw.HopDist(a, 35)
				if p := nw.Path(35, a); len(p) > 0 && (p[0] != 35 || p[len(p)-1] != a) {
					t.Errorf("path 35→%d = %v", a, p)
				}
				nw.EachWith(SensorRFID, func(n Node) bool { return n.ID < a })
				if det, ok := bf.Locate(1); ok && det.Owner != "alice" {
					t.Errorf("located %+v", det)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			id := 1 + i%34
			nw.Kill(id)
			bf.Move(1, float64(100+i), 250)
			nw.Revive(id)
			if i%50 == 0 {
				nw.MustAddNode(Node{ID: 100 + i, X: 50, Y: float64(i), Sensors: []SensorKind{SensorRFID}})
			}
		}
	}()
	wg.Wait()
	if m := nw.Metrics(); m.DeadNodes != 0 || m.Sent == 0 {
		t.Fatalf("after the run: %+v", m)
	}
}

// BenchmarkNetworkSend measures one mote→base message over a 635-mote
// field at steady state: the route comes from the memo.
func BenchmarkNetworkSend(b *testing.B) {
	cfg := DefaultConfig()
	cfg.InitialBattery = 1e12 // outlive any b.N
	nw := Grid(cfg, 5, 127, 100, 8, SensorTemperature)
	far := nw.Len() - 1
	if !nw.Send(far, 0, 1) {
		b.Fatal("far corner cannot reach the base")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !nw.Send(far, 0, 1) {
			b.Fatal("send failed")
		}
	}
}
