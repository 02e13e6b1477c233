package sensornet

import (
	"testing"
)

func lineNet(t *testing.T, n int) *Network {
	t.Helper()
	nw := Line(DefaultConfig(), n, 100, SensorTemperature)
	return nw
}

func TestTreeConstruction(t *testing.T) {
	nw := lineNet(t, 5)
	for i := 0; i < 5; i++ {
		n, ok := nw.Node(i)
		if !ok {
			t.Fatalf("node %d missing", i)
		}
		if n.Hops != i {
			t.Fatalf("node %d hops = %d, want %d", i, n.Hops, i)
		}
		wantParent := i - 1
		if n.Parent != wantParent {
			t.Fatalf("node %d parent = %d, want %d", i, n.Parent, wantParent)
		}
	}
	if nw.Diameter() != 4 {
		t.Fatalf("diameter = %d, want 4", nw.Diameter())
	}
}

func TestGridTopology(t *testing.T) {
	nw := Grid(DefaultConfig(), 3, 4, 100, 4, SensorLight, SensorTemperature)
	if len(nw.Nodes()) != 12 {
		t.Fatalf("nodes = %d", len(nw.Nodes()))
	}
	n, _ := nw.Node(5)
	if n.Room != "L2" || n.Desk != 2 {
		t.Fatalf("node 5 room/desk = %s/%d", n.Room, n.Desk)
	}
	if !n.HasSensor(SensorLight) || !n.HasSensor(SensorTemperature) || n.HasSensor(SensorRFID) {
		t.Fatal("sensors wrong")
	}
	// corner-to-corner hop distance on a 3x4 grid with orthogonal links
	if d := nw.HopDist(0, 11); d != 5 {
		t.Fatalf("hop dist corner-corner = %d, want 5", d)
	}
}

func TestDuplicateAndMissingNodes(t *testing.T) {
	nw := New(DefaultConfig())
	nw.MustAddNode(Node{ID: 1})
	if err := nw.AddNode(Node{ID: 1}); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := nw.SetBase(99); err == nil {
		t.Fatal("missing base accepted")
	}
	if _, ok := nw.Node(99); ok {
		t.Fatal("phantom node")
	}
	if nw.Base() != -1 {
		t.Fatal("base should be unset")
	}
}

func TestPathAndHopDist(t *testing.T) {
	nw := lineNet(t, 6)
	p := nw.Path(1, 4)
	want := []int{1, 2, 3, 4}
	if len(p) != len(want) {
		t.Fatalf("path = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path = %v, want %v", p, want)
		}
	}
	if d := nw.HopDist(0, 5); d != 5 {
		t.Fatalf("hop dist = %d", d)
	}
	if d := nw.HopDist(3, 3); d != 0 {
		t.Fatalf("self dist = %d", d)
	}
	if nw.Path(0, 99) != nil {
		t.Fatal("path to missing node")
	}
}

func TestSendCountsAndEnergy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxCost, cfg.RxCost = 1, 0.5
	nw := Line(cfg, 4, 100, SensorTemperature)
	if !nw.Send(3, 0, 1) {
		t.Fatal("send failed")
	}
	m := nw.Metrics()
	if m.Sent != 3 || m.Received != 3 || m.Dropped != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	// node 3,2,1 each tx once (1 mJ); node 2,1 rx once (0.5); base rx free.
	n3, _ := nw.Node(3)
	if n3.Battery != cfg.InitialBattery-1 {
		t.Fatalf("n3 battery = %v", n3.Battery)
	}
	n2, _ := nw.Node(2)
	if n2.Battery != cfg.InitialBattery-1.5 {
		t.Fatalf("n2 battery = %v", n2.Battery)
	}
	n0, _ := nw.Node(0)
	if n0.Battery != cfg.InitialBattery {
		t.Fatalf("base battery = %v (must be mains powered)", n0.Battery)
	}
	if m.EnergyMJ != 3*1+2*0.5 {
		t.Fatalf("energy = %v", m.EnergyMJ)
	}
}

func TestSendMultiFrame(t *testing.T) {
	nw := lineNet(t, 3)
	nw.Send(2, 0, 3)
	if m := nw.Metrics(); m.Sent != 6 {
		t.Fatalf("sent = %d, want 6 (3 frames × 2 hops)", m.Sent)
	}
	nw.ResetMetrics()
	nw.Send(1, 0, 0) // zero frames clamps to 1
	if m := nw.Metrics(); m.Sent != 1 {
		t.Fatalf("sent = %d", m.Sent)
	}
}

func TestLossyLinks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossRate = 0.5
	cfg.Seed = 42
	nw := Line(cfg, 2, 50, SensorTemperature)
	delivered, droppedSeen := 0, false
	for i := 0; i < 200; i++ {
		if nw.Send(1, 0, 1) {
			delivered++
		} else {
			droppedSeen = true
		}
	}
	if !droppedSeen {
		t.Fatal("no drops at 50% loss")
	}
	if delivered < 50 || delivered > 150 {
		t.Fatalf("delivered = %d of 200 at 50%% loss", delivered)
	}
	m := nw.Metrics()
	if m.Dropped == 0 || m.Dropped+m.Received != m.Sent {
		t.Fatalf("loss accounting: %+v", m)
	}
}

func TestBatteryDeathRebuildsTree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialBattery = 0.1
	cfg.TxCost = 1
	// Triangle-ish line where node 1 relays for node 2.
	nw := Line(cfg, 3, 100, SensorTemperature)
	nw.Send(2, 0, 1) // drains node 2 and node 1 below zero
	n2, _ := nw.Node(2)
	if !n2.Dead {
		t.Fatal("node 2 should be dead after tx")
	}
	if nw.Metrics().DeadNodes == 0 {
		t.Fatal("dead nodes not counted")
	}
	// After death the tree is rebuilt; dead nodes are unreachable.
	if nw.Send(2, 0, 1) {
		t.Fatal("dead node can still send")
	}
}

func TestKillReviveAndReroute(t *testing.T) {
	// 2x3 grid: killing a middle node must reroute, not disconnect.
	nw := Grid(DefaultConfig(), 2, 3, 100, 3, SensorTemperature)
	before := nw.HopDist(0, 5)
	if before != 3 {
		t.Fatalf("before = %d", before)
	}
	nw.Kill(4)
	after := nw.HopDist(0, 5)
	if after != 3 { // alternate path 0-1-2-5
		t.Fatalf("after kill = %d, want 3 via top row", after)
	}
	nw.Kill(2)
	if nw.HopDist(0, 5) != -1 && nw.HopDist(0, 5) < 3 {
		t.Fatalf("unexpected shortcut after double kill")
	}
	nw.Revive(4)
	if nw.HopDist(0, 5) != 3 {
		t.Fatalf("after revive = %d", nw.HopDist(0, 5))
	}
	n4, _ := nw.Node(4)
	if n4.Battery != DefaultConfig().InitialBattery {
		t.Fatal("revive did not recharge")
	}
	// idempotent revive of a live node
	nw.Revive(4)
	if nw.Metrics().DeadNodes != 1 {
		t.Fatalf("dead count = %d, want 1 (node 2)", nw.Metrics().DeadNodes)
	}
}

func TestSendToParent(t *testing.T) {
	nw := lineNet(t, 3)
	parent, ok := nw.SendToParent(2, 1)
	if !ok || parent != 1 {
		t.Fatalf("SendToParent = %d %t", parent, ok)
	}
	if _, ok := nw.SendToParent(0, 1); ok {
		t.Fatal("base has no parent")
	}
	if _, ok := nw.SendToParent(99, 1); ok {
		t.Fatal("missing node has no parent")
	}
}

func TestMinBattery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TxCost = 1
	nw := Line(cfg, 3, 100, SensorTemperature)
	nw.Send(2, 0, 1)
	min := nw.MinBattery()
	want := cfg.InitialBattery - 1 - cfg.RxCost // node 1: one tx + one rx
	if min != want {
		t.Fatalf("min battery = %v, want %v", min, want)
	}
	empty := New(DefaultConfig())
	if empty.MinBattery() != 0 {
		t.Fatal("empty network min battery should be 0")
	}
}

// Neighbors returns the IDs of alive nodes in radio range of id.
func (nw *Network) Neighbors(id int) []int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	m := nw.findLocked(id)
	if m == nil {
		return nil
	}
	var out []int
	for _, o := range m.adj {
		if !o.Dead {
			out = append(out, o.ID)
		}
	}
	return out
}

func TestNeighbors(t *testing.T) {
	nw := lineNet(t, 4)
	nbs := nw.Neighbors(1)
	if len(nbs) != 2 || nbs[0] != 0 || nbs[1] != 2 {
		t.Fatalf("neighbors(1) = %v", nbs)
	}
	nw.Kill(0)
	nbs = nw.Neighbors(1)
	if len(nbs) != 1 || nbs[0] != 2 {
		t.Fatalf("neighbors after kill = %v", nbs)
	}
}

func TestSensorKindString(t *testing.T) {
	if SensorLight.String() != "light" || SensorTemperature.String() != "temperature" || SensorRFID.String() != "rfid" {
		t.Fatal("kind names")
	}
	if SensorKind(9).String() == "" {
		t.Fatal("unknown kind should format")
	}
}
