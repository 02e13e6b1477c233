package sensornet

import "testing"

func beaconTestNet() (*Network, *BeaconField) {
	nw := New(DefaultConfig())
	// Three RFID readers along a hallway, one desk mote without RFID.
	nw.MustAddNode(Node{ID: 0, X: 0, Y: 0, Sensors: []SensorKind{SensorRFID}})
	nw.MustAddNode(Node{ID: 1, X: 100, Y: 0, Sensors: []SensorKind{SensorRFID}})
	nw.MustAddNode(Node{ID: 2, X: 200, Y: 0, Sensors: []SensorKind{SensorRFID}})
	nw.MustAddNode(Node{ID: 3, X: 100, Y: 50, Sensors: []SensorKind{SensorLight}})
	_ = nw.SetBase(0)
	nw.BuildTree()
	return nw, NewBeaconField(nw, 60)
}

func TestBeaconHearAndLocate(t *testing.T) {
	_, bf := beaconTestNet()
	bf.Place(Beacon{ID: 7, Owner: "visitor", X: 90, Y: 0})

	// Only reader 1 is within 60 units.
	if dets := bf.Hear(0); len(dets) != 0 {
		t.Fatalf("reader 0 hears %v", dets)
	}
	dets := bf.Hear(1)
	if len(dets) != 1 || dets[0].BeaconID != 7 || dets[0].Owner != "visitor" {
		t.Fatalf("reader 1 hears %v", dets)
	}
	// Non-RFID mote hears nothing even in range.
	if dets := bf.Hear(3); dets != nil {
		t.Fatalf("light mote hears %v", dets)
	}

	loc := bf.Locate()
	if det, ok := loc[7]; !ok || det.NodeID != 1 {
		t.Fatalf("Locate = %+v", loc)
	}
}

func TestBeaconMovement(t *testing.T) {
	_, bf := beaconTestNet()
	bf.Place(Beacon{ID: 7, Owner: "visitor", X: 10, Y: 0})
	if det := bf.Locate()[7]; det.NodeID != 0 {
		t.Fatalf("start position reader = %d", det.NodeID)
	}
	bf.Move(7, 195, 0)
	if det := bf.Locate()[7]; det.NodeID != 2 {
		t.Fatalf("after move reader = %d", det.NodeID)
	}
	// moving a missing beacon is a no-op
	bf.Move(99, 0, 0)
	if loc := bf.Locate(); len(loc) != 1 {
		t.Fatalf("Locate after moving a missing beacon = %+v", loc)
	}
}

func TestBeaconStrongestReaderWins(t *testing.T) {
	_, bf := beaconTestNet()
	// Equidistant between readers 0 and 1: tie broken by lower node ID.
	bf.Place(Beacon{ID: 7, X: 50, Y: 0})
	if det := bf.Locate()[7]; det.NodeID != 0 {
		t.Fatalf("tie-break reader = %d, want 0", det.NodeID)
	}
	// Slightly closer to reader 1 flips the estimate.
	bf.Move(7, 51, 0)
	if det := bf.Locate()[7]; det.NodeID != 1 {
		t.Fatalf("closest reader = %d, want 1", det.NodeID)
	}
}

func TestBeaconMultipleSorted(t *testing.T) {
	_, bf := beaconTestNet()
	bf.Place(Beacon{ID: 2, X: 100, Y: 10})
	bf.Place(Beacon{ID: 1, X: 100, Y: 30})
	dets := bf.Hear(1)
	if len(dets) != 2 {
		t.Fatalf("hear = %v", dets)
	}
	if dets[0].BeaconID != 2 {
		t.Fatalf("closest beacon should sort first: %v", dets)
	}
}

func TestBeaconDeadReader(t *testing.T) {
	nw, bf := beaconTestNet()
	bf.Place(Beacon{ID: 7, X: 10, Y: 0})
	nw.Kill(0)
	loc := bf.Locate()
	if _, ok := loc[7]; ok {
		t.Fatalf("dead reader still detects: %+v", loc)
	}
	if dets := bf.Hear(0); dets != nil {
		t.Fatal("dead reader hears")
	}
}

func TestBeaconDefaultRange(t *testing.T) {
	nw := New(DefaultConfig())
	bf := NewBeaconField(nw, 0)
	if bf.BeaconRange != DefaultConfig().RadioRange/2 {
		t.Fatalf("default beacon range = %v", bf.BeaconRange)
	}
}
