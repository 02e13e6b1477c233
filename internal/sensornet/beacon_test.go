package sensornet

import (
	"fmt"
	"sync"
	"testing"
)

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

	want := Detection{BeaconID: 7, Owner: "visitor", NodeID: 1, RSSI: 1.0 / 11}
	if det, ok := bf.Locate(7); !ok || det != want {
		t.Fatalf("Locate(7) = %+v (%t), want %+v", det, ok, want)
	}
}

func TestBeaconMovement(t *testing.T) {
	_, bf := beaconTestNet()
	bf.Place(Beacon{ID: 7, Owner: "visitor", X: 10, Y: 0})
	if det, ok := bf.Locate(7); !ok || det.NodeID != 0 {
		t.Fatalf("start position reader = %d (%t)", det.NodeID, ok)
	}
	bf.Move(7, 195, 0)
	if det, ok := bf.Locate(7); !ok || det.NodeID != 2 {
		t.Fatalf("after move reader = %d (%t)", det.NodeID, ok)
	}
	// moving a missing beacon is a no-op
	bf.Move(99, 0, 0)
	if det, ok := bf.Locate(99); ok {
		t.Fatalf("Locate after moving a missing beacon = %+v", det)
	}
	if det, ok := bf.Locate(7); !ok || det.NodeID != 2 {
		t.Fatalf("moving a missing beacon moved badge 7: reader %d (%t)", det.NodeID, ok)
	}
}

func TestBeaconStrongestReaderWins(t *testing.T) {
	_, bf := beaconTestNet()
	// Equidistant between readers 0 and 1: tie broken by lower node ID.
	bf.Place(Beacon{ID: 7, X: 50, Y: 0})
	if det, ok := bf.Locate(7); !ok || det.NodeID != 0 {
		t.Fatalf("tie-break reader = %d (%t), want 0", det.NodeID, ok)
	}
	// Slightly closer to reader 1 flips the estimate.
	bf.Move(7, 51, 0)
	if det, ok := bf.Locate(7); !ok || det.NodeID != 1 {
		t.Fatalf("closest reader = %d (%t), want 1", det.NodeID, ok)
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
	if det, ok := bf.Locate(7); ok {
		t.Fatalf("dead reader still detects: %+v", det)
	}
	if dets := bf.Hear(0); dets != nil {
		t.Fatal("dead reader hears")
	}
}

// A badge no reader can place: one never placed, and one out of every
// reader's range.
func TestBeaconLocateNotFound(t *testing.T) {
	_, bf := beaconTestNet()
	if det, ok := bf.Locate(7); ok {
		t.Fatalf("unknown badge located: %+v", det)
	}
	bf.Place(Beacon{ID: 7, X: 150, Y: 0})  // 50 from readers 1 and 2
	bf.Place(Beacon{ID: 8, X: 100, Y: 70}) // 20 from the light mote only
	if det, ok := bf.Locate(7); !ok || det.NodeID != 1 {
		t.Fatalf("badge 7 reader = %d (%t), want 1", det.NodeID, ok)
	}
	if det, ok := bf.Locate(8); ok {
		t.Fatalf("out-of-range badge located: %+v", det)
	}
	bf.Move(7, 300, 0)
	if det, ok := bf.Locate(7); ok {
		t.Fatalf("badge moved out of range located: %+v", det)
	}
}

// A dead loudest reader hands the badge to the next loudest, and a revived
// one takes it back; among equally loud readers the lowest live ID wins.
func TestBeaconLocateDeadAndTies(t *testing.T) {
	nw, bf := beaconTestNet()
	bf.Place(Beacon{ID: 7, Owner: "visitor", X: 140, Y: 0}) // 40 from reader 1, 60 from reader 2
	nw.Kill(1)
	want := Detection{BeaconID: 7, Owner: "visitor", NodeID: 2, RSSI: 1.0 / 61}
	if det, ok := bf.Locate(7); !ok || det != want {
		t.Fatalf("with reader 1 dead Locate(7) = %+v (%t), want %+v", det, ok, want)
	}
	nw.Revive(1)
	if det, ok := bf.Locate(7); !ok || det.NodeID != 1 {
		t.Fatalf("after revival reader = %d (%t), want 1", det.NodeID, ok)
	}

	// Readers 1 and 2 hear a badge midway between them equally loud.
	bf.Move(7, 150, 0)
	det1, ok1 := bf.Locate(7)
	if !ok1 || det1.NodeID != 1 || det1.RSSI != 1.0/51 {
		t.Fatalf("tie Locate(7) = %+v (%t), want reader 1 at RSSI 1/51", det1, ok1)
	}
	dets := bf.Hear(2)
	if len(dets) != 1 || dets[0].RSSI != det1.RSSI {
		t.Fatalf("reader 2 hears %v, want the same RSSI as reader 1", dets)
	}
	nw.Kill(1)
	if det, ok := bf.Locate(7); !ok || det.NodeID != 2 {
		t.Fatalf("tie with reader 1 dead: reader %d (%t), want 2", det.NodeID, ok)
	}
}

func TestBeaconDefaultRange(t *testing.T) {
	nw := New(DefaultConfig())
	bf := NewBeaconField(nw, 0)
	if bf.BeaconRange != DefaultConfig().RadioRange/2 {
		t.Fatalf("default beacon range = %v", bf.BeaconRange)
	}
}

// TestLocateBesideMoves runs badge moves and placements, reader deaths and
// revivals, and locates side by side; under -race it checks that a locate
// reads the badges and the readers only under their locks. Every answer
// must be a reader in range of the badge, and once the writers stop each
// badge must be where the per-reader Hear puts it.
func TestLocateBesideMoves(t *testing.T) {
	nw := Line(DefaultConfig(), 10, 100, SensorRFID) // readers at x = 0, 100, …, 900
	bf := NewBeaconField(nw, 60)
	const badges = 4
	owner := func(id int) string { return fmt.Sprintf("badge%d", id) }
	for id := range badges {
		bf.Place(Beacon{ID: id, Owner: owner(id), X: float64(id) * 200})
	}
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for g := range 2 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := range 300 {
				id := (g + i) % badges
				x := float64((i*37 + g*101) % 900)
				if i%3 == 0 {
					bf.Place(Beacon{ID: id, Owner: owner(id), X: x})
				} else {
					bf.Move(id, x, 0)
				}
			}
		}()
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := range 300 {
			nw.Kill(i % 10)
			nw.Kill((i + 3) % 10)
			nw.Revive(i % 10)
			nw.Revive((i + 3) % 10)
		}
	}()
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				id := i % (badges + 1) // badge 4 is never placed
				det, ok := bf.Locate(id)
				if !ok {
					continue
				}
				if id == badges || det.BeaconID != id || det.Owner != owner(id) ||
					det.NodeID < 0 || det.NodeID > 9 || 1/det.RSSI-1 > bf.BeaconRange {
					t.Errorf("Locate(%d) = %+v", id, det)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(done)
	readers.Wait()
	for id := range badges + 1 {
		var want Detection
		found := false
		for r := range 10 {
			for _, det := range bf.Hear(r) {
				if det.BeaconID == id && (!found || det.RSSI > want.RSSI) {
					want, found = det, true
				}
			}
		}
		if det, ok := bf.Locate(id); ok != found || det != want {
			t.Errorf("after the writers: Locate(%d) = %+v (%t), per-reader Hear %+v (%t)", id, det, ok, want, found)
		}
	}
}
