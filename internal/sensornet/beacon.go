package sensornet

import (
	"sort"
	"sync"
)

// Beacon is an active RFID device carried by a building occupant. Hallway
// motes with SensorRFID hear its periodic low-power transmission when in
// range; the strongest reader wins, which is how SmartCIS localizes
// visitors (§2 "Detection of occupants").
type Beacon struct {
	ID    int
	Owner string // person carrying the badge
	X, Y  float64
}

// BeaconField tracks the moving beacons over a network.
type BeaconField struct {
	mu      sync.Mutex
	net     *Network
	beacons map[int]*Beacon
	// BeaconRange is the low-power transmit radius, deliberately shorter
	// than the inter-mote radio range.
	BeaconRange float64
}

// NewBeaconField creates a beacon field over the network.
func NewBeaconField(net *Network, beaconRange float64) *BeaconField {
	if beaconRange <= 0 {
		beaconRange = net.Config().RadioRange / 2
	}
	return &BeaconField{net: net, beacons: map[int]*Beacon{}, BeaconRange: beaconRange}
}

// Place adds or moves a beacon.
func (bf *BeaconField) Place(b Beacon) {
	bf.mu.Lock()
	cp := b
	bf.beacons[b.ID] = &cp
	bf.mu.Unlock()
}

// Move repositions an existing beacon; unknown IDs are ignored.
func (bf *BeaconField) Move(id int, x, y float64) {
	bf.mu.Lock()
	if b := bf.beacons[id]; b != nil {
		b.X, b.Y = x, y
	}
	bf.mu.Unlock()
}

// Detection is one beacon sighting by a reader mote.
type Detection struct {
	BeaconID int
	Owner    string
	NodeID   int
	RSSI     float64 // 1/(1+d); larger is closer
}

// Hear returns the beacons audible at the given RFID mote this instant,
// strongest first.
func (bf *BeaconField) Hear(nodeID int) []Detection {
	n, ok := bf.net.Node(nodeID)
	if !ok || n.Dead || !n.HasSensor(SensorRFID) {
		return nil
	}
	bf.mu.Lock()
	defer bf.mu.Unlock()
	var out []Detection
	for _, b := range bf.beacons {
		d := dist(n.X, n.Y, b.X, b.Y)
		if d <= bf.BeaconRange {
			out = append(out, Detection{
				BeaconID: b.ID, Owner: b.Owner, NodeID: nodeID,
				RSSI: 1 / (1 + d),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RSSI != out[j].RSSI {
			return out[i].RSSI > out[j].RSSI
		}
		return out[i].BeaconID < out[j].BeaconID
	})
	return out
}

// Locate returns, for each beacon, the reader that hears it loudest — ties
// go to the lowest node ID; the building-side position estimate. Beacons
// out of range of every reader are absent from the result. Every reader is
// judged against the same beacon positions: the field stays locked for
// the one pass over the RFID motes.
func (bf *BeaconField) Locate() map[int]Detection {
	bf.mu.Lock()
	defer bf.mu.Unlock()
	best := map[int]Detection{}
	bf.net.EachWith(SensorRFID, func(n Node) bool {
		if n.Dead {
			return true
		}
		for _, b := range bf.beacons {
			d := dist(n.X, n.Y, b.X, b.Y)
			if d > bf.BeaconRange {
				continue
			}
			// Readers arrive in ID order, so a later one must be
			// strictly louder to win.
			rssi := 1 / (1 + d)
			if cur, ok := best[b.ID]; !ok || rssi > cur.RSSI {
				best[b.ID] = Detection{BeaconID: b.ID, Owner: b.Owner, NodeID: n.ID, RSSI: rssi}
			}
		}
		return true
	})
	return best
}
