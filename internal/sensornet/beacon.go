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

// BeaconField tracks the moving beacons over a network. Lock order: the
// field's lock before the network's, the order Locate takes them in.
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

// Locate returns the reader that hears the badge loudest: the building's
// position estimate for the one beacon with this ID. Ties go to the lowest
// node ID and dead readers hear nothing; a badge that is unknown, or out of
// range of every live reader, is not located. The field, then the
// network, stay locked for the one pass over the RFID motes, so every
// reader is judged against the same badge position and the same liveness.
func (bf *BeaconField) Locate(id int) (Detection, bool) {
	bf.mu.Lock()
	defer bf.mu.Unlock()
	b := bf.beacons[id]
	if b == nil {
		return Detection{}, false
	}
	nw := bf.net
	nw.mu.Lock()
	defer nw.mu.Unlock()
	var best Detection
	found := false
	for _, m := range nw.kindLocked(SensorRFID) {
		if m.Dead {
			continue
		}
		d := dist(m.X, m.Y, b.X, b.Y)
		if d > bf.BeaconRange {
			continue
		}
		// Readers arrive in ID order, so a later one must be strictly
		// louder to win.
		if rssi := 1 / (1 + d); !found || rssi > best.RSSI {
			best, found = Detection{BeaconID: b.ID, Owner: b.Owner, NodeID: m.ID, RSSI: rssi}, true
		}
	}
	return best, found
}
