// Package building models the physical environment SmartCIS instruments: a
// synthetic stand-in for Penn's Moore building with laboratories, offices,
// desks, hallways, and the "routing points" table (§2) that path queries
// run over. Geometry is in feet; the generator is deterministic so every
// experiment sees the same building.
package building

import (
	"fmt"
	"math"
	"sort"

	"aspen/internal/routing"
)

// RoomKind classifies rooms.
type RoomKind uint8

// Room kinds.
const (
	Lab RoomKind = iota
	Office
	Lobby
	MachineRoom
)

// String names the kind.
func (k RoomKind) String() string {
	switch k {
	case Lab:
		return "lab"
	case Office:
		return "office"
	case Lobby:
		return "lobby"
	case MachineRoom:
		return "machine-room"
	}
	return "room?"
}

// Desk is one seat position inside a room.
type Desk struct {
	Num  int
	X, Y float64
}

// Room is one room with its doorway onto the hallway.
type Room struct {
	Name         string
	Kind         RoomKind
	X, Y, W, H   float64 // bounding box (X, Y = lower-left corner)
	DoorX, DoorY float64
	Desks        []Desk
}

// Center returns the room's center point.
func (r *Room) Center() (float64, float64) { return r.X + r.W/2, r.Y + r.H/2 }

// Point is a named routing point with coordinates.
type Point struct {
	Name string
	X, Y float64
}

// Edge is one routing-table row: a traversable segment with its length.
type Edge struct {
	From, To string
	Dist     float64
}

// Building is the generated environment.
type Building struct {
	Name   string
	Rooms  []Room
	points map[string]Point
	edges  []Edge
	graph  *routing.Graph
}

// GenConfig parameterizes the generator.
type GenConfig struct {
	// Labs is the number of laboratories along the hallway.
	Labs int
	// DesksPerLab is the number of desks in each lab.
	DesksPerLab int
	// HallSpacing is the distance between hallway routing points; the
	// paper's motes sit "every 100 feet".
	HallSpacing float64
	// Offices adds offices past the labs.
	Offices int
}

// DefaultConfig is the demo deployment: 4 labs of 6 desks plus 2 offices.
func DefaultConfig() GenConfig {
	return GenConfig{Labs: 4, DesksPerLab: 6, HallSpacing: 100, Offices: 2}
}

// Generate lays out the building: a lobby at the west end, a straight
// east-west hallway with routing points every HallSpacing feet, labs on the
// north side, offices on the south side, and a machine room at the east
// end. All rooms connect to the hallway through their door point.
func Generate(cfg GenConfig) *Building {
	if cfg.Labs <= 0 {
		cfg.Labs = 1
	}
	if cfg.DesksPerLab <= 0 {
		cfg.DesksPerLab = 1
	}
	if cfg.HallSpacing <= 0 {
		cfg.HallSpacing = 100
	}
	b := &Building{
		Name:   "Moore (synthetic)",
		points: map[string]Point{},
		graph:  routing.NewGraph(),
	}
	hallY := 0.0
	roomDepth := 40.0

	addPoint := func(name string, x, y float64) {
		b.points[name] = Point{Name: name, X: x, Y: y}
	}
	addEdge := func(a, bname string) {
		pa, pb := b.points[a], b.points[bname]
		d := math.Hypot(pa.X-pb.X, pa.Y-pb.Y)
		if d == 0 {
			d = 1
		}
		b.edges = append(b.edges, Edge{From: a, To: bname, Dist: d})
		b.edges = append(b.edges, Edge{From: bname, To: a, Dist: d})
		if err := b.graph.AddBoth(a, bname, d); err != nil {
			panic(err) // distances are non-negative by construction
		}
	}

	// Lobby and hallway spine.
	addPoint("lobby", 0, hallY)
	lobby := Room{Name: "lobby", Kind: Lobby, X: -60, Y: -25, W: 60, H: 50,
		DoorX: 0, DoorY: hallY}
	b.Rooms = append(b.Rooms, lobby)

	segments := cfg.Labs
	if cfg.Offices > segments {
		segments = cfg.Offices
	}
	hallPoints := []string{"lobby"}
	for i := 1; i <= segments+1; i++ {
		name := fmt.Sprintf("hall%d", i)
		addPoint(name, float64(i)*cfg.HallSpacing, hallY)
		addEdge(hallPoints[len(hallPoints)-1], name)
		hallPoints = append(hallPoints, name)
	}

	// Labs on the north side, one per hallway segment.
	for i := 0; i < cfg.Labs; i++ {
		name := fmt.Sprintf("L%d", 101+i)
		x := float64(i+1) * cfg.HallSpacing
		room := Room{
			Name: name, Kind: Lab,
			X: x - 35, Y: hallY + 10, W: 70, H: roomDepth,
			DoorX: x, DoorY: hallY + 10,
		}
		for d := 0; d < cfg.DesksPerLab; d++ {
			cols := 3
			dx := room.X + 12 + float64(d%cols)*22
			dy := room.Y + 10 + float64(d/cols)*18
			room.Desks = append(room.Desks, Desk{Num: d + 1, X: dx, Y: dy})
		}
		b.Rooms = append(b.Rooms, room)
		addPoint(name, x, hallY+10+roomDepth/2)
		addEdge(hallPoints[i+1], name)
	}

	// Offices on the south side.
	for i := 0; i < cfg.Offices; i++ {
		name := fmt.Sprintf("O%d", 201+i)
		x := float64(i+1) * cfg.HallSpacing
		room := Room{
			Name: name, Kind: Office,
			X: x - 25, Y: hallY - 10 - roomDepth, W: 50, H: roomDepth,
			DoorX: x, DoorY: hallY - 10,
		}
		room.Desks = append(room.Desks, Desk{Num: 1, X: x, Y: hallY - 10 - roomDepth/2})
		b.Rooms = append(b.Rooms, room)
		addPoint(name, x, hallY-10-roomDepth/2)
		addEdge(hallPoints[i+1], name)
	}

	// Machine room at the east end.
	mr := Room{
		Name: "MR1", Kind: MachineRoom,
		X: float64(segments+1)*cfg.HallSpacing + 10, Y: hallY - 20,
		W: 60, H: 40,
		DoorX: float64(segments+1) * cfg.HallSpacing, DoorY: hallY,
	}
	for d := 0; d < 4; d++ {
		mr.Desks = append(mr.Desks, Desk{Num: d + 1, X: mr.X + 10 + float64(d)*12, Y: mr.Y + 20})
	}
	b.Rooms = append(b.Rooms, mr)
	addPoint("MR1", mr.X+mr.W/2, mr.Y+mr.H/2)
	addEdge(hallPoints[len(hallPoints)-1], "MR1")

	sort.Slice(b.Rooms, func(i, j int) bool { return b.Rooms[i].Name < b.Rooms[j].Name })
	return b
}

// Graph returns the routing graph over the building's points.
func (b *Building) Graph() *routing.Graph { return b.graph }

// RoutingEdges returns the routing-point table rows (§2's database table).
func (b *Building) RoutingEdges() []Edge {
	out := make([]Edge, len(b.edges))
	copy(out, b.edges)
	return out
}

// Points returns all routing points sorted by name.
func (b *Building) Points() []Point {
	out := make([]Point, 0, len(b.points))
	for _, p := range b.points {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Point looks up a routing point by name.
func (b *Building) Point(name string) (Point, bool) {
	p, ok := b.points[name]
	return p, ok
}

// Labs returns the lab rooms sorted by name.
func (b *Building) Labs() []*Room {
	var out []*Room
	for i := range b.Rooms {
		if b.Rooms[i].Kind == Lab {
			out = append(out, &b.Rooms[i])
		}
	}
	return out
}

// NearestPoint returns the routing point closest to the coordinates; used
// to snap each RFID reader to the routing graph as it is placed.
func (b *Building) NearestPoint(x, y float64) Point {
	var best Point
	bestD := math.Inf(1)
	for _, p := range b.points {
		d := math.Hypot(p.X-x, p.Y-y)
		if d < bestD || (d == bestD && p.Name < best.Name) {
			best, bestD = p, d
		}
	}
	return best
}

// Bounds returns the bounding box of the whole building.
func (b *Building) Bounds() (minX, minY, maxX, maxY float64) {
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for _, r := range b.Rooms {
		minX = math.Min(minX, r.X)
		minY = math.Min(minY, r.Y)
		maxX = math.Max(maxX, r.X+r.W)
		maxY = math.Max(maxY, r.Y+r.H)
	}
	return
}
