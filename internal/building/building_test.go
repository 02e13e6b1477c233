package building

import (
	"strings"
	"testing"
)

// Contains reports whether the point lies inside the room's box.
func (r *Room) Contains(x, y float64) bool {
	return x >= r.X && x <= r.X+r.W && y >= r.Y && y <= r.Y+r.H
}

// Room looks up a room by name.
func (b *Building) Room(name string) (*Room, bool) {
	for i := range b.Rooms {
		if b.Rooms[i].Name == name {
			return &b.Rooms[i], true
		}
	}
	return nil, false
}

func TestGenerateDefault(t *testing.T) {
	b := Generate(DefaultConfig())
	// 1 lobby + 4 labs + 2 offices + 1 machine room
	if len(b.Rooms) != 8 {
		t.Fatalf("rooms = %d", len(b.Rooms))
	}
	labs := b.Labs()
	if len(labs) != 4 || labs[0].Name != "L101" {
		t.Fatalf("labs = %v", labs)
	}
	if len(labs[0].Desks) != 6 {
		t.Fatalf("desks = %d", len(labs[0].Desks))
	}
	if _, ok := b.Room("MR1"); !ok {
		t.Fatal("machine room missing")
	}
	if _, ok := b.Room("nope"); ok {
		t.Fatal("phantom room")
	}
}

func TestDeterministic(t *testing.T) {
	a := Generate(DefaultConfig())
	b := Generate(DefaultConfig())
	pa, pb := a.Points(), b.Points()
	if len(pa) != len(pb) {
		t.Fatal("point counts differ")
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("point %d differs: %v vs %v", i, pa[i], pb[i])
		}
	}
	if len(a.RoutingEdges()) != len(b.RoutingEdges()) {
		t.Fatal("edges differ")
	}
}

func TestRoutingGraphConnectivity(t *testing.T) {
	b := Generate(DefaultConfig())
	g := b.Graph()
	// every room point must be reachable from the lobby
	d := g.Distances("lobby")
	for _, r := range b.Rooms {
		if r.Kind == Lobby {
			continue
		}
		if _, ok := d[r.Name]; !ok {
			t.Fatalf("%s unreachable from lobby", r.Name)
		}
	}
	// farther labs are farther away
	if d["L101"] >= d["L104"] {
		t.Fatalf("distance ordering wrong: L101=%v L104=%v", d["L101"], d["L104"])
	}
	// route renders sensibly
	r, ok := g.Shortest("lobby", "L103")
	if !ok || !strings.Contains(r.String(), "hall") {
		t.Fatalf("route = %v %t", r, ok)
	}
}

func TestRoutingEdgesTableSymmetric(t *testing.T) {
	b := Generate(DefaultConfig())
	edges := b.RoutingEdges()
	seen := map[string]float64{}
	for _, e := range edges {
		seen[e.From+">"+e.To] = e.Dist
	}
	for _, e := range edges {
		back, ok := seen[e.To+">"+e.From]
		if !ok || back != e.Dist {
			t.Fatalf("asymmetric edge %v", e)
		}
		if e.Dist <= 0 {
			t.Fatalf("non-positive distance %v", e)
		}
	}
}

func TestDeskPositionsInsideRoom(t *testing.T) {
	b := Generate(DefaultConfig())
	for _, lab := range b.Labs() {
		for _, d := range lab.Desks {
			if !lab.Contains(d.X, d.Y) {
				t.Fatalf("desk %d of %s at (%v,%v) outside room box", d.Num, lab.Name, d.X, d.Y)
			}
		}
	}
}

func TestRoomAtAndNearestPoint(t *testing.T) {
	b := Generate(DefaultConfig())
	p := b.NearestPoint(5, 0)
	if p.Name != "lobby" {
		t.Fatalf("nearest to origin = %v", p)
	}
}

func TestPointsLookup(t *testing.T) {
	b := Generate(DefaultConfig())
	if _, ok := b.Point("hall1"); !ok {
		t.Fatal("hall1 missing")
	}
	if _, ok := b.Point("hall99"); ok {
		t.Fatal("phantom hall")
	}
	pts := b.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i-1].Name >= pts[i].Name {
			t.Fatal("points not sorted")
		}
	}
}

func TestGenerateDegenerateConfigs(t *testing.T) {
	b := Generate(GenConfig{})
	if len(b.Labs()) != 1 {
		t.Fatalf("degenerate labs = %d", len(b.Labs()))
	}
	if len(b.Labs()[0].Desks) != 1 {
		t.Fatal("degenerate desks")
	}
	big := Generate(GenConfig{Labs: 12, DesksPerLab: 10, HallSpacing: 50, Offices: 6})
	if len(big.Labs()) != 12 {
		t.Fatal("big config")
	}
	d := big.Graph().Distances("lobby")
	if _, ok := d["L112"]; !ok {
		t.Fatal("far lab unreachable in big building")
	}
}

func TestBounds(t *testing.T) {
	b := Generate(DefaultConfig())
	minX, minY, maxX, maxY := b.Bounds()
	if minX >= maxX || minY >= maxY {
		t.Fatalf("bounds degenerate: %v %v %v %v", minX, minY, maxX, maxY)
	}
	if minX > -60 || maxY < 50 {
		t.Fatalf("bounds miss rooms: %v %v %v %v", minX, minY, maxX, maxY)
	}
}

func TestRoomKindString(t *testing.T) {
	for k, want := range map[RoomKind]string{Lab: "lab", Office: "office", Lobby: "lobby", MachineRoom: "machine-room"} {
		if k.String() != want {
			t.Errorf("%d = %q", k, k.String())
		}
	}
	if RoomKind(9).String() != "room?" {
		t.Error("unknown kind")
	}
}

// The goal search settles no point past the first accepted distance: on the
// benchmark's building, from every routing point, accept is shown exactly
// the points no farther than the nearest wanted lab, and the route goes to
// a nearest one.
func TestNearestWhereSettlesNothingFarther(t *testing.T) {
	b := Generate(GenConfig{Labs: 32, DesksPerLab: 8, Offices: 16, HallSpacing: 100})
	g := b.Graph()
	// The labs past the last office: the lobby is half a building away
	// from them, the machine room a few points.
	wanted := func(p string) bool {
		r, ok := b.Room(p)
		return ok && r.Kind == Lab && r.DoorX > 1600
	}
	fromLobby, all := 0, g.Distances("lobby")
	for src := range all {
		dists := g.Distances(src)
		seen := 0
		dest, route, ok := g.NearestWhere(src, func(p string) bool {
			seen++
			return wanted(p)
		})
		if !ok || !wanted(dest) || route.Dist != dists[dest] {
			t.Fatalf("from %s: %s %v %t", src, dest, route, ok)
		}
		within := 0
		for p, d := range dists {
			if d <= route.Dist {
				within++
			}
			if wanted(p) && d < route.Dist {
				t.Fatalf("from %s: %s at %v is nearer than %s at %v", src, p, d, dest, route.Dist)
			}
		}
		if seen != within {
			t.Fatalf("from %s: accept saw %d points, %d lie within %v", src, seen, within, route.Dist)
		}
		if src == "lobby" {
			fromLobby = seen
		}
	}
	if fromLobby >= len(all) {
		t.Fatalf("from the lobby the search saw all %d points", len(all))
	}
}
