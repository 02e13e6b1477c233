package smartcis

import (
	"slices"
	"strings"
	"testing"

	"aspen/internal/building"
	"aspen/internal/data"
	"aspen/internal/federation"
	"aspen/internal/sensornet"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// smallApp builds a compact deployment for fast tests.
func smallApp(t *testing.T) *App {
	t.Helper()
	app, err := New(Options{
		Building:       building.GenConfig{Labs: 2, DesksPerLab: 3, HallSpacing: 100, Offices: 1},
		Seed:           42,
		SkipPDUServers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	return app
}

func TestDeploymentShape(t *testing.T) {
	app := smallApp(t)
	nodes := app.Net.Nodes()
	// base + 3 hall RFID (hall1..hall3) + area motes (2 labs + 1 office +
	// 1 machine room) + 2 motes per desk (2*3 lab desks + 1 office desk +
	// 4 machine-room desks)
	wantDesks := 2*3 + 1 + 4
	want := 1 + 3 + 4 + 2*wantDesks
	if len(nodes) != want {
		t.Fatalf("nodes = %d, want %d", len(nodes), want)
	}
	for _, n := range nodes {
		if n.Hops < 0 {
			t.Fatalf("mote %d unreachable from base", n.ID)
		}
	}
	if len(app.Fleet.Machines()) != 2*3+4 {
		t.Fatalf("machines = %d", len(app.Fleet.Machines()))
	}
	// catalog sources registered
	for _, s := range []string{"Temperature", "Light", "Sightings", "MachineState", "Jobs", "Power", "Machines", "RoutingPoints"} {
		if _, ok := app.RT.Cat.Source(s); !ok {
			t.Fatalf("source %s missing", s)
		}
	}
	for _, v := range []string{"AreaSensors", "SeatSensors"} {
		if _, ok := app.RT.Cat.View(v); !ok {
			t.Fatalf("view %s missing", v)
		}
	}
}

func TestPhysicalModelLightSemantics(t *testing.T) {
	app := smallApp(t)
	key := app.deskMote[deskKey("L101", 1)]
	lightMote, _ := app.Net.Node(key[1])

	// lit room, empty chair
	v, ok := app.Reading(lightMote, sensornet.SensorLight, 0)
	if !ok || v != LuxSeatOpen {
		t.Fatalf("empty seat lux = %v", v)
	}
	// someone sits down: light drops below the occupancy threshold
	app.SetDeskOccupied("L101", 1, true)
	v, _ = app.Reading(lightMote, sensornet.SensorLight, 0)
	if v >= OccupiedLightThreshold {
		t.Fatalf("occupied seat lux = %v", v)
	}
	if !app.DeskOccupied("L101", 1) {
		t.Fatal("occupancy state lost")
	}
	// lights off
	app.SetDeskOccupied("L101", 1, false)
	app.SetRoomLights("L101", false)
	v, _ = app.Reading(lightMote, sensornet.SensorLight, 0)
	if v != LuxDark {
		t.Fatalf("dark room lux = %v", v)
	}
	if app.RoomLit("L101") {
		t.Fatal("room light state lost")
	}
}

func TestPhysicalModelTemperature(t *testing.T) {
	app := smallApp(t)
	key := app.deskMote[deskKey("L101", 1)]
	tempMote, _ := app.Net.Node(key[0])
	v, ok := app.Reading(tempMote, sensornet.SensorTemperature, 0)
	if !ok || v < 21 || v > 23 {
		t.Fatalf("idle machine temp = %v", v)
	}
	// load the machine at that desk: temperature rises
	app.Fleet.StartJob("ws-L101-1", "u", "burn", 1.0, 100)
	v2, _ := app.Reading(tempMote, sensornet.SensorTemperature, 0)
	if v2 <= v {
		t.Fatalf("loaded temp %v should exceed idle %v", v2, v)
	}
	// room temperature override
	app.SetRoomTemp("L101", 40)
	v3, _ := app.Reading(tempMote, sensornet.SensorTemperature, 0)
	if v3 < 40 {
		t.Fatalf("room temp override = %v", v3)
	}
	// RFID motes have no temperature
	if _, ok := app.Reading(mustNode(t, app, 1), sensornet.SensorTemperature, 0); ok {
		t.Fatal("rfid mote produced temperature")
	}
}

func mustNode(t *testing.T, app *App, id int) sensornet.Node {
	t.Helper()
	n, ok := app.Net.Node(id)
	if !ok {
		t.Fatalf("node %d missing", id)
	}
	return n
}

func TestOccupancyQueryEndToEnd(t *testing.T) {
	app := smallApp(t)
	q, err := app.OccupancyQuery()
	if err != nil {
		t.Fatal(err)
	}
	// the federated optimizer should have chosen the in-network join
	if q.Partition.Chosen.Fragments[0].Kind != federation.FragJoin {
		t.Fatalf("partition = %s", q.Partition.Chosen.Desc)
	}
	app.SetDeskOccupied("L101", 2, true)
	app.Sched.RunUntil(3 * vtime.Second)
	rows, err := q.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("occupied desk not detected")
	}
	for _, r := range rows {
		if r.Vals[0].AsString() != "L101" || r.Vals[1].AsInt() != 2 {
			t.Fatalf("row = %v", r)
		}
	}
}

func TestAlarmQuery(t *testing.T) {
	app := smallApp(t)
	q, err := app.AlarmQuery(35)
	if err != nil {
		t.Fatal(err)
	}
	app.Sched.RunUntil(2 * vtime.Second)
	if rows, _ := q.Snapshot(); len(rows) != 0 {
		t.Fatalf("false alarms: %v", rows)
	}
	app.SetRoomTemp("L102", 50) // overheating lab
	app.Sched.RunUntil(4 * vtime.Second)
	rows, _ := q.Snapshot()
	if len(rows) == 0 {
		t.Fatal("alarm never fired")
	}
	for _, r := range rows {
		if r.Vals[0].AsString() != "L102" {
			t.Fatalf("alarm row = %v", r)
		}
	}
	// alarms routed to the display too
	if app.RT.Stream.MustDisplay("alarms", nil).Len() == 0 {
		t.Fatal("alarms display empty")
	}
}

func TestVisitorDetectionAndGuidance(t *testing.T) {
	app := smallApp(t)
	app.VisitorArrives("alice")
	at, ok := app.LocateVisitor("alice")
	if !ok {
		t.Fatal("alice not located at arrival")
	}
	if at != "lobby" && !strings.HasPrefix(at, "hall") {
		t.Fatalf("located at %q", at)
	}
	if err := app.MoveVisitorTo("alice", "hall2"); err != nil {
		t.Fatal(err)
	}
	at, ok = app.LocateVisitor("alice")
	if !ok || at != "hall2" {
		t.Fatalf("after move located at %q (%t)", at, ok)
	}

	g, err := app.Guide("alice", "fedora linux")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.Machine.Name, "ws-") {
		t.Fatalf("machine = %+v", g.Machine)
	}
	if g.Route.Points[0] != "hall2" {
		t.Fatalf("route should start at the visitor: %v", g.Route)
	}
	if g.Route.Points[len(g.Route.Points)-1] != g.Machine.Room {
		t.Fatalf("route should end at the machine's room: %v", g.Route)
	}

	// errors
	if _, err := app.Guide("nobody", "fedora"); err == nil {
		t.Fatal("guided a ghost")
	}
	if _, err := app.Guide("alice", "vax/vms"); err == nil {
		t.Fatal("guided to nonexistent capability")
	}
	if err := app.MoveVisitorTo("alice", "nowhere"); err == nil {
		t.Fatal("moved to nonexistent point")
	}
	if err := app.MoveVisitor("nobody", 0, 0); err == nil {
		t.Fatal("moved a ghost")
	}
}

// TestSightingsInNameOrder samples three visitors' badges 20 times: every
// round pushes their sightings in visitor-name order, whatever order they
// arrived in and whatever order the visitors map iterates in.
func TestSightingsInNameOrder(t *testing.T) {
	app := smallApp(t)
	for _, name := range []string{"carol", "alice", "bob"} {
		app.VisitorArrives(name)
	}
	var got []string
	app.sightIn.Subscribe(stream.NewCallback(app.sightIn.Schema(), func(ts []data.Tuple) {
		for _, tp := range ts {
			got = append(got, tp.Vals[0].AsString())
		}
	}))
	for round := 0; round < 20; round++ {
		got = got[:0]
		app.sampleSightings()
		if want := []string{"alice", "bob", "carol"}; !slices.Equal(got, want) {
			t.Fatalf("round %d: sightings pushed for %v, want %v", round, got, want)
		}
	}
}

func TestFreeMachinesRespectsState(t *testing.T) {
	app := smallApp(t)
	base := len(app.FreeMachines("fedora linux"))
	if base == 0 {
		t.Fatal("no fedora machines free initially")
	}
	// occupy one seat
	f := app.FreeMachines("fedora linux")[0]
	app.SetDeskOccupied(f.Room, f.Desk, true)
	if len(app.FreeMachines("fedora linux")) != base-1 {
		t.Fatal("occupied seat still offered")
	}
	// close the room: all its machines drop out
	app.SetRoomLights(f.Room, false)
	for _, m := range app.FreeMachines("fedora linux") {
		if m.Room == f.Room {
			t.Fatal("closed room still offered")
		}
	}
	// power a machine off
	app.SetRoomLights(f.Room, true)
	app.SetDeskOccupied(f.Room, f.Desk, false)
	app.Fleet.SetPower(f.Name, false)
	for _, m := range app.FreeMachines("fedora linux") {
		if m.Name == f.Name {
			t.Fatal("powered-off machine offered")
		}
	}
}

func TestResourcesByUserAndJobs(t *testing.T) {
	app := smallApp(t)
	app.Fleet.StartJob("ws-L101-1", "marie", "sim", 0.4, 256)
	app.Fleet.StartJob("ws-L102-1", "marie", "sim2", 0.3, 128)
	q, err := app.ResourcesByUser()
	if err != nil {
		t.Fatal(err)
	}
	app.sampleJobs() // one deterministic sample round
	rows, _ := q.Snapshot()
	found := false
	for _, r := range rows {
		if r.Vals[0].AsString() == "marie" {
			found = true
			if r.Vals[1].AsFloat() < 0.69 { // 0.4 + 0.3 across machines
				t.Fatalf("marie cpu = %v", r.Vals[1])
			}
		}
	}
	if !found {
		t.Fatalf("marie missing: %v", rows)
	}
}

func TestRouteViewAgreesWithDijkstra(t *testing.T) {
	app := smallApp(t)
	q, err := app.RouteView()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := q.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("route view empty")
	}
	// min dist per (src=lobby, dst) must match Dijkstra
	best := map[string]float64{}
	for _, r := range rows {
		if r.Vals[0].AsString() != "lobby" {
			continue
		}
		dst := r.Vals[1].AsString()
		d := r.Vals[2].AsFloat()
		if cur, ok := best[dst]; !ok || d < cur {
			best[dst] = d
		}
	}
	dij := app.Building.Graph().Distances("lobby")
	for dst, d := range best {
		if want, ok := dij[dst]; ok && want != d {
			t.Fatalf("lobby->%s: view %v, dijkstra %v", dst, d, want)
		}
	}
	if _, ok := best["L101"]; !ok {
		t.Fatal("no route to L101 in view")
	}
}
