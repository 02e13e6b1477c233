package smartcis

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"aspen/internal/building"
	"aspen/internal/data"
	"aspen/internal/machines"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/stream"
	"aspen/internal/testproc"
)

// The ref* functions are the building-path lookups as they were before the
// fleet and the mote field kept ordered, indexed state: every answer is
// re-derived from Fleet.Machines() and Net.Nodes(). The scenario test
// requires the indexed lookups to agree with them at every epoch.

func refReading(a *App, n sensornet.Node, kind sensornet.SensorKind) (float64, bool) {
	if !n.HasSensor(kind) {
		return 0, false
	}
	switch kind {
	case sensornet.SensorLight:
		lit := a.RoomLit(n.Room)
		switch {
		case n.Desk == 0 && lit:
			return LuxRoomOpen, true
		case n.Desk == 0:
			return LuxDark, true
		case a.DeskOccupied(n.Room, n.Desk):
			return LuxOccupied, true
		case lit:
			return LuxSeatOpen, true
		}
		return LuxDark, true
	case sensornet.SensorTemperature:
		a.mu.Lock()
		base := a.roomTemp[n.Room]
		a.mu.Unlock()
		if n.Desk == 0 {
			return base, true
		}
		for _, m := range a.Fleet.Machines() {
			if m.Room == n.Room && m.Desk == n.Desk {
				return base + 1 + 30*m.CPU, true
			}
		}
		return base, true
	}
	return 0, false
}

func refFreeMachines(a *App, need string) []FreeMachine {
	var out []FreeMachine
	for _, m := range a.Fleet.Machines() {
		if m.Off || !matches(need, m.Software[0]) {
			continue
		}
		if !a.RoomLit(m.Room) || a.DeskOccupied(m.Room, m.Desk) {
			continue
		}
		out = append(out, FreeMachine{Name: m.Name, Room: m.Room, Desk: m.Desk})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// refReader is the live reader that hears the visitor's badge loudest,
// found reader by reader through Hear.
func refReader(a *App, name string) (sensornet.Node, bool) {
	a.mu.Lock()
	v, ok := a.visitors[name]
	a.mu.Unlock()
	if !ok {
		return sensornet.Node{}, false
	}
	var best sensornet.Detection
	found := false
	for _, n := range a.Net.Nodes() {
		if n.Dead || !n.HasSensor(sensornet.SensorRFID) {
			continue
		}
		for _, det := range a.Beacons.Hear(n.ID) {
			if det.BeaconID != v.BeaconID {
				continue
			}
			if !found || det.RSSI > best.RSSI || (det.RSSI == best.RSSI && det.NodeID < best.NodeID) {
				best, found = det, true
			}
		}
	}
	if !found {
		return sensornet.Node{}, false
	}
	return a.Net.Node(best.NodeID)
}

func refLocate(a *App, name string) (string, bool) {
	n, ok := refReader(a, name)
	if !ok {
		return "", false
	}
	return a.Building.NearestPoint(n.X, n.Y).Name, true
}

// refSightings is what one sampleSightings round should push: a tuple per
// located visitor, in name order.
func refSightings(a *App, names ...string) []string {
	var out []string
	for _, name := range names {
		if n, ok := refReader(a, name); ok {
			at := a.Building.NearestPoint(n.X, n.Y).Name
			out = append(out, fmt.Sprint([]data.Value{data.Str(name), data.Str(at), data.Float(n.X), data.Float(n.Y)}))
		}
	}
	return out
}

func refGuide(a *App, visitor, need string) (*Guidance, bool) {
	at, ok := refLocate(a, visitor)
	frees := refFreeMachines(a, need)
	if !ok || len(frees) == 0 {
		return nil, false
	}
	rooms := make([]string, len(frees))
	byRoom := map[string]FreeMachine{}
	for i, f := range frees {
		rooms[i] = f.Room
		if _, dup := byRoom[f.Room]; !dup {
			byRoom[f.Room] = f
		}
	}
	dest, route, ok := a.Building.Graph().Nearest(at, rooms)
	if !ok {
		return nil, false
	}
	return &Guidance{Machine: byRoom[dest], Route: route}, true
}

// scenarioApp is a mid-sized deployment with the periodic samplers running
// and the two in-network queries deployed, plus a second machine sharing
// desk L101#1 whose name sorts before the workstation's.
func scenarioApp(t *testing.T) *App {
	t.Helper()
	app, err := New(Options{
		Building:       building.GenConfig{Labs: 4, DesksPerLab: 4, HallSpacing: 100, Offices: 2},
		Seed:           7,
		SkipPDUServers: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(app.Close)
	app.Fleet.MustAdd(machines.Machine{Name: "aux-L101-1", Room: "L101", Desk: 1,
		Software: []string{"%fedora%"}})
	app.Start()
	if _, err := app.OccupancyQuery(); err != nil {
		t.Fatal(err)
	}
	if _, err := app.AlarmQuery(30); err != nil {
		t.Fatal(err)
	}
	return app
}

// TestScenarioMatchesLinearScans scripts 50 epochs — people sitting down
// and standing up, labs going dark, rooms heating, a machine powered off,
// two visitors walking the hallway, the reader that hears one of them
// loudest dying and coming back — and requires Reading at every mote,
// FreeMachines, both visitors' LocateVisitor, the sightings pushed and
// Guide to equal the linear-scan references after every epoch.
func TestScenarioMatchesLinearScans(t *testing.T) {
	app := scenarioApp(t)
	visitors := []string{"alice", "bob"}
	for _, v := range visitors {
		app.VisitorArrives(v)
	}
	sightings := stream.NewCollector(app.sightIn.Schema())
	app.sightIn.Subscribe(sightings)
	var halls []building.Point
	for _, p := range app.Building.Points() {
		if strings.HasPrefix(p.Name, "hall") {
			halls = append(halls, p)
		}
	}
	labs := app.Building.Labs()
	rng := rand.New(rand.NewSource(11))
	var dead []int // readers killed and not yet revived
	guided, heated, unlocated, handedOver := 0, 0, 0, 0
	for epoch := 1; epoch <= 50; epoch++ {
		for i := 0; i < 3; i++ {
			lab := labs[rng.Intn(len(labs))]
			d := lab.Desks[rng.Intn(len(lab.Desks))]
			app.SetDeskOccupied(lab.Name, d.Num, rng.Intn(2) == 0)
		}
		if epoch%8 == 0 {
			app.SetRoomLights(labs[rng.Intn(len(labs))].Name, rng.Intn(2) == 0)
		}
		if epoch%10 == 0 {
			app.SetRoomTemp(labs[rng.Intn(len(labs))].Name, 20+10*rng.Float64())
		}
		if epoch == 20 {
			app.Fleet.SetPower("ws-L102-2", false)
		}
		if epoch == 35 {
			app.Fleet.SetPower("ws-L102-2", true)
		}
		// alice stands at a hall's reader; bob stands 40–60 feet past one,
		// where the next reader along may hear him too.
		if err := app.MoveVisitorTo("alice", halls[rng.Intn(len(halls))].Name); err != nil {
			t.Fatal(err)
		}
		h := halls[rng.Intn(len(halls))]
		if err := app.MoveVisitor("bob", h.X+40+20*rng.Float64(), h.Y); err != nil {
			t.Fatal(err)
		}
		switch epoch % 6 {
		case 2, 3: // kill alice's, then bob's, loudest live reader
			v := visitors[epoch%2]
			if n, ok := refReader(app, v); ok {
				app.Net.Kill(n.ID)
				dead = append(dead, n.ID)
				if _, ok := refReader(app, v); ok {
					handedOver++ // the next loudest reader hears them
				}
			}
		case 5:
			for _, id := range dead {
				app.Net.Revive(id)
			}
			dead = dead[:0]
		}
		sightings.Reset()
		now := app.Sched.Now().Add(time.Second)
		app.Sched.RunUntil(now)

		for _, n := range app.Net.Nodes() {
			for _, k := range []sensornet.SensorKind{sensornet.SensorLight, sensornet.SensorTemperature, sensornet.SensorRFID} {
				got, gotOK := app.Reading(n, k, now)
				want, wantOK := refReading(app, n, k)
				if got != want || gotOK != wantOK {
					t.Fatalf("epoch %d: Reading(mote %d %s#%d, %s) = %v (%v), linear scan %v (%v)",
						epoch, n.ID, n.Room, n.Desk, k, got, gotOK, want, wantOK)
				}
				if k == sensornet.SensorTemperature && n.Desk > 0 && got > 24 {
					heated++
				}
			}
		}
		for _, need := range []string{"fedora linux", "windows, word", "vax/vms"} {
			if got, want := app.FreeMachines(need), refFreeMachines(app, need); !reflect.DeepEqual(got, want) {
				t.Fatalf("epoch %d: FreeMachines(%q) = %v, linear scan %v", epoch, need, got, want)
			}
		}
		for _, v := range visitors {
			at, ok := app.LocateVisitor(v)
			if wantAt, wantOK := refLocate(app, v); at != wantAt || ok != wantOK {
				t.Fatalf("epoch %d: LocateVisitor(%s) = %q (%v), per-reader scan %q (%v)", epoch, v, at, ok, wantAt, wantOK)
			}
			if !ok {
				unlocated++
			}
		}
		var got []string
		for _, tp := range sightings.Snapshot() {
			got = append(got, fmt.Sprint(tp.Vals))
		}
		sort.Strings(got)
		if want := refSightings(app, visitors...); !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: sightings %v, per-reader scan %v", epoch, got, want)
		}
		g, err := app.Guide("alice", "fedora linux")
		want, wantOK := refGuide(app, "alice", "fedora linux")
		if (err == nil) != wantOK || (wantOK && !reflect.DeepEqual(g, want)) {
			t.Fatalf("epoch %d: Guide = %+v (%v), reference %+v (%v)", epoch, g, err, want, wantOK)
		}
		if wantOK {
			guided++
		}
	}
	if guided == 0 || heated == 0 || unlocated == 0 || handedOver == 0 {
		t.Fatalf("scenario exercised too little: %d guides, %d warm desk readings, %d visitors unlocated, %d handed to a farther reader",
			guided, heated, unlocated, handedOver)
	}
	// The shared desk reads the lowest-named machine's load.
	app.Fleet.StartJob("aux-L101-1", "marie", "sim", 0.5, 64)
	for _, n := range app.Net.Nodes() {
		if n.Room == "L101" && n.Desk == 1 && n.HasSensor(sensornet.SensorTemperature) {
			got, _ := app.Reading(n, sensornet.SensorTemperature, 0)
			want, _ := refReading(app, n, sensornet.SensorTemperature)
			if got != want || got < app.roomTemp["L101"]+1+30*0.5 {
				t.Fatalf("shared desk reads %v, linear scan %v", got, want)
			}
		}
	}
}

// selectFragment returns the in-network selection the alarm query was
// partitioned into.
func selectFragment(t *testing.T, app *App, threshold float64) *sensor.SelectQuery {
	t.Helper()
	q, err := app.AlarmQuery(threshold)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range q.Partition.Chosen.Fragments {
		if f.Select != nil {
			return f.Select
		}
	}
	t.Fatal("alarm query has no in-network selection")
	return nil
}

// TestSteadyStateEpochHitsRouteMemo asserts the observability contract: once
// warm, an epoch with no topology change answers every route from the memo,
// and a selection epoch allocates no more than the tuples it delivers plus
// a small constant.
func TestSteadyStateEpochHitsRouteMemo(t *testing.T) {
	app := scenarioApp(t)
	for _, lab := range app.Building.Labs() {
		app.SetDeskOccupied(lab.Name, 1, true) // so the occupancy join ships readings
	}
	step := func() {
		app.Sched.RunUntil(app.Sched.Now().Add(time.Second))
	}
	for i := 0; i < 5; i++ {
		step()
	}
	app.Net.ResetMetrics()
	step()
	m := app.Net.Metrics()
	if m.Sent == 0 || m.RouteHits == 0 {
		t.Fatalf("steady-state epoch sent %d messages over %d memoized routes: nothing measured", m.Sent, m.RouteHits)
	}
	if m.RouteMisses != 0 {
		t.Fatalf("steady-state epoch ran the BFS %d times (hits %d)", m.RouteMisses, m.RouteHits)
	}

	eng, now := app.RT.SensorEngine(), app.Sched.Now()
	for _, threshold := range []float64{0, 30} { // every reading delivered; almost none
		q := selectFragment(t, app, threshold)
		sink := func(data.Tuple) {}
		// The first run also warms the routes of motes only this query ships from.
		delivered := eng.RunSelectEpoch(q, now, sink)
		allocs := testing.AllocsPerRun(20, func() { eng.RunSelectEpoch(q, now, sink) })
		if threshold == 0 && delivered < 10 {
			t.Fatalf("threshold 0 delivered %d tuples per epoch", delivered)
		}
		if limit := float64(delivered + 8); allocs > limit {
			t.Fatalf("threshold %v: %.0f allocations per select epoch for %d delivered tuples (limit %.0f)",
				threshold, allocs, delivered, limit)
		}
	}
}

// benchmarkApp is the benchmark's building: 260 machines.
func benchmarkApp(tb testing.TB) *App {
	tb.Helper()
	app, err := New(Options{
		Building:       building.GenConfig{Labs: 32, DesksPerLab: 8, Offices: 16, HallSpacing: 100},
		Seed:           1,
		SkipPDUServers: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(app.Close)
	if app.Fleet.Len() != 260 {
		tb.Fatalf("fleet has %d machines, want 260", app.Fleet.Len())
	}
	return app
}

// guideApp is benchmarkApp with a visitor mid-hallway and the nearest labs
// dark, so a guide's search walks several hallway points before it finds a
// free machine.
func guideApp(tb testing.TB) *App {
	tb.Helper()
	app := benchmarkApp(tb)
	app.VisitorArrives("alice")
	if err := app.MoveVisitorTo("alice", "hall16"); err != nil {
		tb.Fatal(err)
	}
	for lab := 113; lab <= 119; lab++ {
		app.SetRoomLights(fmt.Sprintf("L%d", lab), false)
	}
	return app
}

// TestLocateVisitorAllocs pins a visitor's request: locating the visitor
// allocates nothing, and a guide allocates only its answer — the route's
// points and the Guidance holding them.
func TestLocateVisitorAllocs(t *testing.T) {
	if testproc.Race {
		t.Skip("the race detector drains the search pool at random")
	}
	app := guideApp(t)
	if at, ok := app.LocateVisitor("alice"); !ok || at != "hall16" {
		t.Fatalf("LocateVisitor = %q (%t), want hall16", at, ok)
	}
	if n := testing.AllocsPerRun(100, func() { app.LocateVisitor("alice") }); n != 0 {
		t.Errorf("LocateVisitor allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := app.Guide("alice", "fedora linux"); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Errorf("Guide allocates %v times, want 2", n)
	}
}

// BenchmarkAppReading measures the physical model's temperature reading at
// a desk — the per-sample cost of both in-network fragments — on the
// benchmark's building.
func BenchmarkAppReading(b *testing.B) {
	app := benchmarkApp(b)
	var mote sensornet.Node
	for _, n := range app.Net.Nodes() {
		if n.Room == "L116" && n.Desk == 4 && n.HasSensor(sensornet.SensorTemperature) {
			mote = n
		}
	}
	if mote.Room == "" {
		b.Fatal("no temperature mote at L116#4")
	}
	app.Fleet.StartJob("ws-L116-4", "marie", "sim", 0.5, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v, ok := app.Reading(mote, sensornet.SensorTemperature, 0); !ok || v < 30 {
			b.Fatal("reading", v, ok)
		}
	}
}

// BenchmarkGuide measures one visitor request on the benchmark's building
// (guideApp).
func BenchmarkGuide(b *testing.B) {
	app := guideApp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := app.Guide("alice", "fedora linux"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocateVisitor measures placing a visitor on the benchmark's
// building, seated as the repository benchmark seats it (a quarter of the
// lab desks, every fourth office, one server seat), while the visitor
// walks: every 64 requests they move to a seeded random hall.
func BenchmarkLocateVisitor(b *testing.B) {
	app := benchmarkApp(b)
	offices := 0
	for _, r := range app.Building.Rooms {
		if r.Kind == building.Office {
			offices++
		}
		for k, d := range r.Desks {
			switch r.Kind {
			case building.Office:
				app.SetDeskOccupied(r.Name, d.Num, offices%4 == 0)
			case building.MachineRoom:
				app.SetDeskOccupied(r.Name, d.Num, k == 0)
			default:
				app.SetDeskOccupied(r.Name, d.Num, d.Num%4 == 2)
			}
		}
	}
	app.VisitorArrives("alice")
	var halls []string
	for _, p := range app.Building.Points() {
		if strings.HasPrefix(p.Name, "hall") {
			halls = append(halls, p.Name)
		}
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			if err := app.MoveVisitorTo("alice", halls[rng.Intn(len(halls))]); err != nil {
				b.Fatal(err)
			}
		}
		if _, ok := app.LocateVisitor("alice"); !ok {
			b.Fatal("visitor not located")
		}
	}
}
