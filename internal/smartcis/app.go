// Package smartcis is the showcase application of §2 and §4: it instruments
// the synthetic Moore building with desk and hallway motes, soft sensors on
// machines, PDUs with scraped web interfaces, active RFID badges for
// visitors, and the building databases — all integrated through the ASPEN
// runtime so that room monitoring, machine-state monitoring, workstation
// monitoring, occupant detection and visitor guidance run as StreamSQL
// queries.
package smartcis

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"aspen/internal/building"
	"aspen/internal/core"
	"aspen/internal/data"
	"aspen/internal/machines"
	"aspen/internal/plan"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/stream"
	"aspen/internal/vtime"
	"aspen/internal/wrappers"
)

// Light levels produced by the physical model, in abstract lux.
const (
	LuxDark     = 2.0  // lights off
	LuxOccupied = 4.0  // a person in the chair shades the seat sensor
	LuxSeatOpen = 60.0 // lit room, empty chair
	LuxRoomOpen = 80.0 // area sensor in a lit room
)

// OccupiedLightThreshold discriminates a seated person at a seat sensor.
const OccupiedLightThreshold = 10.0

// OpenRoomLightThreshold discriminates a lit (open) room at an area sensor.
const OpenRoomLightThreshold = 50.0

// sampleEvery is the sensor epoch.
const sampleEvery = time.Second

// Options configures the deployment.
type Options struct {
	Building building.GenConfig
	Seed     int64
	// SkipPDUServers disables the real HTTP PDU endpoints (benchmarks).
	SkipPDUServers bool
	// Topology spreads deployed stream plans over pipeline replicas and
	// shard workers (cmd/shardworker) — the paper's multi-PC deployment;
	// the zero value runs everything serial, in one process.
	plan.Topology
	// SnapshotPath makes the coordinator durable: deployed queries are
	// checkpointed to this file by SaveSnapshot and rehydrated by
	// RestoreSnapshot after a coordinator restart. Empty keeps the
	// coordinator in-memory only.
	SnapshotPath string
}

// App is the running SmartCIS deployment.
type App struct {
	Building *building.Building
	Net      *sensornet.Network
	Beacons  *sensornet.BeaconField
	Fleet    *machines.Fleet
	RT       *core.Runtime
	Sched    *vtime.Scheduler

	pduServers []*machines.PDUServer
	pdus       []*machines.PDU

	// readers maps an RFID reader's node ID to where a sighting by it
	// places a visitor. deployMotes fills it as it places the readers;
	// readers and routing points never move after New, so it is read
	// without a lock.
	readers []readerSpot

	// mu guards the physical state below. Lock order: mu before the
	// routing graph's lock before the Fleet's (Guide), and mu before the
	// Beacons' lock before the Net's (sampleSightings locates every
	// visitor under mu); it is never held across a push into a stream
	// input.
	mu        sync.Mutex
	roomLight map[string]bool         // lights on?
	occupied  map[string]map[int]bool // room -> desk -> seated
	roomTemp  map[string]float64
	visitors  map[string]*Visitor
	deskMote  map[string][2]int // room/desk key -> [tempMote, lightMote]

	sightIn  *stream.Input
	machIn   *stream.Input
	jobsIn   *stream.Input
	stoppers []func()
}

// readerSpot is where a sighting by one RFID reader places a visitor.
type readerSpot struct {
	point string  // the routing point nearest the reader
	x, y  float64 // the reader's position
}

// Visitor is an occupant carrying an active RFID badge.
type Visitor struct {
	Name     string
	BeaconID int
	X, Y     float64
}

// New builds the full deployment: building, mote field, machine fleet,
// PDUs, runtime, catalog sources, tables, and standard views.
func New(opts Options) (*App, error) {
	if opts.Building.Labs == 0 {
		opts.Building = building.DefaultConfig()
	}
	b := building.Generate(opts.Building)

	netCfg := sensornet.DefaultConfig()
	netCfg.Seed = opts.Seed + 1
	nw := sensornet.New(netCfg)

	app := &App{
		Building:  b,
		Net:       nw,
		Fleet:     machines.NewFleet(machines.Config{Seed: opts.Seed + 2, JobArrivalProb: 0.25, JobDepartProb: 0.15}),
		Sched:     vtime.NewScheduler(),
		roomLight: map[string]bool{},
		occupied:  map[string]map[int]bool{},
		roomTemp:  map[string]float64{},
		visitors:  map[string]*Visitor{},
		deskMote:  map[string][2]int{},
	}

	if err := app.deployMotes(); err != nil {
		return nil, err
	}
	app.deployMachines()
	if !opts.SkipPDUServers {
		if err := app.deployPDUs(); err != nil {
			return nil, err
		}
	}

	app.RT = core.New(core.Config{
		Scheduler:    app.Sched,
		SensorEngine: sensor.NewEngine(nw, app),
		TickPeriod:   sampleEvery,
		// Bound recursive route enumeration by the hallway depth; deeper
		// paths only revisit corridors.
		RecursionDepth: len(b.Points()) / 2,
		Topology:       opts.Topology,
		SnapshotPath:   opts.SnapshotPath,
	})
	if err := app.registerSources(); err != nil {
		return nil, err
	}
	return app, nil
}

// deployMotes places the sensor field: base station at the lobby door,
// RFID readers at every hallway point, an area mote per room, and a
// temperature + light mote pair per desk.
func (a *App) deployMotes() error {
	id := 0
	next := func() int { id++; return id - 1 }

	reader := func(p building.Point) int {
		rid := next()
		a.Net.MustAddNode(sensornet.Node{ID: rid, X: p.X, Y: p.Y, Room: p.Name,
			Sensors: []sensornet.SensorKind{sensornet.SensorRFID}})
		if grow := rid + 1 - len(a.readers); grow > 0 {
			a.readers = append(a.readers, make([]readerSpot, grow)...)
		}
		a.readers[rid] = readerSpot{point: a.Building.NearestPoint(p.X, p.Y).Name, x: p.X, y: p.Y}
		return rid
	}

	// The base station doubles as the lobby's RFID reader, so arriving
	// visitors are detected immediately.
	lobby, _ := a.Building.Point("lobby")
	if err := a.Net.SetBase(reader(lobby)); err != nil {
		return err
	}
	for _, p := range a.Building.Points() {
		if strings.HasPrefix(p.Name, "hall") {
			reader(p)
		}
	}
	for _, r := range a.Building.Rooms {
		if r.Kind == building.Lobby {
			continue
		}
		cx, cy := r.Center()
		a.Net.MustAddNode(sensornet.Node{
			ID: next(), X: cx, Y: cy, Room: r.Name,
			Sensors: []sensornet.SensorKind{sensornet.SensorLight, sensornet.SensorTemperature},
		})
		for _, d := range r.Desks {
			tm := next()
			a.Net.MustAddNode(sensornet.Node{
				ID: tm, X: d.X, Y: d.Y, Room: r.Name, Desk: d.Num,
				Sensors: []sensornet.SensorKind{sensornet.SensorTemperature},
			})
			lm := next()
			a.Net.MustAddNode(sensornet.Node{
				ID: lm, X: d.X + 2, Y: d.Y + 2, Room: r.Name, Desk: d.Num,
				Sensors: []sensornet.SensorKind{sensornet.SensorLight},
			})
			a.deskMote[deskKey(r.Name, d.Num)] = [2]int{tm, lm}
		}
		a.roomLight[r.Name] = true // building opens with every room lit
		a.roomTemp[r.Name] = 21
		a.occupied[r.Name] = map[int]bool{}
	}
	a.Net.BuildTree()
	a.Beacons = sensornet.NewBeaconField(a.Net, 60)

	// Device catalog: positions of every mote (motes have no built-in
	// positioning; the database supplies coordinates, §2).
	return nil
}

func deskKey(room string, desk int) string { return fmt.Sprintf("%s#%d", room, desk) }

// deployMachines fills labs with workstations, one per desk, and the
// machine room with servers.
func (a *App) deployMachines() {
	softwareSets := [][]string{
		{"%fedora%", "fedora linux, gcc, emacs"},
		{"%windows%word%", "windows, word, excel"},
		{"%fedora%matlab%", "fedora linux, matlab"},
		{"%ubuntu%", "ubuntu linux, python"},
	}
	i := 0
	for _, lab := range a.Building.Labs() {
		for d := range lab.Desks {
			sw := softwareSets[i%len(softwareSets)]
			a.Fleet.MustAdd(machines.Machine{
				Name: fmt.Sprintf("ws-%s-%d", lab.Name, d+1),
				Kind: machines.Workstation,
				Room: lab.Name, Desk: d + 1,
				Software: []string{sw[0]},
			})
			i++
		}
	}
	for s := 1; s <= 4; s++ {
		a.Fleet.MustAdd(machines.Machine{
			Name: fmt.Sprintf("srv-%d", s),
			Kind: machines.Server,
			Room: "MR1", Desk: s,
			Software: []string{"%debian%apache%"},
		})
	}
}

// deployPDUs plugs every machine into per-room PDUs with live HTTP
// interfaces.
func (a *App) deployPDUs() error {
	byRoom := map[string][]machines.Machine{}
	for _, m := range a.Fleet.Machines() {
		byRoom[m.Room] = append(byRoom[m.Room], m)
	}
	rooms := make([]string, 0, len(byRoom))
	for r := range byRoom {
		rooms = append(rooms, r)
	}
	sort.Strings(rooms)
	for _, room := range rooms {
		pdu := machines.NewPDU("pdu-"+room, a.Fleet)
		for i, m := range byRoom[room] {
			if err := pdu.Plug(i+1, m.Name); err != nil {
				return err
			}
		}
		srv, err := pdu.Serve("127.0.0.1:0")
		if err != nil {
			return err
		}
		a.pdus = append(a.pdus, pdu)
		a.pduServers = append(a.pduServers, srv)
	}
	return nil
}

// registerSources declares every source in the catalog and the engine and
// creates the standard views.
func (a *App) registerSources() error {
	rate := 1.0 / sampleEvery.Seconds()
	nodes := float64(a.Net.Len())
	if err := a.RT.RegisterSensorStream("Temperature", sensornet.SensorTemperature, nodes*rate/2); err != nil {
		return err
	}
	if err := a.RT.RegisterSensorStream("Light", sensornet.SensorLight, nodes*rate/2); err != nil {
		return err
	}

	sight := data.NewSchema("Sightings",
		data.Col("person", data.TString), data.Col("point", data.TString),
		data.Col("x", data.TFloat), data.Col("y", data.TFloat))
	sight.IsStream = true
	sin, err := a.RT.RegisterStream("Sightings", sight, 2)
	if err != nil {
		return err
	}
	a.sightIn = sin

	min, err := a.RT.RegisterStream("MachineState", wrappers.MachineStateSchema("MachineState"),
		float64(a.Fleet.Len())*rate)
	if err != nil {
		return err
	}
	a.machIn = min

	jobs := data.NewSchema("Jobs",
		data.Col("machine", data.TString), data.Col("room", data.TString),
		data.Col("usr", data.TString), data.Col("job", data.TString),
		data.Col("cpu", data.TFloat), data.Col("mem", data.TFloat))
	jobs.IsStream = true
	jin, err := a.RT.RegisterStream("Jobs", jobs, 20)
	if err != nil {
		return err
	}
	a.jobsIn = jin

	if _, err := a.RT.RegisterStream("Power", wrappers.PowerSchema("Power"),
		float64(a.Fleet.Len())/10); err != nil {
		return err
	}

	// Tables: machine placement/software and the routing points.
	machT := data.NewSchema("Machines",
		data.Col("name", data.TString), data.Col("room", data.TString),
		data.Col("desk", data.TInt), data.Col("software", data.TString))
	machRel := data.NewRelation(machT)
	for _, m := range a.Fleet.Machines() {
		machRel.MustInsert(data.Str(m.Name), data.Str(m.Room),
			data.Int(int64(m.Desk)), data.Str(m.Software[0]))
	}
	if err := a.RT.RegisterTable("Machines", machRel); err != nil {
		return err
	}

	routeT := data.NewSchema("RoutingPoints",
		data.Col("src", data.TString), data.Col("dst", data.TString), data.Col("dist", data.TFloat))
	routeRel := data.NewRelation(routeT)
	for _, e := range a.Building.RoutingEdges() {
		routeRel.MustInsert(data.Str(e.From), data.Str(e.To), data.Float(e.Dist))
	}
	if err := a.RT.RegisterTable("RoutingPoints", routeRel); err != nil {
		return err
	}

	// Standard views: the paper's AreaSensors / SeatSensors over the raw
	// streams ('open' and 'free' become light-level thresholds).
	// The 2-second windows keep the views live: a reading that is not
	// refreshed on the next sensing epoch expires, so closing a lab or
	// sitting down retracts matching rows.
	if _, err := a.RT.Run(fmt.Sprintf(`CREATE VIEW AreaSensors AS (
		SELECT l.room AS room, l.value AS light FROM Light l [RANGE 2 SECONDS]
		WHERE l.desk = 0 AND l.value > %v)`,
		OpenRoomLightThreshold)); err != nil {
		return err
	}
	if _, err := a.RT.Run(fmt.Sprintf(`CREATE VIEW SeatSensors AS (
		SELECT s.room AS room, s.desk AS desk, s.value AS light FROM Light s [RANGE 2 SECONDS]
		WHERE s.desk > 0 AND s.value > %v)`, OccupiedLightThreshold)); err != nil {
		return err
	}
	return nil
}

// Reading implements sensor.Env: the physical model.
func (a *App) Reading(n sensornet.Node, kind sensornet.SensorKind, _ vtime.Time) (float64, bool) {
	if !n.HasSensor(kind) {
		return 0, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	switch kind {
	case sensornet.SensorLight:
		lit := a.roomLight[n.Room]
		if n.Desk == 0 {
			if lit {
				return LuxRoomOpen, true
			}
			return LuxDark, true
		}
		if a.occupied[n.Room][n.Desk] {
			return LuxOccupied, true
		}
		if lit {
			return LuxSeatOpen, true
		}
		return LuxDark, true

	case sensornet.SensorTemperature:
		base := a.roomTemp[n.Room]
		if n.Desk == 0 {
			return base, true
		}
		// machine heat follows CPU load at that desk
		var cpu float64
		if a.Fleet.ViewAt(n.Room, n.Desk, func(m *machines.Machine) { cpu = m.CPU }) {
			return base + 1 + 30*cpu, true
		}
		return base, true
	}
	return 0, false
}

// Rescale live-migrates every deployed sharded query onto a new worker
// topology: workers that joined take shards, leaving workers hand theirs
// back, and failover-stranded shards heal back out. Future deployments
// use the new topology too.
func (a *App) Rescale(nodes []string) error { return a.RT.Rescale(nodes) }

// SaveSnapshot checkpoints every standing query to Options.SnapshotPath
// at one consistency point (see core.Runtime.SaveSnapshot). The returned
// names are queries the snapshot could not capture — warn the operator.
func (a *App) SaveSnapshot() ([]string, error) { return a.RT.SaveSnapshot() }

// RestoreSnapshot rehydrates the standing queries recorded in
// Options.SnapshotPath onto this (fresh) deployment's runtime, shared
// window state and sensor fragment deployments included. The returned
// names are queries the snapshot recorded as skipped at save time; they
// must be re-run.
func (a *App) RestoreSnapshot() ([]*core.Query, []string, error) { return a.RT.RestoreSnapshot() }

// Close shuts down PDU servers and periodic work.
func (a *App) Close() {
	for _, stop := range a.stoppers {
		stop()
	}
	a.stoppers = nil
	for _, s := range a.pduServers {
		s.Close()
	}
	a.pduServers = nil
	a.RT.Close()
}
