package smartcis

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"aspen/internal/core"
	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/machines"
	"aspen/internal/routing"
	"aspen/internal/sensornet"
	"aspen/internal/wrappers"
)

// This file is SmartCIS's control logic tier (§2): the state transitions
// (lights, seats, visitor badges), the periodic samplers that feed the
// wrapper streams, and the high-level operations the GUI invokes.

// Start begins periodic work: machine soft sensors, per-job sampling, PDU
// scraping, RFID localization, and the synthetic machine workload.
func (a *App) Start() {
	mw := &wrappers.MachineWrapper{
		Fleet: a.Fleet, Input: a.machIn, Period: time.Second, StepWorkload: true,
	}
	a.stoppers = append(a.stoppers,
		mw.Start(a.Sched),
		a.Sched.Every(time.Second, func() { a.sampleJobs() }),
		a.Sched.Every(time.Second, func() { a.sampleSightings() }))

	for i, srv := range a.pduServers {
		in, ok := a.RT.Stream.Input("Power")
		if !ok {
			continue
		}
		w := wrappers.NewPDUWrapper(a.pdus[i].Name, srv.URL(), in)
		a.stoppers = append(a.stoppers, w.Start(a.Sched))
	}
}

// SampleJobsNow emits one job-sample round immediately; experiment
// drivers use it for deterministic sampling outside the periodic wrapper.
func (a *App) SampleJobsNow() { a.sampleJobs() }

// sampleJobs emits one tuple per running job, one sample round as one
// batch.
func (a *App) sampleJobs() {
	now := a.Sched.Now()
	var batch []data.Tuple
	a.Fleet.Each(func(m *machines.Machine) bool {
		for _, j := range m.Jobs {
			batch = append(batch, data.NewTuple(now,
				data.Str(m.Name), data.Str(m.Room), data.Str(j.User),
				data.Str(j.Name), data.Float(j.CPUShare), data.Float(j.MemMB)))
		}
		return true
	})
	a.jobsIn.PushBatch(batch)
}

// sampleSightings localizes every badge and emits sighting tuples, in
// visitor-name order, so the Sightings stream's tuple order is the same on
// every run.
func (a *App) sampleSightings() {
	now := a.Sched.Now()
	var batch []data.Tuple
	a.mu.Lock()
	for _, name := range slices.Sorted(maps.Keys(a.visitors)) {
		v := a.visitors[name]
		at, ok := a.locate(v)
		if !ok {
			continue
		}
		batch = append(batch, data.NewTuple(now,
			data.Str(v.Name), data.Str(at.point), data.Float(at.x), data.Float(at.y)))
	}
	a.mu.Unlock()
	a.sightIn.PushBatch(batch)
}

// SetRoomLights switches a room's lights (area sensors see it next epoch).
func (a *App) SetRoomLights(room string, on bool) {
	a.mu.Lock()
	a.roomLight[room] = on
	a.mu.Unlock()
}

// RoomLit reports a room's light state.
func (a *App) RoomLit(room string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.roomLight[room]
}

// SetDeskOccupied seats (or unseats) a person at a desk.
func (a *App) SetDeskOccupied(room string, desk int, occ bool) {
	a.mu.Lock()
	if a.occupied[room] == nil {
		a.occupied[room] = map[int]bool{}
	}
	a.occupied[room][desk] = occ
	a.mu.Unlock()
}

// DeskOccupied reports whether a desk is occupied.
func (a *App) DeskOccupied(room string, desk int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.occupied[room][desk]
}

// SetRoomTemp adjusts a room's ambient temperature (failure scenarios).
func (a *App) SetRoomTemp(room string, deg float64) {
	a.mu.Lock()
	a.roomTemp[room] = deg
	a.mu.Unlock()
}

// VisitorArrives registers a badge-carrying visitor at the lobby.
func (a *App) VisitorArrives(name string) *Visitor {
	a.mu.Lock()
	defer a.mu.Unlock()
	lobby, _ := a.Building.Point("lobby")
	v := &Visitor{Name: name, BeaconID: 1000 + len(a.visitors), X: lobby.X, Y: lobby.Y}
	a.visitors[name] = v
	a.Beacons.Place(sensornet.Beacon{ID: v.BeaconID, Owner: v.Name, X: v.X, Y: v.Y})
	return v
}

// MoveVisitor repositions a visitor's badge.
func (a *App) MoveVisitor(name string, x, y float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	v, ok := a.visitors[name]
	if !ok {
		return fmt.Errorf("smartcis: unknown visitor %q", name)
	}
	v.X, v.Y = x, y
	a.Beacons.Move(v.BeaconID, x, y)
	return nil
}

// MoveVisitorTo walks the visitor to a named routing point.
func (a *App) MoveVisitorTo(name, point string) error {
	p, ok := a.Building.Point(point)
	if !ok {
		return fmt.Errorf("smartcis: unknown point %q", point)
	}
	return a.MoveVisitor(name, p.X, p.Y)
}

// LocateVisitor returns the building's position estimate (strongest RFID
// reader snapped to the nearest routing point).
func (a *App) LocateVisitor(name string) (string, bool) {
	a.mu.Lock()
	v, ok := a.visitors[name]
	a.mu.Unlock()
	if !ok {
		return "", false
	}
	at, ok := a.locate(v)
	return at.point, ok
}

// locate places a visitor at the reader that hears their badge loudest.
// A visitor's badge ID never changes, so a.mu need not be held.
func (a *App) locate(v *Visitor) (readerSpot, bool) {
	det, ok := a.Beacons.Locate(v.BeaconID)
	if !ok {
		return readerSpot{}, false
	}
	return a.readers[det.NodeID], true
}

// FreeMachine describes an available machine offered to a visitor.
type FreeMachine struct {
	Name string
	Room string
	Desk int
}

// FreeMachines lists machines matching the capability pattern whose room is
// lit and whose seat is unoccupied — the ground truth the continuous
// queries should agree with.
func (a *App) FreeMachines(need string) []FreeMachine {
	var out []FreeMachine
	a.mu.Lock()
	defer a.mu.Unlock()
	a.Fleet.Each(func(m *machines.Machine) bool { // name order
		if a.freeLocked(m, need) {
			out = append(out, FreeMachine{Name: m.Name, Room: m.Room, Desk: m.Desk})
		}
		return true
	})
	return out
}

// freeLocked is the one rule for offering a machine to a visitor: it is
// powered, its capability pattern matches need, its room is lit and its
// seat is unoccupied. a.mu is held.
func (a *App) freeLocked(m *machines.Machine, need string) bool {
	return !m.Off && matches(need, m.Software[0]) && a.roomLight[m.Room] && !a.occupied[m.Room][m.Desk]
}

// Guidance is a route to a recommended machine.
type Guidance struct {
	Machine FreeMachine
	Route   routing.Route
}

// Guide locates the visitor and routes them to the nearest free machine
// with the needed capability (§4's demo flow). The search goes outward from
// the visitor and stops at the nearest rooms with a free machine; among
// equally near rooms, the one holding the lowest-named free machine wins,
// and that machine is offered.
func (a *App) Guide(visitor, need string) (*Guidance, error) {
	at, ok := a.LocateVisitor(visitor)
	if !ok {
		return nil, fmt.Errorf("smartcis: cannot locate %q (no reader hears the badge)", visitor)
	}
	var best FreeMachine
	found := false
	a.mu.Lock()
	_, route, ok := a.Building.Graph().NearestWhere(at, func(room string) bool {
		better := false
		a.Fleet.EachInRoom(room, func(m *machines.Machine) bool {
			if (!found || m.Name < best.Name) && a.freeLocked(m, need) {
				best, found, better = FreeMachine{Name: m.Name, Room: m.Room, Desk: m.Desk}, true, true
			}
			return true
		})
		return better
	})
	a.mu.Unlock()
	if ok {
		return &Guidance{Machine: best, Route: route}, nil
	}
	frees := a.FreeMachines(need)
	if len(frees) == 0 {
		return nil, fmt.Errorf("smartcis: no free machine matches %q", need)
	}
	rooms := make([]string, len(frees))
	for i, f := range frees {
		rooms[i] = f.Room
	}
	return nil, fmt.Errorf("smartcis: no route from %s to any of %v", at, rooms)
}

func matches(need, pattern string) bool {
	// need is matched against the machine's capability pattern, the
	// paper's "p.needed like m.software".
	return expr.Like(need, pattern)
}

// --- standard continuous queries ----------------------------------------

// OccupancyQuery deploys the paper's workstation-monitoring query: machine
// temperatures for desks whose chair light is dark, joined in-network.
func (a *App) OccupancyQuery() (*core.Query, error) {
	return a.RT.Run(fmt.Sprintf(`SELECT t.room, t.desk, t.value
		FROM Temperature t [RANGE 2 SECONDS], Light l
		WHERE t.room = l.room AND t.desk = l.desk AND t.desk > 0 AND l.value < %v`,
		OccupiedLightThreshold))
}

// AlarmQuery deploys temperature alarms: any machine mote above the
// threshold, routed to the alarms display.
func (a *App) AlarmQuery(threshold float64) (*core.Query, error) {
	return a.RT.Run(fmt.Sprintf(`SELECT t.room, t.desk, t.value FROM Temperature t [RANGE 2 SECONDS]
		WHERE t.value > %v OUTPUT TO alarms`, threshold))
}

// EnergyByRoom aggregates PDU power per room: each scraped power reading
// (10 s period) joins the machine's latest soft-sensor sample (1 s period)
// to learn its room.
func (a *App) EnergyByRoom() (*core.Query, error) {
	return a.RT.Run(`SELECT ms.room, sum(p.watts) AS watts
		FROM Power p [RANGE 10 SECONDS], MachineState ms [RANGE 1 SECONDS]
		WHERE p.machine = ms.machine GROUP BY ms.room`)
}

// ResourcesByUser totals CPU share per user across all machines (§2: "total
// resources used ... by any user or application, even across machines").
func (a *App) ResourcesByUser() (*core.Query, error) {
	return a.RT.Run(`SELECT j.usr, sum(j.cpu) AS cpu, sum(j.mem) AS mem
		FROM Jobs j [RANGE 1 SECONDS] GROUP BY j.usr`)
}

// RouteView maintains all-pairs bounded routes declaratively through the
// recursive view machinery, the stream-engine path of §3.
func (a *App) RouteView() (*core.Query, error) {
	return a.RT.Run(`WITH RECURSIVE paths(src, dst, dist) AS (
		SELECT r.src, r.dst, r.dist FROM RoutingPoints r
		UNION ALL
		SELECT p.src, r.dst, p.dist + r.dist FROM paths p, RoutingPoints r
		WHERE p.dst = r.src AND p.src <> r.dst
	) SELECT src, dst, dist FROM paths`)
}
