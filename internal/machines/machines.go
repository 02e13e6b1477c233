// Package machines simulates the servers and workstations SmartCIS
// monitors (§2 "Machine-state monitoring" / "Workstation monitoring"): a
// fleet of machines with software inventories, synthetic job workloads
// driving CPU/memory, and power draw that follows utilization. Machines are
// plugged into PDUs (power distribution units) whose web interface is a
// real net/http server, so the wrapper layer exercises an honest
// out-of-process scrape path.
package machines

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"

	"aspen/internal/vtime"
)

// Kind classifies machines.
type Kind uint8

// Machine kinds.
const (
	Workstation Kind = iota
	Server
)

// String names the kind.
func (k Kind) String() string {
	if k == Server {
		return "server"
	}
	return "workstation"
}

// Job is one running process on a machine.
type Job struct {
	ID       int
	User     string
	Name     string
	CPUShare float64 // fraction of one core
	MemMB    float64
}

// Machine is one simulated host.
type Machine struct {
	Name     string
	Kind     Kind
	Room     string
	Desk     int
	Software []string // installed packages, matched by LIKE queries

	// Dynamic state (guarded by the fleet lock).
	Jobs     []Job
	CPU      float64 // utilization 0..1
	MemMB    float64
	Requests float64 // web-server requests/second (servers only)
	Off      bool
}

// HasSoftware reports whether the machine's inventory contains the package
// (case-insensitive substring, mirroring the paper's LIKE matching).
func (m *Machine) HasSoftware(pkg string) bool {
	p := strings.ToLower(pkg)
	for _, s := range m.Software {
		if strings.Contains(strings.ToLower(s), p) {
			return true
		}
	}
	return false
}

// Users returns the distinct users with jobs on the machine, sorted.
func (m *Machine) Users() []string {
	set := map[string]bool{}
	for _, j := range m.Jobs {
		set[j.User] = true
	}
	out := make([]string, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// PowerW returns the instantaneous power draw in watts: idle floor plus a
// utilization-proportional component (servers run hotter).
func (m *Machine) PowerW() float64 {
	if m.Off {
		return 2 // vampire draw
	}
	idle, span := 60.0, 120.0
	if m.Kind == Server {
		idle, span = 120.0, 230.0
	}
	return idle + span*m.CPU
}

// Config parameterizes the workload simulator.
type Config struct {
	Seed int64
	// JobArrivalProb is the per-step probability a new job starts on each
	// powered machine.
	JobArrivalProb float64
	// JobDepartProb is the per-step probability each running job exits.
	JobDepartProb float64
	// Users is the synthetic user population.
	Users []string
}

// DefaultConfig returns the standard workload mix.
func DefaultConfig() Config {
	return Config{
		Seed:           7,
		JobArrivalProb: 0.3,
		JobDepartProb:  0.15,
		Users:          []string{"mengmeng", "svilen", "zhuowei", "marie", "zives", "boonloo"},
	}
}

// Fleet is the set of simulated machines. All methods are safe for
// concurrent use.
//
// Ordering invariant: byName holds every machine in ascending name order
// and byDesk holds the same machines ordered by (room, desk, name), both
// maintained at Add, so Machines, Each and Step enumerate by name without
// sorting and the first byDesk entry of a desk is its lowest-named machine.
type Fleet struct {
	mu      sync.Mutex
	cfg     Config
	rng     *rand.Rand
	byName  []*Machine
	byDesk  []*Machine
	nextJob int
}

// NewFleet creates an empty fleet.
func NewFleet(cfg Config) *Fleet {
	if len(cfg.Users) == 0 {
		cfg.Users = DefaultConfig().Users
	}
	return &Fleet{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
	}
}

// deskOrder compares a machine with a (room, desk, name) position.
func deskOrder(m *Machine, room string, desk int, name string) int {
	if c := strings.Compare(m.Room, room); c != 0 {
		return c
	}
	if c := cmp.Compare(m.Desk, desk); c != 0 {
		return c
	}
	return strings.Compare(m.Name, name)
}

// searchLocked returns where in byName the name is or would be inserted.
func (f *Fleet) searchLocked(name string) (int, bool) {
	return slices.BinarySearchFunc(f.byName, name, func(m *Machine, name string) int {
		return strings.Compare(m.Name, name)
	})
}

// findLocked returns the machine with the given name, or nil.
func (f *Fleet) findLocked(name string) *Machine {
	i, ok := f.searchLocked(name)
	if !ok {
		return nil
	}
	return f.byName[i]
}

// Add registers a machine; names must be unique.
func (f *Fleet) Add(m Machine) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	i, dup := f.searchLocked(m.Name)
	if dup {
		return fmt.Errorf("machines: duplicate machine %q", m.Name)
	}
	cp := m
	f.byName = slices.Insert(f.byName, i, &cp)
	j, _ := slices.BinarySearchFunc(f.byDesk, &cp, func(o, cp *Machine) int {
		return deskOrder(o, cp.Room, cp.Desk, cp.Name)
	})
	f.byDesk = slices.Insert(f.byDesk, j, &cp)
	return nil
}

// MustAdd registers a machine, panicking on error.
func (f *Fleet) MustAdd(m Machine) {
	if err := f.Add(m); err != nil {
		panic(err)
	}
}

// Get returns a copy of a machine's current state.
func (f *Fleet) Get(name string) (Machine, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.findLocked(name)
	if m == nil {
		return Machine{}, false
	}
	return f.copyLocked(m), true
}

func (f *Fleet) copyLocked(m *Machine) Machine {
	cp := *m
	cp.Jobs = append([]Job(nil), m.Jobs...)
	cp.Software = append([]string(nil), m.Software...)
	return cp
}

// Len returns the number of machines.
func (f *Fleet) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.byName)
}

// Machines returns copies of all machines sorted by name.
func (f *Fleet) Machines() []Machine {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Machine, len(f.byName))
	for i, m := range f.byName {
		out[i] = f.copyLocked(m)
	}
	return out
}

// Each calls fn with every machine in name order until fn returns false,
// without the copies Machines makes. fn runs under the fleet lock: it must
// not modify or keep m (or its slices) and must not call back into the
// fleet.
func (f *Fleet) Each(fn func(m *Machine) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range f.byName {
		if !fn(m) {
			return
		}
	}
}

// ViewAt calls fn, under the same rules as Each, with the machine at the
// given desk — the lowest-named one if several share it — and reports
// whether there is one.
func (f *Fleet) ViewAt(room string, desk int, fn func(m *Machine)) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	i, _ := slices.BinarySearchFunc(f.byDesk, room, func(m *Machine, room string) int {
		return deskOrder(m, room, desk, "")
	})
	if i == len(f.byDesk) || f.byDesk[i].Room != room || f.byDesk[i].Desk != desk {
		return false
	}
	fn(f.byDesk[i])
	return true
}

// EachInRoom calls fn, under the same rules as Each, with every machine in
// the room in (desk, name) order until fn returns false.
func (f *Fleet) EachInRoom(room string, fn func(m *Machine) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i, _ := slices.BinarySearchFunc(f.byDesk, room, func(m *Machine, room string) int {
		return strings.Compare(m.Room, room)
	})
	for ; i < len(f.byDesk) && f.byDesk[i].Room == room; i++ {
		if !fn(f.byDesk[i]) {
			return
		}
	}
}

// SetPower powers a machine on or off; jobs are killed on power-off.
func (f *Fleet) SetPower(name string, on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m := f.findLocked(name); m != nil {
		m.Off = !on
		if m.Off {
			m.Jobs, m.CPU, m.MemMB, m.Requests = nil, 0, 0, 0
		}
	}
}

// StartJob launches a job explicitly (SmartCIS scenarios script workloads
// this way). It returns the job ID, or -1 for unknown or powered-off hosts.
func (f *Fleet) StartJob(machine, user, name string, cpuShare, memMB float64) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.findLocked(machine)
	if m == nil || m.Off {
		return -1
	}
	f.nextJob++
	m.Jobs = append(m.Jobs, Job{ID: f.nextJob, User: user, Name: name,
		CPUShare: cpuShare, MemMB: memMB})
	f.recomputeLocked(m)
	return f.nextJob
}

// KillJob terminates a job by ID; reports whether it existed.
func (f *Fleet) KillJob(machine string, id int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.findLocked(machine)
	if m == nil {
		return false
	}
	for i, j := range m.Jobs {
		if j.ID == id {
			m.Jobs = append(m.Jobs[:i], m.Jobs[i+1:]...)
			f.recomputeLocked(m)
			return true
		}
	}
	return false
}

// Step advances the synthetic workload one tick: jobs arrive and depart
// randomly, and utilization follows.
func (f *Fleet) Step(vtime.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, m := range f.byName { // name order: deterministic RNG consumption
		if m.Off {
			continue
		}
		// departures
		kept := m.Jobs[:0]
		for _, j := range m.Jobs {
			if f.rng.Float64() >= f.cfg.JobDepartProb {
				kept = append(kept, j)
			}
		}
		m.Jobs = kept
		// arrivals
		if f.rng.Float64() < f.cfg.JobArrivalProb {
			f.nextJob++
			user := f.cfg.Users[f.rng.Intn(len(f.cfg.Users))]
			m.Jobs = append(m.Jobs, Job{
				ID: f.nextJob, User: user,
				Name:     fmt.Sprintf("job%d", f.nextJob),
				CPUShare: 0.05 + 0.4*f.rng.Float64(),
				MemMB:    64 + 448*f.rng.Float64(),
			})
		}
		if m.Kind == Server {
			m.Requests = 20 + 180*f.rng.Float64()
		}
		f.recomputeLocked(m)
	}
}

func (f *Fleet) recomputeLocked(m *Machine) {
	cpu, mem := 0.0, 0.0
	for _, j := range m.Jobs {
		cpu += j.CPUShare
		mem += j.MemMB
	}
	if cpu > 1 {
		cpu = 1
	}
	m.CPU, m.MemMB = cpu, mem
}

// Free reports whether a machine is idle enough to offer to a visitor:
// powered on with no interactive jobs.
func (f *Fleet) Free(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	m := f.findLocked(name)
	return m != nil && !m.Off && len(m.Jobs) == 0
}
