package machines

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func testFleet() *Fleet {
	f := NewFleet(DefaultConfig())
	f.MustAdd(Machine{Name: "ws1", Kind: Workstation, Room: "L101", Desk: 1,
		Software: []string{"Fedora Linux", "emacs", "gcc"}})
	f.MustAdd(Machine{Name: "ws2", Kind: Workstation, Room: "L101", Desk: 2,
		Software: []string{"Windows", "Word"}})
	f.MustAdd(Machine{Name: "srv1", Kind: Server, Room: "MR1", Desk: 1,
		Software: []string{"Debian", "apache"}})
	return f
}

func TestFleetBasics(t *testing.T) {
	f := testFleet()
	if err := f.Add(Machine{Name: "ws1"}); err == nil {
		t.Fatal("duplicate accepted")
	}
	ms := f.Machines()
	if len(ms) != 3 || ms[0].Name != "srv1" {
		t.Fatalf("machines = %v", ms)
	}
	if _, ok := f.Get("nope"); ok {
		t.Fatal("phantom machine")
	}
	m, _ := f.Get("ws1")
	if !m.HasSoftware("fedora") || !m.HasSoftware("EMACS") || m.HasSoftware("word") {
		t.Fatal("software matching")
	}
}

func TestJobsAndUtilization(t *testing.T) {
	f := testFleet()
	id := f.StartJob("ws1", "marie", "simulation", 0.5, 256)
	if id < 0 {
		t.Fatal("job rejected")
	}
	id2 := f.StartJob("ws1", "zives", "editor", 0.7, 128)
	m, _ := f.Get("ws1")
	if m.CPU != 1 { // capped at 1.0
		t.Fatalf("cpu = %v", m.CPU)
	}
	if m.MemMB != 384 {
		t.Fatalf("mem = %v", m.MemMB)
	}
	users := m.Users()
	if len(users) != 2 || users[0] != "marie" {
		t.Fatalf("users = %v", users)
	}
	if !f.KillJob("ws1", id) {
		t.Fatal("kill failed")
	}
	m, _ = f.Get("ws1")
	if m.CPU != 0.7 || len(m.Jobs) != 1 || m.Jobs[0].ID != id2 {
		t.Fatalf("after kill: %+v", m)
	}
	if f.KillJob("ws1", 9999) || f.KillJob("nope", 1) {
		t.Fatal("phantom kill succeeded")
	}
	if f.Free("ws1") {
		t.Fatal("busy machine reported free")
	}
	if !f.Free("ws2") {
		t.Fatal("idle machine reported busy")
	}
	if f.Free("nope") {
		t.Fatal("phantom machine free")
	}
}

func TestPowerModel(t *testing.T) {
	f := testFleet()
	ws, _ := f.Get("ws1")
	idleW := ws.PowerW()
	if idleW != 60 {
		t.Fatalf("idle watts = %v", idleW)
	}
	f.StartJob("ws1", "u", "busy", 1.0, 100)
	ws, _ = f.Get("ws1")
	if ws.PowerW() != 180 {
		t.Fatalf("busy watts = %v", ws.PowerW())
	}
	srv, _ := f.Get("srv1")
	if srv.PowerW() != 120 {
		t.Fatalf("server idle watts = %v", srv.PowerW())
	}
	f.SetPower("ws1", false)
	ws, _ = f.Get("ws1")
	if ws.PowerW() != 2 || len(ws.Jobs) != 0 {
		t.Fatalf("off state = %+v", ws)
	}
	// jobs rejected while off
	if f.StartJob("ws1", "u", "x", 0.1, 10) != -1 {
		t.Fatal("job started on powered-off machine")
	}
	f.SetPower("ws1", true)
	if f.StartJob("ws1", "u", "x", 0.1, 10) < 0 {
		t.Fatal("job rejected after power-on")
	}
	f.SetPower("nope", false) // no-op
}

func TestStepEvolvesWorkload(t *testing.T) {
	f := testFleet()
	f.SetPower("ws2", false)
	sawJob := false
	for i := 0; i < 50; i++ {
		f.Step(0)
		for _, m := range f.Machines() {
			if m.Name == "ws2" && (len(m.Jobs) != 0 || m.CPU != 0) {
				t.Fatal("powered-off machine got work")
			}
			if m.Name == "ws1" && len(m.Jobs) > 0 {
				sawJob = true
				if m.CPU <= 0 || m.CPU > 1 {
					t.Fatalf("cpu out of range: %v", m.CPU)
				}
			}
			if m.Kind == Server && !m.Off && m.Requests == 0 {
				t.Fatal("server request rate never set")
			}
		}
	}
	if !sawJob {
		t.Fatal("no jobs ever arrived in 50 steps")
	}
}

func TestStepDeterministic(t *testing.T) {
	a, b := testFleet(), testFleet()
	for i := 0; i < 20; i++ {
		a.Step(0)
		b.Step(0)
	}
	am, bm := a.Machines(), b.Machines()
	for i := range am {
		if am[i].CPU != bm[i].CPU || len(am[i].Jobs) != len(bm[i].Jobs) {
			t.Fatalf("divergence on %s: %v vs %v", am[i].Name, am[i], bm[i])
		}
	}
}

func TestGetReturnsCopies(t *testing.T) {
	f := testFleet()
	f.StartJob("ws1", "u", "j", 0.1, 10)
	m, _ := f.Get("ws1")
	m.Jobs[0].User = "intruder"
	m2, _ := f.Get("ws1")
	if m2.Jobs[0].User != "u" {
		t.Fatal("Get leaked internal state")
	}
}

func TestPDUReadingsAndHTTP(t *testing.T) {
	f := testFleet()
	p := NewPDU("pdu1", f)
	if err := p.Plug(1, "ws1"); err != nil {
		t.Fatal(err)
	}
	if err := p.Plug(2, "srv1"); err != nil {
		t.Fatal(err)
	}
	if err := p.Plug(1, "ws2"); err == nil {
		t.Fatal("double plug accepted")
	}
	rs := p.Readings()
	if len(rs) != 2 || rs[0].Machine != "ws1" || rs[0].Watts != 60 {
		t.Fatalf("readings = %+v", rs)
	}

	srv, err := p.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(srv.URL() + "/readings")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []OutletReading
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Machine != "srv1" || got[1].Watts != 120 {
		t.Fatalf("http readings = %+v", got)
	}

	page, err := http.Get(srv.URL() + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer page.Body.Close()
	buf := make([]byte, 4096)
	n, _ := page.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "PDU pdu1") {
		t.Fatalf("html page = %q", buf[:n])
	}

	notFound, err := http.Get(srv.URL() + "/bogus")
	if err != nil {
		t.Fatal(err)
	}
	notFound.Body.Close()
	if notFound.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", notFound.StatusCode)
	}
}

func TestKindString(t *testing.T) {
	if Workstation.String() != "workstation" || Server.String() != "server" {
		t.Fatal("kind names")
	}
}

// TestDeskIndexMatchesLinearScan checks ViewAt against the scan it
// replaced — the first machine by name at the desk in Machines() — over a
// fleet added out of name order, with two machines on one desk and a
// powered-off one, and that Each visits in Machines() order.
func TestDeskIndexMatchesLinearScan(t *testing.T) {
	f := NewFleet(DefaultConfig())
	for _, m := range []Machine{
		{Name: "ws-b", Room: "L102", Desk: 1},
		{Name: "ws-z", Room: "L101", Desk: 2},
		{Name: "ws-a", Room: "L101", Desk: 2}, // shares the desk; lower name, added later
		{Name: "ws-off", Room: "L101", Desk: 3},
		{Name: "ws-10", Room: "L101", Desk: 10},
		{Name: "srv", Kind: Server, Room: "MR1", Desk: 1},
	} {
		f.MustAdd(m)
	}
	f.SetPower("ws-off", false)
	f.StartJob("ws-a", "marie", "sim", 0.5, 100)
	f.StartJob("ws-z", "zives", "sim", 0.25, 100)

	scan := func(room string, desk int) (Machine, bool) {
		for _, m := range f.Machines() {
			if m.Room == room && m.Desk == desk {
				return m, true
			}
		}
		return Machine{}, false
	}
	for _, room := range []string{"L100", "L101", "L102", "MR1", "MR2", ""} {
		for desk := 0; desk <= 11; desk++ {
			want, wantOK := scan(room, desk)
			var got Machine
			gotOK := f.ViewAt(room, desk, func(m *Machine) { got = *m })
			if gotOK != wantOK || got.Name != want.Name || got.CPU != want.CPU || got.Off != want.Off {
				t.Fatalf("ViewAt(%q, %d) = %q cpu %v off %v (%v), scan %q cpu %v off %v (%v)",
					room, desk, got.Name, got.CPU, got.Off, gotOK, want.Name, want.CPU, want.Off, wantOK)
			}
		}
	}
	if m, _ := scan("L101", 2); m.Name != "ws-a" || m.CPU != 0.5 {
		t.Fatalf("shared desk resolved to %q cpu %v, want the lowest name ws-a", m.Name, m.CPU)
	}

	var names []string
	f.Each(func(m *Machine) bool {
		names = append(names, m.Name)
		return m.Name != "ws-b" // stops early
	})
	want := f.Machines()
	for i, n := range names {
		if n != want[i].Name {
			t.Fatalf("Each visited %v, Machines() order is %v", names, want)
		}
	}
	if len(names) != 4 || f.Len() != 6 {
		t.Fatalf("Each visited %d machines before stopping at ws-b, Len %d", len(names), f.Len())
	}
}

// TestFleetConcurrentUse runs the visitors beside the workload simulator
// and power switches; under -race it checks the ordered lists are guarded.
func TestFleetConcurrentUse(t *testing.T) {
	f := testFleet()
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				jobs := 0
				f.Each(func(m *Machine) bool { jobs += len(m.Jobs); return true })
				f.ViewAt("L101", 2, func(m *Machine) { jobs += len(m.Jobs) })
				f.Machines()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		f.Step(0)
		f.SetPower("ws2", i%2 == 0)
	}
	wg.Wait()
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
}
