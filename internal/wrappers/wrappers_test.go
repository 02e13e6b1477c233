package wrappers

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/machines"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

func pduFixture(t *testing.T) (*machines.Fleet, *machines.PDU, *machines.PDUServer) {
	t.Helper()
	f := machines.NewFleet(machines.DefaultConfig())
	f.MustAdd(machines.Machine{Name: "ws1", Room: "L101", Desk: 1})
	f.MustAdd(machines.Machine{Name: "ws2", Room: "L101", Desk: 2})
	p := machines.NewPDU("pdu1", f)
	if err := p.Plug(1, "ws1"); err != nil {
		t.Fatal(err)
	}
	if err := p.Plug(2, "ws2"); err != nil {
		t.Fatal(err)
	}
	srv, err := p.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return f, p, srv
}

// register declares an engine input that must not exist yet.
func register(t *testing.T, e *stream.Engine, name string, schema *data.Schema) *stream.Input {
	t.Helper()
	in, err := e.Register(name, schema)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestPDUWrapperPollOnce(t *testing.T) {
	_, _, srv := pduFixture(t)
	e := stream.NewEngine("n", vtime.NewScheduler())
	in := register(t, e, "Power", PowerSchema("Power"))
	col := stream.NewCollector(PowerSchema("Power"))
	in.Subscribe(col)

	w := NewPDUWrapper("pdu1", srv.URL(), in)
	if err := w.PollOnce(5 * vtime.Second); err != nil {
		t.Fatal(err)
	}
	got := col.Snapshot()
	if len(got) != 2 {
		t.Fatalf("tuples = %v", got)
	}
	if got[0].Vals[0].AsString() != "pdu1" || got[0].Vals[2].AsString() != "ws1" {
		t.Fatalf("tuple = %v", got[0])
	}
	if got[0].Vals[3].AsFloat() != 60 { // idle workstation
		t.Fatalf("watts = %v", got[0].Vals[3])
	}
	if got[0].TS != 5*vtime.Second {
		t.Fatalf("ts = %v", got[0].TS)
	}
	if w.Polls != 1 || w.Errors != 0 {
		t.Fatalf("counters = %d/%d", w.Polls, w.Errors)
	}
}

func TestPDUWrapperTracksLoad(t *testing.T) {
	f, _, srv := pduFixture(t)
	e := stream.NewEngine("n", vtime.NewScheduler())
	in := register(t, e, "Power", PowerSchema("Power"))
	col := stream.NewCollector(PowerSchema("Power"))
	in.Subscribe(col)
	w := NewPDUWrapper("pdu1", srv.URL(), in)

	f.StartJob("ws1", "u", "burn", 1.0, 100)
	if err := w.PollOnce(0); err != nil {
		t.Fatal(err)
	}
	if got := col.Snapshot(); got[0].Vals[3].AsFloat() != 180 {
		t.Fatalf("loaded watts = %v", got[0].Vals[3])
	}
}

func TestWebWrapperPeriodicOnScheduler(t *testing.T) {
	_, _, srv := pduFixture(t)
	sched := vtime.NewScheduler()
	e := stream.NewEngine("n", sched)
	in := register(t, e, "Power", PowerSchema("Power"))
	col := stream.NewCollector(PowerSchema("Power"))
	in.Subscribe(col)

	w := NewPDUWrapper("pdu1", srv.URL(), in)
	stop := w.Start(sched)
	sched.RunUntil(35 * vtime.Second) // 10s period → polls at 10, 20, 30
	if w.Polls != 3 {
		t.Fatalf("polls = %d", w.Polls)
	}
	if col.Len() != 6 {
		t.Fatalf("tuples = %d", col.Len())
	}
	stop()
	sched.RunUntil(100 * vtime.Second)
	if w.Polls != 3 {
		t.Fatalf("polls after stop = %d", w.Polls)
	}
}

func TestWebWrapperErrorPaths(t *testing.T) {
	e := stream.NewEngine("n", vtime.NewScheduler())
	in := register(t, e, "s", PowerSchema("s"))

	// unreachable host
	w := &WebWrapper{URL: "http://127.0.0.1:1/readings", Input: in,
		Decode: func([]byte, vtime.Time) ([]data.Tuple, error) { return nil, nil }}
	if err := w.PollOnce(0); err == nil {
		t.Fatal("unreachable fetch succeeded")
	}
	// HTTP error status
	bad := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusInternalServerError)
	}))
	defer bad.Close()
	w2 := &WebWrapper{URL: bad.URL, Input: in,
		Decode: func([]byte, vtime.Time) ([]data.Tuple, error) { return nil, nil }}
	if err := w2.PollOnce(0); err == nil {
		t.Fatal("500 accepted")
	}
	// decode failure
	garbage := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(rw, "not json")
	}))
	defer garbage.Close()
	w3 := NewPDUWrapper("p", garbage.URL[:len(garbage.URL)]+"", in)
	w3.URL = garbage.URL // hit the garbage endpoint directly
	if err := w3.PollOnce(0); err == nil {
		t.Fatal("garbage decoded")
	}
	if w.Errors+w2.Errors+w3.Errors != 3 {
		t.Fatalf("error counters = %d %d %d", w.Errors, w2.Errors, w3.Errors)
	}
}

func TestMachineWrapper(t *testing.T) {
	f := machines.NewFleet(machines.DefaultConfig())
	f.MustAdd(machines.Machine{Name: "ws1", Kind: machines.Workstation, Room: "L101", Desk: 1})
	f.MustAdd(machines.Machine{Name: "srv1", Kind: machines.Server, Room: "MR1", Desk: 1})
	f.SetPower("srv1", false)
	f.StartJob("ws1", "marie", "job", 0.25, 128)

	e := stream.NewEngine("n", vtime.NewScheduler())
	in := register(t, e, "MachineState", MachineStateSchema("MachineState"))
	col := stream.NewCollector(MachineStateSchema("MachineState"))
	in.Subscribe(col)

	w := &MachineWrapper{Fleet: f, Input: in}
	n := w.SampleOnce(vtime.Second)
	if n != 1 { // srv1 is off
		t.Fatalf("sampled = %d", n)
	}
	got := col.Snapshot()[0]
	if got.Vals[0].AsString() != "ws1" || got.Vals[4].AsFloat() != 0.25 ||
		got.Vals[6].AsInt() != 1 || got.Vals[7].AsInt() != 1 {
		t.Fatalf("reading = %v", got)
	}
	if got.Vals[3].AsString() != "workstation" {
		t.Fatalf("kind = %v", got.Vals[3])
	}
}

func TestMachineWrapperSchedulingAndWorkloadStep(t *testing.T) {
	f := machines.NewFleet(machines.DefaultConfig())
	f.MustAdd(machines.Machine{Name: "ws1", Room: "L101", Desk: 1})
	sched := vtime.NewScheduler()
	e := stream.NewEngine("n", sched)
	in := register(t, e, "ms", MachineStateSchema("ms"))
	col := stream.NewCollector(MachineStateSchema("ms"))
	in.Subscribe(col)

	w := &MachineWrapper{Fleet: f, Input: in, Period: 2 * time.Second, StepWorkload: true}
	stop := w.Start(sched)
	defer stop()
	sched.RunUntil(11 * vtime.Second) // samples at 2,4,6,8,10
	if col.Len() != 5 {
		t.Fatalf("samples = %d", col.Len())
	}
	// workload stepping should eventually change CPU from zero
	changed := false
	for _, tu := range col.Snapshot() {
		if tu.Vals[4].AsFloat() > 0 {
			changed = true
		}
	}
	if !changed {
		t.Fatal("workload never stepped")
	}
}
