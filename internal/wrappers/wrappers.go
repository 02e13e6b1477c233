// Package wrappers implements the bottom tier of Figure 1: "Wrappers:
// Machine state & data streams and tables". Wrappers bridge non-ASPEN data
// producers into stream-engine inputs:
//
//   - Web sources scraped over real HTTP on a polling period (the paper's
//     PDUs export power readings through a web interface polled every 10 s),
//   - machine soft sensors sampled from the fleet simulator.
//
// Database tables need no wrapper: the runtime loads a stored relation's
// rows into each deployment that scans it.
package wrappers

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"aspen/internal/data"
	"aspen/internal/machines"
	"aspen/internal/stream"
	"aspen/internal/vtime"
)

// Decoder converts one fetched payload into tuples at the given timestamp.
type Decoder func(body []byte, now vtime.Time) ([]data.Tuple, error)

// WebWrapper polls an HTTP endpoint and pushes the decoded tuples into a
// stream input. Fetch failures are counted and skipped (web sources are
// unreliable; the paper's architecture expects that).
type WebWrapper struct {
	URL    string
	Input  *stream.Input
	Decode Decoder
	// Period defaults to 10 seconds, the paper's PDU polling rate.
	Period time.Duration

	// Errors counts failed polls.
	Errors int
	// Polls counts attempts.
	Polls int
}

// PollOnce fetches and pushes a single round; exposed for tests and for
// simulation drivers that want deterministic polling.
func (w *WebWrapper) PollOnce(now vtime.Time) error {
	w.Polls++
	resp, err := http.Get(w.URL)
	if err != nil {
		w.Errors++
		return fmt.Errorf("wrappers: fetch %s: %w", w.URL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.Errors++
		return fmt.Errorf("wrappers: fetch %s: status %s", w.URL, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		w.Errors++
		return fmt.Errorf("wrappers: read %s: %w", w.URL, err)
	}
	tuples, err := w.Decode(body, now)
	if err != nil {
		w.Errors++
		return fmt.Errorf("wrappers: decode %s: %w", w.URL, err)
	}
	// One poll = one batch: downstream sharded plans exchange the whole
	// round in a single columnar frame instead of tuple-at-a-time.
	w.Input.PushBatch(tuples)
	return nil
}

// Start schedules periodic polling on the scheduler and returns the func
// that cancels it.
func (w *WebWrapper) Start(sched *vtime.Scheduler) (stop func()) {
	period := w.Period
	if period <= 0 {
		period = 10 * time.Second
	}
	return sched.Every(period, func() {
		_ = w.PollOnce(sched.Now()) // errors are counted; polling continues
	})
}

// PowerSchema is the PDU power stream: every 10 s, one reading per outlet.
func PowerSchema(rel string) *data.Schema {
	s := data.NewSchema(rel,
		data.Col("pdu", data.TString),
		data.Col("outlet", data.TInt),
		data.Col("machine", data.TString),
		data.Col("watts", data.TFloat),
	)
	s.IsStream = true
	return s
}

// NewPDUWrapper builds a WebWrapper for a PDU's JSON readings endpoint
// ("a 'wrapper' periodically (every 10s) extracts this value and sends it
// along a data stream", §2).
func NewPDUWrapper(pduName, baseURL string, input *stream.Input) *WebWrapper {
	return &WebWrapper{
		URL:    baseURL + "/readings",
		Input:  input,
		Period: 10 * time.Second,
		Decode: func(body []byte, now vtime.Time) ([]data.Tuple, error) {
			var rs []machines.OutletReading
			if err := json.Unmarshal(body, &rs); err != nil {
				return nil, err
			}
			out := make([]data.Tuple, 0, len(rs))
			for _, r := range rs {
				out = append(out, data.NewTuple(now,
					data.Str(pduName),
					data.Int(int64(r.Outlet)),
					data.Str(r.Machine),
					data.Float(r.Watts),
				))
			}
			return out, nil
		},
	}
}

// MachineStateSchema is the soft-sensor stream: "jobs executing, users
// logged in, CPU utilization, memory, number of requests being handled in a
// Web server application" (§2).
func MachineStateSchema(rel string) *data.Schema {
	s := data.NewSchema(rel,
		data.Col("machine", data.TString),
		data.Col("room", data.TString),
		data.Col("desk", data.TInt),
		data.Col("kind", data.TString),
		data.Col("cpu", data.TFloat),
		data.Col("mem", data.TFloat),
		data.Col("jobs", data.TInt),
		data.Col("users", data.TInt),
		data.Col("requests", data.TFloat),
	)
	s.IsStream = true
	return s
}

// MachineWrapper samples the fleet's soft sensors into a stream.
type MachineWrapper struct {
	Fleet *machines.Fleet
	Input *stream.Input
	// Period defaults to 1 second.
	Period time.Duration
	// StepWorkload also advances the synthetic workload each sample.
	StepWorkload bool
}

// SampleOnce pushes one reading per powered-on machine.
func (w *MachineWrapper) SampleOnce(now vtime.Time) int {
	if w.StepWorkload {
		w.Fleet.Step(now)
	}
	batch := make([]data.Tuple, 0, w.Fleet.Len())
	w.Fleet.Each(func(m *machines.Machine) bool {
		if m.Off {
			return true
		}
		batch = append(batch, data.NewTuple(now,
			data.Str(m.Name),
			data.Str(m.Room),
			data.Int(int64(m.Desk)),
			data.Str(m.Kind.String()),
			data.Float(m.CPU),
			data.Float(m.MemMB),
			data.Int(int64(len(m.Jobs))),
			data.Int(int64(len(m.Users()))),
			data.Float(m.Requests),
		))
		return true
	})
	// One scrape round = one batch into the engine.
	w.Input.PushBatch(batch)
	return len(batch)
}

// Start schedules periodic sampling and returns the func that cancels it.
func (w *MachineWrapper) Start(sched *vtime.Scheduler) (stop func()) {
	period := w.Period
	if period <= 0 {
		period = time.Second
	}
	return sched.Every(period, func() { w.SampleOnce(sched.Now()) })
}
