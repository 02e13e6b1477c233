// Package sensor implements ASPEN's distributed sensor engine (Fig. 1,
// "Sensor Engine (on devices)"): in-network evaluation of selection,
// aggregation and join queries over the simulated mote field, in
// synchronized epochs.
//
// Its distinguishing feature, following Mihaylov et al. (DMSN'08, the
// paper's ref [13]), is support for in-network joins between devices with a
// per-pair placement decision: the join between a desk's temperature sensor
// and its chair's light sensor can run at either mote or at the base
// station, whichever minimizes expected radio messages. The engine keeps
// online selectivity estimates per node so the decision adapts
// "on a sensor-by-sensor basis" (§3).
package sensor

import (
	"fmt"
	"sync"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sensornet"
	"aspen/internal/vtime"
)

// ReadingSchema returns the fixed schema of raw sensor readings as exposed
// to StreamSQL: (mote INT, room STRING, desk INT, value FLOAT).
func ReadingSchema(rel string) *data.Schema {
	s := data.NewSchema(rel,
		data.Col("mote", data.TInt),
		data.Col("room", data.TString),
		data.Col("desk", data.TInt),
		data.Col("value", data.TFloat),
	)
	s.IsStream = true
	return s
}

// Env supplies physical readings to motes; implemented by the building
// simulator and by test stubs.
type Env interface {
	// Reading returns the current value of the given sensor at the node,
	// and whether the sensor produced a sample this epoch.
	Reading(n sensornet.Node, kind sensornet.SensorKind, now vtime.Time) (float64, bool)
}

// EnvFunc adapts a function to Env.
type EnvFunc func(n sensornet.Node, kind sensornet.SensorKind, now vtime.Time) (float64, bool)

// Reading implements Env.
func (f EnvFunc) Reading(n sensornet.Node, kind sensornet.SensorKind, now vtime.Time) (float64, bool) {
	return f(n, kind, now)
}

// Sink receives query results as they arrive at the base station. The
// delivered tuple is owned by the receiver (engines may buffer it), so the
// engine clones per delivery rather than sharing its sampling buffers.
type Sink func(data.Tuple)

// Engine evaluates sensor queries over one network.
type Engine struct {
	mu  sync.Mutex
	net *sensornet.Network
	env Env
}

// NewEngine creates an engine over the network with the given environment.
func NewEngine(net *sensornet.Network, env Env) *Engine {
	return &Engine{net: net, env: env}
}

// Network returns the underlying simulated network.
func (e *Engine) Network() *sensornet.Network { return e.net }

// sampleInto reads one sensor at one node into a reading tuple backed by
// buf's array when its capacity suffices. Epoch loops pass a scratch
// buffer reused across nodes — the returned tuple is only valid until the
// next sampleInto with the same buffer, so deliveries clone.
func (e *Engine) sampleInto(buf []data.Value, n sensornet.Node, kind sensornet.SensorKind, now vtime.Time) (data.Tuple, bool) {
	if n.Dead || !n.HasSensor(kind) {
		return data.Tuple{}, false
	}
	v, ok := e.env.Reading(n, kind, now)
	if !ok {
		return data.Tuple{}, false
	}
	vals := append(buf[:0],
		data.Int(int64(n.ID)),
		data.Str(n.Room),
		data.Int(int64(n.Desk)),
		data.Float(v),
	)
	return data.Tuple{Vals: vals, TS: now}, true
}

// SelectQuery is a filtered acquisition query: every node carrying Sensor
// samples each epoch, applies Pred locally, and routes passing readings to
// the base station.
type SelectQuery struct {
	Rel    string
	Sensor sensornet.SensorKind
	// Pred is an optional local filter over ReadingSchema(Rel).
	Pred   *expr.Compiled
	Period time.Duration
}

// Schema returns the output schema.
func (q *SelectQuery) Schema() *data.Schema { return ReadingSchema(q.Rel) }

// NodeFilter restricts an epoch run to a subset of motes. Partitioned
// fragment execution (plan-level shard hosting) samples each node on
// exactly one shard: the filter applies to *sampling* only, never to tree
// routing, so a partitioned run's delivered multiset unions to the
// unpartitioned run's.
type NodeFilter func(n sensornet.Node) bool

// RunSelectEpoch executes one epoch of a selection query, delivering
// passing readings to sink. It returns the number of tuples delivered.
// Sampling runs through one scratch buffer for the whole epoch; only
// delivered readings are cloned out.
func (e *Engine) RunSelectEpoch(q *SelectQuery, now vtime.Time, sink Sink) int {
	return e.RunSelectEpochPart(q, now, nil, sink)
}

// RunSelectEpochPart is RunSelectEpoch sampling only the nodes keep admits
// (nil keeps all). It locks the engine, so shard replicas co-hosted on one
// worker process can run their partitions concurrently.
func (e *Engine) RunSelectEpochPart(q *SelectQuery, now vtime.Time, keep NodeFilter, sink Sink) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	base := e.net.Base()
	delivered := 0
	scratch := make([]data.Value, 0, 4)
	e.net.EachWith(q.Sensor, func(n sensornet.Node) bool {
		if keep != nil && !keep(n) {
			return true
		}
		t, ok := e.sampleInto(scratch, n, q.Sensor, now)
		if !ok {
			return true
		}
		scratch = t.Vals[:0]
		if q.Pred != nil && !q.Pred.EvalBool(t) {
			return true // filtered in-network: no radio traffic at all
		}
		if n.ID == base || e.net.Send(n.ID, base, 1) {
			sink(t.Clone())
			delivered++
		}
		return true
	})
	return delivered
}

// errNoBase is returned by estimators when the network has no base station.
var errNoBase = fmt.Errorf("sensor: network has no base station")
