// Package aspen is the public API of the ASPEN data acquisition and
// integration substrate and its SmartCIS showcase application, a
// reproduction of "SmartCIS: Integrating Digital and Physical Environments"
// (Liu et al., SIGMOD'09 demo).
//
// ASPEN integrates sensor networks, data streams, database tables and Web
// sources behind one StreamSQL interface. A federated optimizer partitions
// each query between an in-network sensor engine (minimizing radio
// messages) and a distributed stream engine (minimizing latency), per the
// paper's Figure 1 architecture.
//
// Two entry points:
//
//   - NewRuntime assembles a bare substrate: bring your own sources (see
//     examples/quickstart).
//   - NewSmartCIS builds the full intelligent-building demo: synthetic
//     Moore building, mote field, machine fleet, PDUs with scraped HTTP
//     interfaces, RFID badges, and the standard monitoring queries (see
//     examples/visitorguide).
//
// Simulations run in virtual time: drive them with the Scheduler's RunFor /
// RunUntil, which executes days of sensing in milliseconds,
// deterministically.
package aspen

import (
	"io"

	"aspen/internal/building"
	"aspen/internal/core"
	"aspen/internal/data"
	"aspen/internal/gui"
	"aspen/internal/plan"
	"aspen/internal/routing"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/smartcis"
	"aspen/internal/vtime"
)

// Core runtime API.
type (
	// Runtime is an assembled ASPEN instance: catalog, federated
	// optimizer, stream engine, optional sensor engine.
	Runtime = core.Runtime
	// RuntimeConfig configures New.
	RuntimeConfig = core.Config
	// Topology describes how deployed stream plans are spread over pipeline
	// replicas and shard workers, and how they survive losing one. It is the
	// one struct RuntimeConfig, SmartCISOptions and the aspenql flags all
	// embed.
	Topology = plan.Topology
	// Query is a deployed continuous query.
	Query = core.Query
)

// Data model re-exports.
type (
	// Value is one typed StreamSQL value.
	Value = data.Value
	// Tuple is one timestamped row.
	Tuple = data.Tuple
	// Schema describes a relation or stream.
	Schema = data.Schema
	// Column is one schema attribute.
	Column = data.Column
	// Relation is an in-memory stored table.
	Relation = data.Relation
)

// Time and simulation re-exports.
type (
	// Scheduler is the deterministic discrete-event clock driving
	// simulations.
	Scheduler = vtime.Scheduler
	// Time is an instant on the simulation timeline.
	Time = vtime.Time
)

// Sensor-field re-exports for custom deployments.
type (
	// SensorNetwork is the simulated mote field.
	SensorNetwork = sensornet.Network
	// SensorEngine evaluates in-network queries over a SensorNetwork.
	SensorEngine = sensor.Engine
	// SensorKind identifies a physical sensor type.
	SensorKind = sensornet.SensorKind
)

// Sensor kinds.
const (
	SensorLight       = sensornet.SensorLight
	SensorTemperature = sensornet.SensorTemperature
	SensorRFID        = sensornet.SensorRFID
)

// SmartCIS application re-exports.
type (
	// SmartCIS is the running intelligent-building deployment.
	SmartCIS = smartcis.App
	// SmartCISOptions configures NewSmartCIS.
	SmartCISOptions = smartcis.Options
	// BuildingConfig shapes the synthetic Moore building.
	BuildingConfig = building.GenConfig
	// Guidance is a route to a recommended machine.
	Guidance = smartcis.Guidance
	// Route is a path through the building's routing points.
	Route = routing.Route
	// GUIOptions controls text-GUI rendering.
	GUIOptions = gui.Options
	// Repainter coalesces live-result changes into one GUI render per
	// paint cycle.
	Repainter = gui.Repainter
)

// Value constructors.
var (
	// Int builds an integer value.
	Int = data.Int
	// Float builds a floating point value.
	Float = data.Float
	// Str builds a string value.
	Str = data.Str
	// Bool builds a boolean value.
	Bool = data.Bool
	// Null is the SQL NULL.
	Null = data.Null
)

// Col declares a schema column.
func Col(name string, t data.Type) Column { return data.Col(name, t) }

// Column types.
const (
	TInt    = data.TInt
	TFloat  = data.TFloat
	TString = data.TString
	TBool   = data.TBool
	TTime   = data.TTime
)

// NewRuntime assembles a bare ASPEN runtime. With a zero config it runs
// all-stream on a fresh virtual-time scheduler.
func NewRuntime(cfg RuntimeConfig) *Runtime { return core.New(cfg) }

// NewScheduler creates a deterministic virtual-time scheduler.
func NewScheduler() *Scheduler { return vtime.NewScheduler() }

// NewSchema declares a relation schema whose columns are qualified by rel.
func NewSchema(rel string, cols ...Column) *Schema { return data.NewSchema(rel, cols...) }

// NewStreamSchema declares a stream schema.
func NewStreamSchema(rel string, cols ...Column) *Schema {
	s := data.NewSchema(rel, cols...)
	s.IsStream = true
	return s
}

// NewRelation creates an empty stored table with the schema.
func NewRelation(schema *Schema) *Relation { return data.NewRelation(schema) }

// NewTuple builds an insert tuple at timestamp ts.
func NewTuple(ts Time, vals ...Value) Tuple { return data.NewTuple(ts, vals...) }

// NewSmartCIS builds the full SmartCIS deployment of §2/§4.
func NewSmartCIS(opts SmartCISOptions) (*SmartCIS, error) { return smartcis.New(opts) }

// RenderGUI draws one Figure 2-style frame of the deployment.
func RenderGUI(app *SmartCIS, opts GUIOptions) string { return gui.Render(app, opts) }

// NewRepainter builds a GUI repainter writing render() frames to out; wire
// query results to it with Watch and call Paint once per epoch.
func NewRepainter(out io.Writer, render func() string) *Repainter {
	return gui.NewRepainter(out, render)
}

// StatusPanel formats the live plan panel shown beside the map.
func StatusPanel(app *SmartCIS, queries map[string]string) []string {
	return gui.StatusPanel(app, queries)
}

// DefaultBuilding is the demo building: 4 labs of 6 desks, 2 offices, a
// machine room, hallway points every 100 feet.
func DefaultBuilding() BuildingConfig { return building.DefaultConfig() }
