// Package federation implements ASPEN's federated query optimizer (Fig. 1):
// it partitions a StreamSQL query between the sensor engine (on devices)
// and the stream engine (on PCs), "somewhat along the lines of the model
// established in the Garlic system" (§3).
//
// The federated optimizer enumerates candidate partitions, asks each
// engine's optimizer whether it can execute its part and what it costs —
// the sensor optimizer answers in radio messages per epoch, the stream
// optimizer in latency — and converts both into one unified model using
// catalog statistics (network diameter, sampling rates, radio timings)
// before choosing the cheapest feasible plan.
package federation

import (
	"fmt"
	"sort"
	"strings"

	"aspen/internal/catalog"
	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/plan"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/sql"
)

// EnergySecondsPerMJ converts radio transmit energy into unified cost
// seconds: spending battery is penalized like spending time, so plans that
// burn motes to shave latency lose.
const EnergySecondsPerMJ = 0.02

// FragmentKind classifies what is pushed to the sensor engine.
type FragmentKind uint8

// Fragment kinds.
const (
	FragShipAll FragmentKind = iota // raw acquisition, no in-network work
	FragSelect
	FragJoin
)

// String names the kind.
func (k FragmentKind) String() string {
	switch k {
	case FragShipAll:
		return "ship-all"
	case FragSelect:
		return "in-network-select"
	case FragJoin:
		return "in-network-join"
	}
	return "frag?"
}

// Fragment is one subquery assigned to the sensor engine. It becomes a
// derived stream input of the stream engine.
type Fragment struct {
	Kind FragmentKind
	// DerivedName is the stream-engine input the fragment feeds.
	DerivedName string
	// Bindings lists the FROM bindings the fragment covers.
	Bindings []string
	// Sources lists the lowercased catalog source names behind those
	// bindings — the physical sensor feeds the fragment reads. Locality
	// placement routes shards to the workers hosting them, and shard-side
	// fragment deployment requires every one in the host's registry.
	Sources []string
	// Schema of the derived stream.
	Schema *data.Schema

	Select *sensor.SelectQuery
	Join   *sensor.JoinQuery

	// Est is the sensor optimizer's cost report.
	Est sensor.CostEstimate
}

// Alternative is one enumerated partitioning with its costs.
type Alternative struct {
	// Desc summarizes the partition for the E1 plan display.
	Desc string
	// Fragments pushed to the sensor engine (including trivial ship-all
	// acquisition for sensor sources the partition does not push work to).
	Fragments []*Fragment
	// StreamPlan is the remaining plan on the stream engine.
	StreamPlan *plan.Built
	// StreamStmt is the rewritten statement the stream plan was built from.
	StreamStmt *sql.SelectStmt

	// StreamWork is operator work per second on the stream engine.
	StreamWork float64
	// MsgsPerSec is expected radio traffic.
	MsgsPerSec float64
	// Unified is the single-model cost (seconds of weighted work per
	// second); lower is better.
	Unified float64
}

// Result is the optimizer's decision with the full alternative list.
type Result struct {
	Chosen       *Alternative
	Alternatives []*Alternative
	// Rejected explains partitions that failed capability checks.
	Rejected []string
}

// Binding connects catalog sensor-stream sources to physical sensor kinds.
type Binding struct {
	// Kinds maps lowercased source names to the mote sensor that produces
	// them.
	Kinds map[string]sensornet.SensorKind
	// Engine is the sensor engine whose optimizer prices fragments.
	Engine *sensor.Engine
}

// Federator partitions queries.
type Federator struct {
	Cat     *catalog.Catalog
	Sensors *Binding // nil when no sensor engine is deployed
}

// Optimize enumerates partitions of the query and returns the cheapest
// feasible one under the unified cost model.
func (f *Federator) Optimize(stmt *sql.SelectStmt) (*Result, error) {
	flat, err := plan.Inline(stmt, f.Cat)
	if err != nil {
		return nil, err
	}
	// Identify pushable FROM items: sensor-stream sources with a binding
	// and the raw reading schema.
	var sensorsHere []sensorItem
	if f.Sensors != nil {
		for i, fi := range flat.From {
			src, ok := f.Cat.Source(fi.Name)
			if !ok {
				return nil, fmt.Errorf("federation: unknown source %q", fi.Name)
			}
			if src.Kind != catalog.KindSensorStream {
				continue
			}
			kind, bound := f.Sensors.Kinds[strings.ToLower(src.Name)]
			if !bound || !isReadingSchema(src.Schema) {
				continue
			}
			sensorsHere = append(sensorsHere, sensorItem{idx: i, kind: kind})
		}
	}

	res := &Result{}
	conjuncts := expr.Conjuncts(flat.Where)

	// Enumerate subsets of pushable items (bitmask; |S| is small).
	n := len(sensorsHere)
	for mask := 0; mask < 1<<n; mask++ {
		var pushedIdx []int
		var kinds []sensornet.SensorKind
		for b := 0; b < n; b++ {
			if mask&(1<<b) != 0 {
				pushedIdx = append(pushedIdx, sensorsHere[b].idx)
				kinds = append(kinds, sensorsHere[b].kind)
			}
		}
		alt, reason := f.buildAlternative(flat, conjuncts, sensorsHere, pushedIdx, kinds, mask)
		if alt == nil {
			if reason != "" {
				res.Rejected = append(res.Rejected, reason)
			}
			continue
		}
		res.Alternatives = append(res.Alternatives, alt)
	}
	if len(res.Alternatives) == 0 {
		return nil, fmt.Errorf("federation: no feasible partition (%d rejected)", len(res.Rejected))
	}
	sort.SliceStable(res.Alternatives, func(i, j int) bool {
		return res.Alternatives[i].Unified < res.Alternatives[j].Unified
	})
	res.Chosen = res.Alternatives[0]
	return res, nil
}

// isReadingSchema checks the (mote, room, desk, value) shape of raw sensor
// streams.
func isReadingSchema(s *data.Schema) bool {
	if s.Arity() != 4 {
		return false
	}
	names := []string{"mote", "room", "desk", "value"}
	for i, n := range names {
		if !strings.EqualFold(s.Cols[i].Name, n) {
			return false
		}
	}
	return true
}
