package plan

import (
	"time"

	"aspen/internal/expr"
)

// The stream engine's optimizer minimizes latency (§3: "the stream
// optimizer attempts to minimize latency to answers"). Cost is modelled as
// work per unit time: every tuple flowing through an operator costs one
// unit, joins cost proportionally to probe rates times opposite state size,
// and latency is work × a per-unit constant.

// PerTupleCost is the modelled processing latency of one unit of operator
// work.
const PerTupleCost = 10 * time.Microsecond

// Card estimates a node's output rate (tuples/second for streams; resident
// rows for tables).
func Card(n Node) float64 {
	switch x := n.(type) {
	case *Scan:
		if x.Rate > 0 {
			return x.Rate
		}
		return 1
	case *Select:
		return Card(x.In) * expr.Selectivity(x.Pred)
	case *Join:
		sel := 0.1
		if len(x.LKey) == 0 {
			sel = 1 // cross join
		}
		if x.Residual != nil {
			sel *= expr.Selectivity(x.Residual)
		}
		return Card(x.L) * Card(x.R) * sel
	case *Project:
		return Card(x.In)
	case *Aggregate:
		c := Card(x.In) * 0.2
		if len(x.GroupBy) == 0 {
			c = 1
		}
		if x.Having != nil {
			c *= expr.Selectivity(x.Having)
		}
		if c < 1 {
			c = 1
		}
		return c
	case *Distinct:
		return Card(x.In) * 0.8
	}
	return 1
}

// Work estimates total operator work per second for the plan.
func Work(n Node) float64 {
	switch x := n.(type) {
	case *Scan:
		return Card(x)
	case *Select:
		return Work(x.In) + Card(x.In)
	case *Join:
		// symmetric hash join: each side probes the other's state
		return Work(x.L) + Work(x.R) + Card(x.L) + Card(x.R) + Card(x)
	case *Project:
		return Work(x.In) + Card(x.In)
	case *Aggregate:
		return Work(x.In) + Card(x.In)
	case *Distinct:
		return Work(x.In) + Card(x.In)
	}
	return 0
}
