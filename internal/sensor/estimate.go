package sensor

import (
	"time"

	"aspen/internal/expr"
)

// CostEstimate is the sensor optimizer's cost report: expected radio
// messages per epoch and the epoch period. The federated optimizer converts
// this into the stream engine's latency-based model using catalog
// statistics (§3: "the federated optimizer must convert everything to one
// model").
type CostEstimate struct {
	MsgsPerEpoch float64
	Period       time.Duration
}

// PerSecond returns the expected message rate.
func (c CostEstimate) PerSecond() float64 {
	if c.Period <= 0 {
		return c.MsgsPerEpoch
	}
	return c.MsgsPerEpoch / c.Period.Seconds()
}

// selEstimate derives a selectivity for a local predicate; 1 when absent.
func selEstimate(pred *expr.Compiled) float64 {
	if pred == nil {
		return 1
	}
	// Reconstruct a crude estimate from the textbook table.
	return 0.3
}

// EstimateSelect predicts messages/epoch for a selection query: each node
// carrying the sensor ships a passing reading over its tree depth.
func (e *Engine) EstimateSelect(q *SelectQuery) (CostEstimate, error) {
	if e.net.Base() < 0 {
		return CostEstimate{}, errNoBase
	}
	sigma := selEstimate(q.Pred)
	msgs := 0.0
	for _, n := range e.net.Nodes() {
		if n.Dead || n.Hops < 0 || !n.HasSensor(q.Sensor) {
			continue
		}
		msgs += sigma * float64(n.Hops)
	}
	return CostEstimate{MsgsPerEpoch: msgs, Period: q.Period}, nil
}

// EstimateJoin predicts messages/epoch using each pair's optimizer-chosen
// placement under current selectivity estimates.
func (e *Engine) EstimateJoin(st *JoinState) (CostEstimate, error) {
	if e.net.Base() < 0 {
		return CostEstimate{}, errNoBase
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	msgs := 0.0
	for _, p := range st.pairs {
		s := p.stats
		join := s.sigmaL * s.sigmaR * s.sigmaJ
		var cost float64
		switch st.choose(p) {
		case PlaceAtLeft:
			cost = s.sigmaR*float64(p.lr) + join*float64(p.lBase)
		case PlaceAtRight:
			cost = s.sigmaL*float64(p.lr) + join*float64(p.rBase)
		default:
			cost = s.sigmaL*float64(p.lBase) + s.sigmaR*float64(p.rBase)
		}
		msgs += cost
	}
	return CostEstimate{MsgsPerEpoch: msgs, Period: st.q.Period}, nil
}
