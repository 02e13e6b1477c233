package sensor

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sensornet"
	"aspen/internal/vtime"
)

// PairBy defines how join partners are matched between the two sides.
type PairBy uint8

// Pairing strategies.
const (
	// PairSameDesk joins sensors mounted on the same (room, desk): the
	// paper's workstation-monitoring join between a machine's temperature
	// mote and the chair's light mote.
	PairSameDesk PairBy = iota
	// PairSameRoom joins every left sensor with every right sensor in the
	// same room.
	PairSameRoom
	// PairProximity joins sensors within Radius of each other.
	PairProximity
)

// Placement is where a pair's join executes.
type Placement uint8

// Join placements. PlaceOptimized re-decides per pair from online
// selectivity estimates; the fixed placements are the E3 ablation arms.
const (
	PlaceOptimized Placement = iota
	PlaceAtLeft
	PlaceAtRight
	PlaceAtBase
)

// String names the placement.
func (p Placement) String() string {
	switch p {
	case PlaceOptimized:
		return "optimized"
	case PlaceAtLeft:
		return "at-left"
	case PlaceAtRight:
		return "at-right"
	case PlaceAtBase:
		return "at-base"
	}
	return "place?"
}

// JoinSide describes one input of an in-network join.
type JoinSide struct {
	Rel    string
	Sensor sensornet.SensorKind
	// Pred is an optional local filter over ReadingSchema(Rel).
	Pred *expr.Compiled
}

// JoinQuery is a pairwise in-network join between two sensor types.
type JoinQuery struct {
	Left, Right JoinSide
	PairBy      PairBy
	Radius      float64 // for PairProximity
	// On is an optional residual predicate over the concatenated schema.
	On        *expr.Compiled
	Placement Placement
	Period    time.Duration
}

// Schema returns the concatenated output schema.
func (q *JoinQuery) Schema() *data.Schema {
	return ReadingSchema(q.Left.Rel).Concat(ReadingSchema(q.Right.Rel))
}

// pair is one (left mote, right mote) join partnership.
type pair struct {
	l, r int
	// hops cached at pairing time
	lr, lBase, rBase int
	stats            *pairStats
}

// pairStats tracks online selectivity estimates (EWMA) per pair.
type pairStats struct {
	sigmaL, sigmaR, sigmaJ float64
	n                      int
}

const ewmaAlpha = 0.2

func (s *pairStats) observe(lPass, rPass, jPass bool) {
	b := func(x bool) float64 {
		if x {
			return 1
		}
		return 0
	}
	if s.n == 0 {
		s.sigmaL, s.sigmaR, s.sigmaJ = b(lPass), b(rPass), b(jPass)
	} else {
		s.sigmaL += ewmaAlpha * (b(lPass) - s.sigmaL)
		s.sigmaR += ewmaAlpha * (b(rPass) - s.sigmaR)
		s.sigmaJ += ewmaAlpha * (b(jPass) - s.sigmaJ)
	}
	s.n++
}

// JoinState is the long-lived execution state of a join query: the pair
// list, sorted by (left, right) mote ID, and each pair's adaptive
// statistics. Create once with PlanJoin, then run epochs against it.
type JoinState struct {
	mu    sync.Mutex
	q     *JoinQuery
	pairs []pair
	// Sampling and concat scratch buffers, reused across pairs and epochs
	// under mu; delivered tuples are cloned out of them.
	lBuf, rBuf, jBuf []data.Value
	// Decisions counts placements chosen at the latest epoch, for
	// observability (the demo GUI shows live plan partitioning).
	Decisions map[Placement]int
}

// PairFilter restricts a join plan to a subset of pairs. Partitioned
// fragment execution admits each pair on exactly one shard, so the shards'
// delivered multisets union to the full plan's (pairs partition
// disjointly; radio accounting is per pair).
type PairFilter func(l, r sensornet.Node) bool

// PlanJoin matches join partners over the current topology and initializes
// adaptive state. It fails when the network has no base station.
func (e *Engine) PlanJoin(q *JoinQuery) (*JoinState, error) {
	return e.PlanJoinPart(q, nil)
}

// PlanJoinPart is PlanJoin keeping only the pairs keep admits (nil keeps
// all).
func (e *Engine) PlanJoinPart(q *JoinQuery, keep PairFilter) (*JoinState, error) {
	base := e.net.Base()
	if base < 0 {
		return nil, errNoBase
	}
	var lefts, rights []sensornet.Node
	e.net.EachWith(q.Left.Sensor, func(n sensornet.Node) bool {
		lefts = append(lefts, n)
		return true
	})
	e.net.EachWith(q.Right.Sensor, func(n sensornet.Node) bool {
		rights = append(rights, n)
		return true
	})
	st := &JoinState{
		q: q, Decisions: map[Placement]int{},
		lBuf: make([]data.Value, 0, 4),
		rBuf: make([]data.Value, 0, 4),
		jBuf: make([]data.Value, 0, 8),
	}
	for _, l := range lefts {
		for _, r := range rights {
			if l.ID == r.ID && q.Left.Sensor == q.Right.Sensor {
				continue
			}
			match := false
			switch q.PairBy {
			case PairSameDesk:
				match = l.Room == r.Room && l.Desk == r.Desk && l.Desk != 0
			case PairSameRoom:
				match = l.Room == r.Room && l.Room != ""
			case PairProximity:
				dx, dy := l.X-r.X, l.Y-r.Y
				match = dx*dx+dy*dy <= q.Radius*q.Radius
			}
			if !match {
				continue
			}
			if keep != nil && !keep(l, r) {
				continue
			}
			p := pair{
				l: l.ID, r: r.ID,
				lr:    e.net.HopDist(l.ID, r.ID),
				lBase: e.net.HopDist(l.ID, base),
				rBase: e.net.HopDist(r.ID, base),
				stats: &pairStats{sigmaL: 0.5, sigmaR: 0.5, sigmaJ: 0.5},
			}
			if p.lr < 0 || p.lBase < 0 || p.rBase < 0 {
				continue // disconnected
			}
			st.pairs = append(st.pairs, p)
		}
	}
	sort.Slice(st.pairs, func(i, j int) bool {
		if st.pairs[i].l != st.pairs[j].l {
			return st.pairs[i].l < st.pairs[j].l
		}
		return st.pairs[i].r < st.pairs[j].r
	})
	return st, nil
}

// Pairs returns the number of matched join partnerships.
func (st *JoinState) Pairs() int { return len(st.pairs) }

// choose returns the placement for a pair given current selectivity
// estimates, implementing the §3 "sensor-by-sensor" decision. Expected
// messages per epoch:
//
//	at left:  σR·h(r,l)   + σL·σR·σJ·h(l,base)
//	at right: σL·h(l,r)   + σL·σR·σJ·h(r,base)
//	at base:  σL·h(l,base) + σR·h(r,base)
func (st *JoinState) choose(p pair) Placement {
	if st.q.Placement != PlaceOptimized {
		return st.q.Placement
	}
	s := p.stats
	join := s.sigmaL * s.sigmaR * s.sigmaJ
	costL := s.sigmaR*float64(p.lr) + join*float64(p.lBase)
	costR := s.sigmaL*float64(p.lr) + join*float64(p.rBase)
	costB := s.sigmaL*float64(p.lBase) + s.sigmaR*float64(p.rBase)
	switch {
	case costL <= costR && costL <= costB:
		return PlaceAtLeft
	case costR <= costB:
		return PlaceAtRight
	default:
		return PlaceAtBase
	}
}

// RunJoinEpoch executes one epoch of the join, delivering joined tuples to
// sink; it returns the number delivered. Radio loss can drop a pair's
// contribution for the epoch, exactly as on real motes. Per-pair sampling
// and concatenation run through the state's scratch buffers; only
// delivered tuples are cloned out.
func (e *Engine) RunJoinEpoch(st *JoinState, now vtime.Time, sink Sink) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	q := st.q
	base := e.net.Base()
	delivered := 0
	clear(st.Decisions)
	deliver := func(t data.Tuple) {
		sink(t.Clone())
		delivered++
	}

	for _, p := range st.pairs {
		ln, lok := e.net.Node(p.l)
		rn, rok := e.net.Node(p.r)
		if !lok || !rok || ln.Dead || rn.Dead {
			continue
		}
		lt, lsampled := e.sampleInto(st.lBuf, ln, q.Left.Sensor, now)
		rt, rsampled := e.sampleInto(st.rBuf, rn, q.Right.Sensor, now)
		if lsampled {
			st.lBuf = lt.Vals[:0]
		}
		if rsampled {
			st.rBuf = rt.Vals[:0]
		}
		if !lsampled || !rsampled {
			continue
		}
		lPass := q.Left.Pred == nil || q.Left.Pred.EvalBool(lt)
		rPass := q.Right.Pred == nil || q.Right.Pred.EvalBool(rt)
		joined := lt.ConcatInto(st.jBuf, rt)
		st.jBuf = joined.Vals[:0]
		jPass := q.On == nil || q.On.EvalBool(joined)
		place := st.choose(p)
		st.Decisions[place]++
		p.stats.observe(lPass, rPass, jPass)

		switch place {
		case PlaceAtLeft:
			// Right ships its passing reading to left; join runs at left.
			if !rPass {
				break
			}
			if p.lr > 0 && !e.net.Send(p.r, p.l, 1) {
				break
			}
			if lPass && jPass {
				if p.lBase == 0 || e.net.Send(p.l, base, 1) {
					deliver(joined)
				}
			}
		case PlaceAtRight:
			if !lPass {
				break
			}
			if p.lr > 0 && !e.net.Send(p.l, p.r, 1) {
				break
			}
			if rPass && jPass {
				if p.rBase == 0 || e.net.Send(p.r, base, 1) {
					deliver(joined)
				}
			}
		default: // PlaceAtBase
			lArrived := lPass && (p.lBase == 0 || e.net.Send(p.l, base, 1))
			rArrived := rPass && (p.rBase == 0 || e.net.Send(p.r, base, 1))
			if lArrived && rArrived && jPass {
				deliver(joined)
			}
		}
	}
	return delivered
}

// PairStatsSnapshot is one pair's serialized adaptive state, the unit of
// JoinState checkpoints (plan-level fragment runners ship these across
// failovers and rescales so placement decisions survive a move).
type PairStatsSnapshot struct {
	L, R                   int
	SigmaL, SigmaR, SigmaJ float64
	N                      int
}

// SnapshotStats captures every pair's adaptive selectivity state, sorted
// by (left, right) mote ID for deterministic encoding.
func (st *JoinState) SnapshotStats() []PairStatsSnapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]PairStatsSnapshot, 0, len(st.pairs))
	for _, p := range st.pairs {
		s := p.stats
		out = append(out, PairStatsSnapshot{
			L: p.l, R: p.r,
			SigmaL: s.sigmaL, SigmaR: s.sigmaR, SigmaJ: s.sigmaJ, N: s.n,
		})
	}
	return out
}

// RestoreStats re-applies a SnapshotStats capture. Pairs absent from the
// snapshot keep their initial estimates; snapshot entries without a
// matching pair (topology drift) are ignored.
func (st *JoinState) RestoreStats(snap []PairStatsSnapshot) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, e := range snap {
		i, ok := slices.BinarySearchFunc(st.pairs, e, func(p pair, e PairStatsSnapshot) int {
			return cmp.Or(cmp.Compare(p.l, e.L), cmp.Compare(p.r, e.R))
		})
		if !ok {
			continue
		}
		s := st.pairs[i].stats
		s.sigmaL, s.sigmaR, s.sigmaJ, s.n = e.SigmaL, e.SigmaR, e.SigmaJ, e.N
	}
}

// String renders the query for plan displays.
func (q *JoinQuery) String() string {
	return fmt.Sprintf("in-network join %s(%s) ⋈ %s(%s) [%s]",
		q.Left.Rel, q.Left.Sensor, q.Right.Rel, q.Right.Sensor, q.Placement)
}
