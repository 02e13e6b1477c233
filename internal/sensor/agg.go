package sensor

import (
	"sort"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sensornet"
	"aspen/internal/vtime"
)

// AggFunc enumerates the decomposable aggregates the engine can compute
// in-network (TAG-style partial state records).
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String names the aggregate.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	}
	return "agg?"
}

// AggMode selects in-network aggregation or the ship-raw baseline used by
// experiment E4.
type AggMode uint8

// Aggregation modes.
const (
	// AggInNetwork merges partial state records hop-by-hop up the
	// collection tree: one message per node per epoch.
	AggInNetwork AggMode = iota
	// AggCentralized ships every raw reading to the base station and
	// aggregates there; the baseline.
	AggCentralized
)

// AggregateQuery aggregates one sensor type across the field each epoch.
type AggregateQuery struct {
	Rel    string
	Sensor sensornet.SensorKind
	// Pred is an optional local filter applied before aggregation.
	Pred *expr.Compiled
	Func AggFunc
	// GroupByRoom groups results per room; otherwise one global group.
	GroupByRoom bool
	Mode        AggMode
	Period      time.Duration
}

// Schema returns the output schema: (room STRING,)? value FLOAT.
func (q *AggregateQuery) Schema() *data.Schema {
	cols := []data.Column{}
	if q.GroupByRoom {
		cols = append(cols, data.Col("room", data.TString))
	}
	cols = append(cols, data.Col("value", data.TFloat))
	s := data.NewSchema(q.Rel, cols...)
	s.IsStream = true
	return s
}

// psr is a partial state record, mergeable without loss for all supported
// aggregates.
type psr struct {
	count    int64
	sum      float64
	min, max float64
	some     bool
}

func (p *psr) add(v float64) {
	if !p.some {
		p.min, p.max = v, v
		p.some = true
	} else {
		if v < p.min {
			p.min = v
		}
		if v > p.max {
			p.max = v
		}
	}
	p.count++
	p.sum += v
}

func (p *psr) merge(o psr) {
	if !o.some {
		return
	}
	if !p.some {
		*p = o
		return
	}
	p.count += o.count
	p.sum += o.sum
	if o.min < p.min {
		p.min = o.min
	}
	if o.max > p.max {
		p.max = o.max
	}
}

func (p *psr) final(f AggFunc) (float64, bool) {
	if !p.some {
		return 0, false
	}
	switch f {
	case AggCount:
		return float64(p.count), true
	case AggSum:
		return p.sum, true
	case AggAvg:
		return p.sum / float64(p.count), true
	case AggMin:
		return p.min, true
	case AggMax:
		return p.max, true
	}
	return 0, false
}

// RunAggregateEpoch executes one epoch, delivering one tuple per group to
// sink. Returns the number of groups delivered.
func (e *Engine) RunAggregateEpoch(q *AggregateQuery, now vtime.Time, sink Sink) int {
	return e.RunAggregateEpochPart(q, now, nil, sink)
}

// RunAggregateEpochPart is RunAggregateEpoch sampling only the nodes keep
// admits (nil keeps all). The filter gates each node's *own sample* — tree
// routing and PSR merging are untouched, and a node contributing nothing
// suppresses its message exactly like an empty group — so a run
// partitioned on the grouping key delivers each admitted group bit-equal
// to the unpartitioned run. It locks the engine (see RunSelectEpochPart).
func (e *Engine) RunAggregateEpochPart(q *AggregateQuery, now vtime.Time, keep NodeFilter, sink Sink) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	if q.Mode == AggCentralized {
		return e.runAggCentral(q, now, keep, sink)
	}
	return e.runAggTAG(q, now, keep, sink)
}

// runAggTAG merges PSRs up the collection tree: process nodes deepest
// first; each non-base node sends its merged group map to its parent in a
// single message whose frame count is the number of groups carried.
func (e *Engine) runAggTAG(q *AggregateQuery, now vtime.Time, keep NodeFilter, sink Sink) int {
	// A private snapshot of the whole tree, reordered deepest first.
	nodes := e.net.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Hops > nodes[j].Hops })
	base := e.net.Base()

	pending := map[int]map[string]psr{} // node -> group -> psr
	groupOf := func(n sensornet.Node) string {
		if q.GroupByRoom {
			return n.Room
		}
		return ""
	}

	scratch := make([]data.Value, 0, 4)
	for _, n := range nodes {
		if n.Dead || n.Hops < 0 {
			continue
		}
		groups := pending[n.ID]
		if groups == nil {
			groups = map[string]psr{}
		}
		// own sample (scratch-backed: consumed before the next node samples)
		if keep != nil && !keep(n) {
			// excluded from this partition: still relays children's PSRs
		} else if t, ok := e.sampleInto(scratch, n, q.Sensor, now); ok {
			scratch = t.Vals[:0]
			if q.Pred == nil || q.Pred.EvalBool(t) {
				g := groups[groupOf(n)]
				g.add(t.Vals[3].AsFloat())
				groups[groupOf(n)] = g
			}
		}
		if n.ID == base {
			pending[n.ID] = groups
			continue
		}
		if len(groups) == 0 {
			continue // nothing to report; suppress the message entirely
		}
		parent, ok := e.net.SendToParent(n.ID, len(groups))
		if !ok {
			continue // lost: this subtree's contribution vanishes this epoch
		}
		pg := pending[parent]
		if pg == nil {
			pg = map[string]psr{}
			pending[parent] = pg
		}
		for k, g := range groups {
			cur := pg[k]
			cur.merge(g)
			pg[k] = cur
		}
		delete(pending, n.ID)
	}
	return e.emitGroups(q, pending[base], now, sink)
}

// runAggCentral ships raw readings to the base and aggregates there.
func (e *Engine) runAggCentral(q *AggregateQuery, now vtime.Time, keep NodeFilter, sink Sink) int {
	base := e.net.Base()
	groups := map[string]psr{}
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
			return true
		}
		if n.ID != base && !e.net.Send(n.ID, base, 1) {
			return true
		}
		key := ""
		if q.GroupByRoom {
			key = n.Room
		}
		g := groups[key]
		g.add(t.Vals[3].AsFloat())
		groups[key] = g
		return true
	})
	return e.emitGroups(q, groups, now, sink)
}

func (e *Engine) emitGroups(q *AggregateQuery, groups map[string]psr, now vtime.Time, sink Sink) int {
	if len(groups) == 0 {
		return 0
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	emitted := 0
	for _, k := range keys {
		g := groups[k]
		v, ok := g.final(q.Func)
		if !ok {
			continue
		}
		if q.GroupByRoom {
			sink(data.NewTuple(now, data.Str(k), data.Float(v)))
		} else {
			sink(data.NewTuple(now, data.Float(v)))
		}
		emitted++
	}
	return emitted
}

// StartAggregate schedules the query every q.Period (default 1s),
// delivering each epoch's group rows as one batch.
func (e *Engine) StartAggregate(q *AggregateQuery, sched *vtime.Scheduler, sink BatchSink) Runner {
	return startEpochRunner(sched, q.Period, sink, func(now vtime.Time, deliver Sink) {
		e.RunAggregateEpoch(q, now, deliver)
	})
}
