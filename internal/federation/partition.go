package federation

import (
	"fmt"
	"strings"
	"time"

	"aspen/internal/catalog"
	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/plan"
	"aspen/internal/sensor"
	"aspen/internal/sensornet"
	"aspen/internal/sql"
)

// sensorItem pairs a FROM index with its physical sensor kind.
type sensorItem struct {
	idx  int
	kind sensornet.SensorKind
}

// buildAlternative constructs and prices one partition: the FROM items at
// pushedIdx are executed by the sensor engine, everything else by the
// stream engine. A nil Alternative with a reason means the partition failed
// a capability check.
func (f *Federator) buildAlternative(flat *sql.SelectStmt, conjuncts []expr.Expr,
	all []sensorItem, pushedIdx []int, kinds []sensornet.SensorKind, mask int) (*Alternative, string) {

	period := flat.SamplePeriod
	if period <= 0 {
		period = f.Cat.Stats().EpochPeriod
	}

	var fragments []*Fragment
	consumed := map[int]bool{} // conjunct indexes consumed by pushed work
	var rewritten sql.SelectStmt
	rewritten = *flat
	rewritten.From = nil

	// Capability check and fragment construction for the pushed subset.
	var pushed *Fragment
	switch len(pushedIdx) {
	case 0:
		// nothing pushed beyond raw acquisition
	case 1:
		fr, used, reason := f.selectFragment(flat, conjuncts, pushedIdx[0], kinds[0], period, mask)
		if fr == nil {
			return nil, reason
		}
		pushed = fr
		for _, u := range used {
			consumed[u] = true
		}
	case 2:
		fr, used, reason := f.joinFragment(flat, conjuncts, pushedIdx, kinds, period, mask)
		if fr == nil {
			return nil, reason
		}
		pushed = fr
		for _, u := range used {
			consumed[u] = true
		}
	default:
		return nil, fmt.Sprintf("partition %b: sensor engine executes at most pairwise joins (%d sources pushed)", mask, len(pushedIdx))
	}
	if pushed != nil {
		fragments = append(fragments, pushed)
	}

	// Rewritten FROM: derived item replaces the covered ones; everything
	// else stays. Non-pushed sensor sources acquire a trivial ship-all
	// fragment feeding their raw input.
	pushedSet := map[int]bool{}
	for _, i := range pushedIdx {
		pushedSet[i] = true
	}
	placedDerived := false
	for i, fi := range flat.From {
		if pushedSet[i] {
			if !placedDerived {
				item := sql.FromItem{Name: pushed.DerivedName, Alias: pushed.DerivedName}
				if fi.Window != nil {
					item.Window = fi.Window
				}
				rewritten.From = append(rewritten.From, item)
				placedDerived = true
			}
			continue
		}
		rewritten.From = append(rewritten.From, fi)
		for _, s := range all {
			if s.idx != i {
				continue
			}
			src, _ := f.Cat.Source(fi.Name)
			fr := &Fragment{
				Kind:        FragShipAll,
				DerivedName: src.Name,
				Bindings:    []string{fi.Binding()},
				Sources:     []string{strings.ToLower(src.Name)},
				Schema:      src.Schema,
				Select: &sensor.SelectQuery{
					Rel: fi.Binding(), Sensor: s.kind, Period: period,
				},
			}
			est, err := f.Sensors.Engine.EstimateSelect(fr.Select)
			if err != nil {
				return nil, fmt.Sprintf("partition %b: %v", mask, err)
			}
			fr.Est = est
			fragments = append(fragments, fr)
		}
	}

	// Remaining WHERE.
	var remaining []expr.Expr
	for i, c := range conjuncts {
		if !consumed[i] {
			remaining = append(remaining, c)
		}
	}
	rewritten.Where = expr.Conjoin(remaining)

	// The remainder reads the catalog's sources, plus the derived one when a
	// fragment is pushed: then it plans against a shadow catalog that
	// registers it beside copies of the rest.
	cat := f.Cat
	if pushed != nil {
		shadow := catalog.New()
		shadow.SetStats(f.Cat.Stats())
		for _, s := range f.Cat.Sources() {
			cp := *s
			if err := shadow.AddSource(&cp); err != nil {
				return nil, fmt.Sprintf("partition %b: %v", mask, err)
			}
		}
		if err := shadow.AddSource(&catalog.Source{
			Name: pushed.DerivedName, Kind: catalog.KindStream,
			Schema: pushed.Schema, Rate: pushed.Est.PerSecond(), Derived: true,
		}); err != nil {
			return nil, fmt.Sprintf("partition %b: %v", mask, err)
		}
		cat = shadow
	}

	built, err := plan.Build(&rewritten, cat)
	if err != nil {
		return nil, fmt.Sprintf("partition %b: stream engine rejects remainder: %v", mask, err)
	}

	alt := &Alternative{
		Fragments:  fragments,
		StreamPlan: built,
		StreamStmt: &rewritten,
		StreamWork: plan.Work(built.Root),
	}
	for _, fr := range fragments {
		alt.MsgsPerSec += fr.Est.PerSecond()
	}
	stats := f.Cat.Stats()
	radioCostPerMsg := stats.RadioMsgLatency.Seconds() + stats.RadioMsgEnergy*EnergySecondsPerMJ
	alt.Unified = alt.StreamWork*plan.PerTupleCost.Seconds() + alt.MsgsPerSec*radioCostPerMsg
	alt.Desc = describe(pushed, fragments)
	return alt, ""
}

func describe(pushed *Fragment, fragments []*Fragment) string {
	if pushed == nil {
		return fmt.Sprintf("all-stream (%d raw acquisitions)", len(fragments))
	}
	return fmt.Sprintf("push %s over {%s}; %d raw acquisitions",
		pushed.Kind, strings.Join(pushed.Bindings, ", "), len(fragments)-1)
}

// selectFragment pushes filtering for one sensor source in-network.
func (f *Federator) selectFragment(flat *sql.SelectStmt, conjuncts []expr.Expr,
	idx int, kind sensornet.SensorKind, period time.Duration, mask int) (*Fragment, []int, string) {

	fi := flat.From[idx]
	binding := fi.Binding()
	schema := sensor.ReadingSchema(binding)

	var local []expr.Expr
	var used []int
	for i, c := range conjuncts {
		if expr.BoundBy(c, schema) {
			local = append(local, c)
			used = append(used, i)
		}
	}
	q := &sensor.SelectQuery{Rel: binding, Sensor: kind, Period: period}
	if len(local) > 0 {
		pred, err := expr.Bind(expr.Conjoin(local), schema)
		if err != nil {
			return nil, nil, fmt.Sprintf("partition %b: cannot bind local predicate: %v", mask, err)
		}
		q.Pred = pred
	}
	est, err := f.Sensors.Engine.EstimateSelect(q)
	if err != nil {
		return nil, nil, fmt.Sprintf("partition %b: %v", mask, err)
	}
	return &Fragment{
		Kind:        FragSelect,
		DerivedName: derivedName(mask),
		Bindings:    []string{binding},
		Sources:     []string{strings.ToLower(fi.Name)},
		Schema:      schema,
		Select:      q,
		Est:         est,
	}, used, ""
}

// joinFragment pushes a pairwise in-network join.
func (f *Federator) joinFragment(flat *sql.SelectStmt, conjuncts []expr.Expr,
	pushedIdx []int, kinds []sensornet.SensorKind, period time.Duration, mask int) (*Fragment, []int, string) {

	bi := flat.From[pushedIdx[0]].Binding()
	bj := flat.From[pushedIdx[1]].Binding()
	si := sensor.ReadingSchema(bi)
	sj := sensor.ReadingSchema(bj)
	joined := si.Concat(sj)

	var leftLocal, rightLocal, residual []expr.Expr
	var used []int
	joinCols := map[string]bool{} // unqualified equi-join column names
	for i, c := range conjuncts {
		switch {
		case expr.BoundBy(c, si):
			leftLocal = append(leftLocal, c)
			used = append(used, i)
		case expr.BoundBy(c, sj):
			rightLocal = append(rightLocal, c)
			used = append(used, i)
		case expr.BoundBy(c, joined):
			if l, r, ok := expr.EquiJoin(c, si, sj); ok {
				_, ln := data.SplitQualified(l)
				_, rn := data.SplitQualified(r)
				if strings.EqualFold(ln, rn) && (strings.EqualFold(ln, "room") || strings.EqualFold(ln, "desk")) {
					joinCols[strings.ToLower(ln)] = true
					used = append(used, i)
					continue
				}
			}
			residual = append(residual, c)
			used = append(used, i)
		}
	}
	var pairBy sensor.PairBy
	switch {
	case joinCols["room"] && joinCols["desk"]:
		pairBy = sensor.PairSameDesk
	case joinCols["room"]:
		pairBy = sensor.PairSameRoom
	default:
		return nil, nil, fmt.Sprintf("partition %b: in-network join needs a room or room+desk equi-join between %s and %s", mask, bi, bj)
	}

	q := &sensor.JoinQuery{
		Left:      sensor.JoinSide{Rel: bi, Sensor: kinds[0]},
		Right:     sensor.JoinSide{Rel: bj, Sensor: kinds[1]},
		PairBy:    pairBy,
		Placement: sensor.PlaceOptimized,
		Period:    period,
	}
	bindSide := func(local []expr.Expr, schema *data.Schema) (*expr.Compiled, error) {
		if len(local) == 0 {
			return nil, nil
		}
		return expr.Bind(expr.Conjoin(local), schema)
	}
	var err error
	if q.Left.Pred, err = bindSide(leftLocal, si); err != nil {
		return nil, nil, fmt.Sprintf("partition %b: %v", mask, err)
	}
	if q.Right.Pred, err = bindSide(rightLocal, sj); err != nil {
		return nil, nil, fmt.Sprintf("partition %b: %v", mask, err)
	}
	if len(residual) > 0 {
		if q.On, err = expr.Bind(expr.Conjoin(residual), joined); err != nil {
			return nil, nil, fmt.Sprintf("partition %b: %v", mask, err)
		}
	}
	st, err := f.Sensors.Engine.PlanJoin(q)
	if err != nil {
		return nil, nil, fmt.Sprintf("partition %b: %v", mask, err)
	}
	est, err := f.Sensors.Engine.EstimateJoin(st)
	if err != nil {
		return nil, nil, fmt.Sprintf("partition %b: %v", mask, err)
	}
	return &Fragment{
		Kind:        FragJoin,
		DerivedName: derivedName(mask),
		Bindings:    []string{bi, bj},
		Sources: []string{
			strings.ToLower(flat.From[pushedIdx[0]].Name),
			strings.ToLower(flat.From[pushedIdx[1]].Name),
		},
		Schema: joined,
		Join:   q,
		Est:    est,
	}, used, ""
}

func derivedName(mask int) string { return fmt.Sprintf("aspen_frag_%d", mask) }
