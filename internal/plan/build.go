package plan

import (
	"fmt"
	"strings"

	"aspen/internal/catalog"
	"aspen/internal/expr"
	"aspen/internal/sql"
	"aspen/internal/stream"
)

// Build turns a SELECT into a logical plan: views are inlined (the Fig. 1
// rewrite of OpenMachineInfo), predicates are pushed to their scans, joins
// are ordered greedily by estimated cardinality, and aggregation /
// projection / presentation clauses are layered on top.
func Build(stmt *sql.SelectStmt, cat *catalog.Catalog) (*Built, error) {
	flat, err := inlineViews(stmt, cat, 0)
	if err != nil {
		return nil, err
	}
	return buildFlat(flat, cat)
}

// Inline rewrites view references in the statement into their definitions;
// exported for the federated optimizer, which analyzes the flattened FROM.
func Inline(stmt *sql.SelectStmt, cat *catalog.Catalog) (*sql.SelectStmt, error) {
	return inlineViews(stmt, cat, 0)
}

const maxViewDepth = 8

// inlineViews rewrites FROM items naming views into their definitions,
// recursively, requalifying the view's internal aliases and substituting
// its projection into the outer expressions.
func inlineViews(stmt *sql.SelectStmt, cat *catalog.Catalog, depth int) (*sql.SelectStmt, error) {
	if depth > maxViewDepth {
		return nil, fmt.Errorf("plan: view nesting deeper than %d (cycle?)", maxViewDepth)
	}
	out := *stmt
	out.From = nil
	out.Where = stmt.Where
	changed := false
	for _, f := range stmt.From {
		view, isView := cat.View(f.Name)
		if !isView {
			out.From = append(out.From, f)
			continue
		}
		changed = true
		inner := view.Query
		if inner.Star || len(inner.GroupBy) > 0 || inner.Distinct || len(inner.OrderBy) > 0 || inner.Limit >= 0 {
			return nil, fmt.Errorf("plan: view %s is too complex to inline (needs plain select-project-join)", view.Name)
		}
		outerAlias := f.Binding()
		// Re-alias the view's FROM items uniquely.
		rename := map[string]string{} // inner binding (lower) -> new alias
		for _, inf := range inner.From {
			na := outerAlias + "_" + inf.Binding()
			rename[strings.ToLower(inf.Binding())] = na
			nf := inf
			nf.Alias = na
			out.From = append(out.From, nf)
		}
		requal := func(e expr.Expr) expr.Expr {
			for old, nw := range rename {
				e = expr.Requalify(e, old, nw)
			}
			return e
		}
		// The view's WHERE joins the outer WHERE.
		if inner.Where != nil {
			w := requal(inner.Where)
			out.Where = expr.Conjoin([]expr.Expr{out.Where, w})
		}
		// Build the substitution outerAlias.col -> inner expression.
		sub := map[string]expr.Expr{}
		for i, item := range inner.Items {
			name := item.Alias
			if name == "" {
				col, ok := item.Expr.(expr.Col)
				if !ok {
					return nil, fmt.Errorf("plan: view %s item %d needs an alias", view.Name, i)
				}
				_, name = splitRef(col.Ref)
			}
			sub[strings.ToLower(outerAlias+"."+name)] = requal(item.Expr)
		}
		out.Where = expr.Substitute(out.Where, sub)
		out.Having = expr.Substitute(out.Having, sub)
		for i := range out.Items {
			if i < len(stmt.Items) {
				out.Items[i].Expr = expr.Substitute(stmt.Items[i].Expr, sub)
			}
		}
		// ORDER BY and GROUP BY references to the view's columns.
		for i, g := range out.GroupBy {
			if rep, ok := sub[strings.ToLower(g)]; ok {
				if col, isCol := rep.(expr.Col); isCol {
					out.GroupBy[i] = col.Ref
				}
			}
		}
		for i, o := range out.OrderBy {
			if rep, ok := sub[strings.ToLower(o.Ref)]; ok {
				if col, isCol := rep.(expr.Col); isCol {
					out.OrderBy[i].Ref = col.Ref
				}
			}
		}
	}
	if !changed {
		return stmt, nil
	}
	return inlineViews(&out, cat, depth+1)
}

func splitRef(ref string) (rel, name string) {
	if i := strings.IndexByte(ref, '.'); i >= 0 {
		return ref[:i], ref[i+1:]
	}
	return "", ref
}

// buildFlat plans a view-free statement.
func buildFlat(stmt *sql.SelectStmt, cat *catalog.Catalog) (*Built, error) {
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("plan: empty FROM")
	}
	// Base scans.
	var nodes []Node
	seen := map[string]bool{}
	for _, f := range stmt.From {
		scan, err := fromScan(f, cat)
		if err != nil {
			return nil, err
		}
		binding := strings.ToLower(f.Binding())
		if seen[binding] {
			return nil, fmt.Errorf("plan: duplicate binding %q in FROM", f.Binding())
		}
		seen[binding] = true
		nodes = append(nodes, scan)
	}

	// Distribute conjuncts: local predicates below, join predicates kept.
	conjuncts := expr.Conjuncts(stmt.Where)
	var joinPreds []expr.Expr
	for _, c := range conjuncts {
		placed := false
		for i, n := range nodes {
			if expr.BoundBy(c, n.Schema()) {
				nodes[i] = &Select{In: n, Pred: c}
				placed = true
				break
			}
		}
		if !placed {
			joinPreds = append(joinPreds, c)
		}
	}
	// one Select per scan, conjoining its conjuncts in WHERE order
	for i, n := range nodes {
		nodes[i] = collapseSelect(n)
	}

	// Greedy join ordering.
	root, err := orderJoins(nodes, joinPreds)
	if err != nil {
		return nil, err
	}

	// Aggregation or plain projection.
	items := stmt.Items
	if stmt.Star {
		items = starItems(root)
	}
	var top Node = root
	aggSpecs, aggItems, isAgg, err := splitAggregates(items)
	if err != nil {
		return nil, err
	}
	if isAgg || len(stmt.GroupBy) > 0 || stmt.Having != nil {
		if !isAgg {
			return nil, fmt.Errorf("plan: GROUP BY/HAVING without aggregates")
		}
		agg, err := NewAggregate(top, stmt.GroupBy, aggSpecs, stmt.Having)
		if err != nil {
			return nil, err
		}
		// Non-aggregate items must be grouping columns.
		for _, it := range aggItems {
			if it.agg < 0 {
				col, ok := it.item.Expr.(expr.Col)
				if !ok || !inGroupBy(col.Ref, stmt.GroupBy) {
					return nil, fmt.Errorf("plan: %s is neither aggregated nor grouped", it.item.Expr)
				}
			}
		}
		top = agg
		// Reproject to the SELECT order over the aggregate's output.
		proj := make([]stream.ProjectItem, len(aggItems))
		for i, it := range aggItems {
			if it.agg >= 0 {
				name := aggSpecs[it.agg].Alias
				proj[i] = stream.ProjectItem{Expr: expr.C(name), Alias: name}
			} else {
				proj[i] = stream.ProjectItem{Expr: it.item.Expr, Alias: it.item.Alias}
			}
		}
		p, err := NewProject(top, proj)
		if err != nil {
			return nil, err
		}
		top = p
	} else {
		p, err := NewProject(top, toProjectItems(items))
		if err != nil {
			return nil, err
		}
		top = p
	}
	if stmt.Distinct {
		top = &Distinct{In: top}
	}

	b := &Built{Root: top, Limit: stmt.Limit, Display: stmt.OutputTo, SamplePeriod: stmt.SamplePeriod}
	for _, o := range stmt.OrderBy {
		ref := o.Ref
		if !top.Schema().HasCol(ref) {
			return nil, fmt.Errorf("plan: ORDER BY %s not in result %s", ref, top.Schema())
		}
		b.OrderBy = append(b.OrderBy, stream.OrderSpec{Col: ref, Desc: o.Desc})
	}
	if stmt.Limit >= 0 {
		b.Limit = stmt.Limit
	} else {
		b.Limit = -1
	}
	return b, nil
}

// fromScan builds the scan of one FROM item, through the item's window: an
// unknown source, or a window on a stored table, is an error.
func fromScan(f sql.FromItem, cat *catalog.Catalog) (*Scan, error) {
	src, ok := cat.Source(f.Name)
	if !ok {
		return nil, fmt.Errorf("plan: unknown source %q", f.Name)
	}
	isTable := src.Kind == catalog.KindTable
	if isTable && f.Window != nil {
		return nil, fmt.Errorf("plan: window on stored table %s", f.Name)
	}
	if src.Derived {
		// Derived fragments keep their embedded column qualifiers
		// (e.g. sa.room, ss.desk inside a pushed join's output).
		return NewDerivedScan(src.Name, sourceSchema(src), f.Window, src.Cardinality()), nil
	}
	return NewScan(src.Name, f.Binding(), sourceSchema(src), f.Window, src.Cardinality(), isTable), nil
}

func collapseSelect(n Node) Node {
	s, ok := n.(*Select)
	if !ok {
		return n
	}
	for {
		inner, ok := s.In.(*Select)
		if !ok {
			return s
		}
		s = &Select{In: inner.In, Pred: expr.Conjoin([]expr.Expr{inner.Pred, s.Pred})}
	}
}

// orderJoins greedily combines nodes, preferring equi-joins with the
// smallest estimated output, falling back to cross joins.
func orderJoins(nodes []Node, preds []expr.Expr) (Node, error) {
	remaining := append([]expr.Expr(nil), preds...)
	for len(nodes) > 1 {
		type cand struct {
			i, j   int
			lk, rk []string
			used   []int
			card   float64
		}
		var best *cand
		for i := 0; i < len(nodes); i++ {
			for j := 0; j < len(nodes); j++ {
				if i == j {
					continue
				}
				var lk, rk []string
				var used []int
				for pi, p := range remaining {
					if l, r, ok := expr.EquiJoin(p, nodes[i].Schema(), nodes[j].Schema()); ok {
						lk = append(lk, l)
						rk = append(rk, r)
						used = append(used, pi)
					}
				}
				if len(lk) == 0 {
					continue
				}
				card := Card(nodes[i]) * Card(nodes[j]) * 0.1
				if best == nil || card < best.card {
					best = &cand{i: i, j: j, lk: lk, rk: rk, used: used, card: card}
				}
			}
		}
		var joined Node
		var i, j int
		if best != nil {
			i, j = best.i, best.j
			joined = NewJoin(nodes[i], nodes[j], best.lk, best.rk, nil)
			// remove used predicates
			keep := remaining[:0]
			usedSet := map[int]bool{}
			for _, u := range best.used {
				usedSet[u] = true
			}
			for pi, p := range remaining {
				if !usedSet[pi] {
					keep = append(keep, p)
				}
			}
			remaining = keep
		} else {
			// no equi-join available: cross join the two smallest
			i, j = smallestPair(nodes)
			joined = NewJoin(nodes[i], nodes[j], nil, nil, nil)
		}
		// attach any residual predicates now bound
		var residuals []expr.Expr
		keep := remaining[:0]
		for _, p := range remaining {
			if expr.BoundBy(p, joined.Schema()) {
				residuals = append(residuals, p)
			} else {
				keep = append(keep, p)
			}
		}
		remaining = keep
		if len(residuals) > 0 {
			joined = &Select{In: joined, Pred: expr.Conjoin(residuals)}
		}
		// replace i and j with the joined node
		var next []Node
		for k, n := range nodes {
			if k != i && k != j {
				next = append(next, n)
			}
		}
		nodes = append(next, joined)
	}
	if len(remaining) > 0 {
		return nil, fmt.Errorf("plan: unplaceable predicate %s", remaining[0])
	}
	return nodes[0], nil
}

func smallestPair(nodes []Node) (int, int) {
	bi, bj := 0, 1
	bc := Card(nodes[0]) * Card(nodes[1])
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if c := Card(nodes[i]) * Card(nodes[j]); c < bc {
				bi, bj, bc = i, j, c
			}
		}
	}
	return bi, bj
}

func starItems(n Node) []sql.SelectItem {
	var items []sql.SelectItem
	for _, c := range n.Schema().Cols {
		items = append(items, sql.SelectItem{Expr: expr.C(c.QName())})
	}
	return items
}

func toProjectItems(items []sql.SelectItem) []stream.ProjectItem {
	out := make([]stream.ProjectItem, len(items))
	for i, it := range items {
		out[i] = stream.ProjectItem{Expr: it.Expr, Alias: it.Alias}
	}
	return out
}

type aggItem struct {
	item sql.SelectItem
	agg  int // index into specs, or -1 for plain items
}

// splitAggregates detects aggregate calls in the select list. Aggregates
// may only appear at the top level of an item.
func splitAggregates(items []sql.SelectItem) ([]stream.AggSpec, []aggItem, bool, error) {
	var specs []stream.AggSpec
	out := make([]aggItem, len(items))
	found := false
	for i, it := range items {
		call, ok := it.Expr.(expr.Call)
		if !ok {
			out[i] = aggItem{item: it, agg: -1}
			continue
		}
		kind, isAgg := stream.ParseAggKind(call.Name)
		if !isAgg {
			out[i] = aggItem{item: it, agg: -1}
			continue
		}
		found = true
		var arg expr.Expr
		if len(call.Args) == 1 {
			if col, isCol := call.Args[0].(expr.Col); isCol && col.Ref == "*" {
				if kind != stream.AggCount {
					return nil, nil, false, fmt.Errorf("plan: %s(*) is not valid", kind)
				}
			} else {
				arg = call.Args[0]
			}
		} else if len(call.Args) > 1 {
			return nil, nil, false, fmt.Errorf("plan: %s takes one argument", kind)
		}
		alias := it.Alias
		if alias == "" {
			alias = fmt.Sprintf("%s_%d", kind, i+1)
		}
		specs = append(specs, stream.AggSpec{Kind: kind, Arg: arg, Alias: alias})
		out[i] = aggItem{item: it, agg: len(specs) - 1}
	}
	return specs, out, found, nil
}

func inGroupBy(ref string, groupBy []string) bool {
	for _, g := range groupBy {
		if strings.EqualFold(g, ref) {
			return true
		}
		// allow unqualified match
		_, gn := splitRef(g)
		_, rn := splitRef(ref)
		if strings.EqualFold(gn, rn) {
			return true
		}
	}
	return false
}
