package core

import (
	"fmt"
	"strings"

	"aspen/internal/catalog"
	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/plan"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/views"
)

// deployRecursive lowers WITH RECURSIVE onto internal/views: the base
// select seeds the view, the recursive select defines the rule (a linear
// join between the view and one edge source), and the body runs as a normal
// continuous query over the maintained view — deployed, like any SELECT,
// through the coordinator, with the view's base and edge pipelines subscribed
// on the deployment's behalf so Stop detaches them with it.
func (rt *Runtime) deployRecursive(sqlText string, wr *sql.WithRecursive) (*Query, error) {
	// --- base case: single-source select-project ------------------------
	if len(wr.Base.From) != 1 {
		return nil, fmt.Errorf("core: recursive base must scan one source")
	}
	baseFrom := wr.Base.From[0]
	baseSrc, ok := rt.Cat.Source(baseFrom.Name)
	if !ok {
		return nil, fmt.Errorf("core: unknown source %q in recursive base", baseFrom.Name)
	}
	baseSchema := baseSrc.Schema.Rename(baseFrom.Binding())
	if wr.Base.Star || len(wr.Base.Items) == 0 {
		return nil, fmt.Errorf("core: recursive base needs explicit projection")
	}

	// View schema: named by the statement's column list (or item aliases),
	// typed by the base projection.
	viewSchema := &data.Schema{Name: wr.Name, IsStream: true}
	for i, item := range wr.Base.Items {
		c, err := expr.Bind(item.Expr, baseSchema)
		if err != nil {
			return nil, fmt.Errorf("core: recursive base item %d: %w", i, err)
		}
		name := item.Alias
		if i < len(wr.Cols) {
			name = wr.Cols[i]
		}
		if name == "" {
			if col, isCol := item.Expr.(expr.Col); isCol {
				_, name = data.SplitQualified(col.Ref)
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		viewSchema.Cols = append(viewSchema.Cols, data.Column{Rel: wr.Name, Name: name, Type: c.Type})
	}

	// --- recursive rule: view ⋈ edge ------------------------------------
	if len(wr.Rec.From) != 2 {
		return nil, fmt.Errorf("core: recursive rule must join the view with one source")
	}
	var viewBinding string
	var edgeFrom sql.FromItem
	found := false
	for _, f := range wr.Rec.From {
		if strings.EqualFold(f.Name, wr.Name) {
			viewBinding = f.Binding()
			found = true
		} else {
			edgeFrom = f
		}
	}
	if !found {
		return nil, fmt.Errorf("core: recursive rule does not reference %s", wr.Name)
	}
	edgeSrc, ok := rt.Cat.Source(edgeFrom.Name)
	if !ok {
		return nil, fmt.Errorf("core: unknown source %q in recursive rule", edgeFrom.Name)
	}
	edgeSchema := edgeSrc.Schema.Rename(edgeFrom.Binding())

	// Requalify view references from the rule's binding to the view name.
	requal := func(e expr.Expr) expr.Expr { return expr.Requalify(e, viewBinding, wr.Name) }

	// Split the rule's WHERE into equi-join keys, edge-local predicates,
	// and residuals.
	var viewKey, edgeKey []string
	var edgeLocal, residual []expr.Expr
	joined := viewSchema.Concat(edgeSchema)
	for _, c := range expr.Conjuncts(wr.Rec.Where) {
		q := requal(c)
		if l, r, ok := expr.EquiJoin(q, viewSchema, edgeSchema); ok {
			viewKey = append(viewKey, l)
			edgeKey = append(edgeKey, r)
			continue
		}
		if expr.BoundBy(q, edgeSchema) {
			edgeLocal = append(edgeLocal, q)
			continue
		}
		if !expr.BoundBy(q, joined) {
			return nil, fmt.Errorf("core: recursive predicate %s references unknown columns", c)
		}
		residual = append(residual, q)
	}
	if len(viewKey) == 0 {
		return nil, fmt.Errorf("core: recursive rule needs an equi-join between %s and %s",
			wr.Name, edgeFrom.Binding())
	}
	if len(wr.Rec.Items) != viewSchema.Arity() {
		return nil, fmt.Errorf("core: recursive projection arity %d != view arity %d",
			len(wr.Rec.Items), viewSchema.Arity())
	}
	project := make([]stream.ProjectItem, len(wr.Rec.Items))
	for i, item := range wr.Rec.Items {
		project[i] = stream.ProjectItem{Expr: requal(item.Expr), Alias: item.Alias}
	}

	// --- body over the maintained view ----------------------------------
	shadow := catalog.New()
	shadow.SetStats(rt.Cat.Stats())
	for _, s := range rt.Cat.Sources() {
		cp := *s
		if err := shadow.AddSource(&cp); err != nil {
			return nil, err
		}
	}
	if err := shadow.AddSource(&catalog.Source{
		Name: wr.Name, Kind: catalog.KindStream, Schema: viewSchema,
		Rate: baseSrc.Cardinality() * 4,
	}); err != nil {
		return nil, err
	}
	built, err := plan.Build(wr.Body, shadow)
	if err != nil {
		return nil, err
	}
	q, err := rt.deploy(sqlText, built, plan.CompileOptions{})
	if err != nil {
		return nil, err
	}
	dep := q.Deployment
	fail := func(err error) (*Query, error) {
		q.Stop()
		return nil, err
	}
	viewIn, ok := rt.Stream.Input(wr.Name)
	if !ok {
		if viewIn, err = rt.Stream.Register(wr.Name, viewSchema); err != nil {
			return fail(err)
		}
	}

	v, err := views.New(views.Config{
		Schema:     viewSchema,
		EdgeSchema: edgeSchema,
		ViewKey:    viewKey,
		EdgeKey:    edgeKey,
		Residual:   expr.Conjoin(residual),
		Project:    project,
		MaxDepth:   rt.recursion,
	}, stream.NewCallback(viewSchema, viewIn.PushBatch))
	if err != nil {
		return fail(err)
	}

	// Wire the base pipeline: source → [filter] → project → BaseInput.
	baseHead, err := pipelineInto(v.BaseInput(), baseSchema, wr.Base.Where, wr.Base.Items)
	if err != nil {
		return fail(err)
	}
	// Wire the edge pipeline: source → [edge-local filter] → EdgeInput.
	var edgeHead stream.Operator = v.EdgeInput()
	if len(edgeLocal) > 0 {
		pred, err := expr.Bind(expr.Conjoin(edgeLocal), edgeSchema)
		if err != nil {
			return fail(err)
		}
		edgeHead = stream.NewFilter(edgeHead, pred)
	}

	// Subscribe both pipelines to their sources' inputs, through the
	// deployment, and feed current table rows (if stored).
	srcIn, ok := rt.Stream.Input(baseFrom.Name)
	if !ok {
		if srcIn, err = rt.Stream.Register(baseFrom.Name, baseSrc.Schema); err != nil {
			return fail(err)
		}
	}
	dep.Feed(srcIn, baseHead)
	if !strings.EqualFold(edgeFrom.Name, baseFrom.Name) {
		edgeIn, ok := rt.Stream.Input(edgeFrom.Name)
		if !ok {
			if edgeIn, err = rt.Stream.Register(edgeFrom.Name, edgeSrc.Schema); err != nil {
				return fail(err)
			}
		}
		dep.Feed(edgeIn, edgeHead)
		if edgeSrc.Table != nil {
			rt.loadRelation(edgeSrc.Table, edgeHead)
		}
	} else {
		dep.Feed(srcIn, edgeHead)
	}
	if baseSrc.Table != nil {
		rt.loadRelation(baseSrc.Table, baseHead)
		if strings.EqualFold(edgeFrom.Name, baseFrom.Name) {
			rt.loadRelation(baseSrc.Table, edgeHead)
		}
	}
	rt.loadTables(dep)
	return q, nil
}

// pipelineInto builds source → [filter] → project → sink and returns the
// head operator.
func pipelineInto(sink stream.Operator, in *data.Schema, where expr.Expr, items []sql.SelectItem) (stream.Operator, error) {
	proj := make([]stream.ProjectItem, len(items))
	for i, it := range items {
		proj[i] = stream.ProjectItem{Expr: it.Expr, Alias: it.Alias}
	}
	p, err := stream.NewProject(sink, in, proj)
	if err != nil {
		return nil, err
	}
	var head stream.Operator = p
	if where != nil {
		pred, err := expr.Bind(where, in)
		if err != nil {
			return nil, err
		}
		head = stream.NewFilter(head, pred)
	}
	return head, nil
}

func (rt *Runtime) loadRelation(rel *data.Relation, head stream.Operator) {
	now := rt.Sched.Now()
	var rows []data.Tuple
	rel.Scan(func(t data.Tuple) bool {
		t.TS = now
		t.Op = data.Insert
		rows = append(rows, t)
		return true
	})
	head.PushBatch(rows)
}
