package plan

import (
	"fmt"
	"strings"

	"aspen/internal/catalog"
	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sql"
	"aspen/internal/stream"
	"aspen/internal/views"
)

// recView is the recursive view a WITH RECURSIVE plan's body reads. Its
// deployment feeds every scan of the view's name: the compile builds a
// views.View in front of each such scan's head and compiles base and edge
// into the view's two inputs, like any other scan's pipeline.
type recView struct {
	cfg  views.Config
	base Node // Project(Select?(Scan)): the base case, seeding the view
	edge Node // Select?(Scan): the source the recursive rule joins
}

// feeds reports whether x reads the view (never, on a plan without one).
func (r *recView) feeds(x *Scan) bool {
	return r != nil && strings.EqualFold(x.Input, r.cfg.Schema.Name)
}

// BuildRecursive plans a WITH RECURSIVE statement onto internal/views: the
// base select seeds the view, the recursive select is its rule — a linear
// join between the view and one edge source — and the body is planned like
// any SELECT over the view, which the returned plan carries in View.
// maxDepth bounds the recursion (views.Config.MaxDepth).
func BuildRecursive(wr *sql.WithRecursive, cat *catalog.Catalog, maxDepth int) (*Built, error) {
	// --- base case: single-source select-project ------------------------
	if len(wr.Base.From) != 1 {
		return nil, fmt.Errorf("plan: recursive base must scan one source")
	}
	baseScan, err := fromScan(wr.Base.From[0], cat)
	if err != nil {
		return nil, err
	}
	if wr.Base.Star || len(wr.Base.Items) == 0 {
		return nil, fmt.Errorf("plan: recursive base needs explicit projection")
	}
	var base Node = baseScan
	if wr.Base.Where != nil {
		base = &Select{In: baseScan, Pred: wr.Base.Where}
	}
	baseProj, err := NewProject(base, toProjectItems(wr.Base.Items))
	if err != nil {
		return nil, fmt.Errorf("plan: recursive base: %w", err)
	}

	// View schema: named by the statement's column list (or item aliases),
	// typed by the base projection.
	viewSchema := &data.Schema{Name: wr.Name, IsStream: true}
	for i, col := range baseProj.Schema().Cols {
		if i < len(wr.Cols) {
			col.Name = wr.Cols[i]
		}
		col.Rel = wr.Name
		viewSchema.Cols = append(viewSchema.Cols, col)
	}

	// --- recursive rule: view ⋈ edge ------------------------------------
	if len(wr.Rec.From) != 2 {
		return nil, fmt.Errorf("plan: recursive rule must join the view with one source")
	}
	var viewBinding string
	var edgeFrom sql.FromItem
	for _, f := range wr.Rec.From {
		if strings.EqualFold(f.Name, wr.Name) {
			viewBinding = f.Binding()
		} else {
			edgeFrom = f
		}
	}
	if viewBinding == "" {
		return nil, fmt.Errorf("plan: recursive rule does not reference %s", wr.Name)
	}
	edgeScan, err := fromScan(edgeFrom, cat)
	if err != nil {
		return nil, err
	}
	edgeSchema := edgeScan.Schema()

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
			return nil, fmt.Errorf("plan: recursive predicate %s references unknown columns", c)
		}
		residual = append(residual, q)
	}
	if len(viewKey) == 0 {
		return nil, fmt.Errorf("plan: recursive rule needs an equi-join between %s and %s",
			wr.Name, edgeFrom.Binding())
	}
	if len(wr.Rec.Items) != viewSchema.Arity() {
		return nil, fmt.Errorf("plan: recursive projection arity %d != view arity %d",
			len(wr.Rec.Items), viewSchema.Arity())
	}
	project := make([]stream.ProjectItem, len(wr.Rec.Items))
	for i, item := range wr.Rec.Items {
		project[i] = stream.ProjectItem{Expr: requal(item.Expr), Alias: item.Alias}
	}
	var edge Node = edgeScan
	if len(edgeLocal) > 0 {
		edge = &Select{In: edgeScan, Pred: expr.Conjoin(edgeLocal)}
	}

	// --- body over the view, planned as a source of the catalog ---------
	shadow := catalog.New()
	shadow.SetStats(cat.Stats())
	for _, s := range cat.Sources() {
		cp := *s
		if err := shadow.AddSource(&cp); err != nil {
			return nil, err
		}
	}
	if err := shadow.AddSource(&catalog.Source{
		Name: wr.Name, Kind: catalog.KindStream, Schema: viewSchema, Rate: baseScan.Rate * 4,
	}); err != nil {
		return nil, err
	}
	b, err := Build(wr.Body, shadow)
	if err != nil {
		return nil, err
	}
	b.View = &recView{
		cfg: views.Config{
			Schema:     viewSchema,
			EdgeSchema: edgeSchema,
			ViewKey:    viewKey,
			EdgeKey:    edgeKey,
			Residual:   expr.Conjoin(residual),
			Project:    project,
			MaxDepth:   maxDepth,
		},
		base: baseProj,
		edge: edge,
	}
	return b, nil
}

// view compiles the recursive view feeding one of the body's scans into
// head: a views.View of the scan's own, with the base and edge plans
// compiled into its inputs like any other scan's pipeline.
func (c *compiler) view(head stream.Operator) error {
	v, err := views.New(c.rec.cfg, head)
	if err != nil {
		return err
	}
	if err := c.compile(c.rec.base, v.BaseInput(), nil); err != nil {
		return err
	}
	return c.compile(c.rec.edge, v.EdgeInput(), nil)
}
