// Package plan turns parsed StreamSQL into logical plans and compiles them
// onto the stream engine. It also carries the stream engine's latency-based
// cost model; the sensor engine's message-based model lives with that
// engine, and internal/federation converts between the two (§3).
package plan

import (
	"fmt"
	"strings"
	"time"

	"aspen/internal/catalog"
	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/sql"
	"aspen/internal/stream"
)

// Node is a logical plan operator.
type Node interface {
	Schema() *data.Schema
	Children() []Node
	String() string
}

// Scan reads a named engine input (a catalog source or a derived stream
// fed by the sensor engine), through an optional window.
type Scan struct {
	// Input is the engine input name to subscribe to.
	Input string
	// Alias qualifies the columns.
	Alias string
	// Window applies to stream sources.
	Window *sql.WindowSpec
	// Rate estimates tuples/second (streams) or resident rows (tables).
	Rate float64
	// IsTable marks stored relations (no window, loaded once).
	IsTable bool

	schema *data.Schema
}

// NewScan builds a scan over a source schema, renamed to the alias.
func NewScan(input, alias string, schema *data.Schema, w *sql.WindowSpec, rate float64, isTable bool) *Scan {
	return &Scan{
		Input: input, Alias: alias, Window: w, Rate: rate, IsTable: isTable,
		schema: schema.Rename(alias),
	}
}

// NewDerivedScan builds a scan that preserves the schema's existing column
// qualifiers; used for derived streams produced by pushed sensor fragments,
// whose columns are already qualified by the original query bindings.
func NewDerivedScan(input string, schema *data.Schema, w *sql.WindowSpec, rate float64) *Scan {
	return &Scan{Input: input, Alias: schema.Name, Window: w, Rate: rate, schema: schema}
}

// Schema implements Node.
func (s *Scan) Schema() *data.Schema { return s.schema }

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

func (s *Scan) String() string {
	w := ""
	if s.Window != nil && s.Window.Kind != sql.WindowNone {
		w = " " + s.Window.String()
	}
	return fmt.Sprintf("scan(%s as %s%s)", s.Input, s.Alias, w)
}

// Select filters by a predicate.
type Select struct {
	In   Node
	Pred expr.Expr
}

// Schema implements Node.
func (s *Select) Schema() *data.Schema { return s.In.Schema() }

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.In} }

func (s *Select) String() string { return fmt.Sprintf("select[%s](%s)", s.Pred, s.In) }

// Join is an equi-join with optional residual predicate.
type Join struct {
	L, R       Node
	LKey, RKey []string
	Residual   expr.Expr

	schema *data.Schema
}

// NewJoin builds a join node.
func NewJoin(l, r Node, lKey, rKey []string, residual expr.Expr) *Join {
	return &Join{L: l, R: r, LKey: lKey, RKey: rKey, Residual: residual,
		schema: l.Schema().Concat(r.Schema())}
}

// Schema implements Node.
func (j *Join) Schema() *data.Schema { return j.schema }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.L, j.R} }

func (j *Join) String() string {
	keys := make([]string, len(j.LKey))
	for i := range j.LKey {
		keys[i] = j.LKey[i] + "=" + j.RKey[i]
	}
	res := ""
	if j.Residual != nil {
		res = " & " + j.Residual.String()
	}
	return fmt.Sprintf("join[%s%s](%s, %s)", strings.Join(keys, ","), res, j.L, j.R)
}

// Project maps through scalar expressions.
type Project struct {
	In    Node
	Items []stream.ProjectItem

	schema *data.Schema
}

// NewProject builds a projection node.
func NewProject(in Node, items []stream.ProjectItem) (*Project, error) {
	out, err := stream.OutSchema(in.Schema(), items)
	if err != nil {
		return nil, err
	}
	return &Project{In: in, Items: items, schema: out}, nil
}

// Schema implements Node.
func (p *Project) Schema() *data.Schema { return p.schema }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.In} }

func (p *Project) String() string {
	parts := make([]string, len(p.Items))
	for i, it := range p.Items {
		parts[i] = it.Expr.String()
	}
	return fmt.Sprintf("project[%s](%s)", strings.Join(parts, ", "), p.In)
}

// Aggregate groups and aggregates.
type Aggregate struct {
	In      Node
	GroupBy []string
	Specs   []stream.AggSpec
	Having  expr.Expr

	schema *data.Schema
}

// NewAggregate builds an aggregation node.
func NewAggregate(in Node, groupBy []string, specs []stream.AggSpec, having expr.Expr) (*Aggregate, error) {
	out, err := stream.AggOutSchema(in.Schema(), groupBy, specs)
	if err != nil {
		return nil, err
	}
	return &Aggregate{In: in, GroupBy: groupBy, Specs: specs, Having: having, schema: out}, nil
}

// Schema implements Node.
func (a *Aggregate) Schema() *data.Schema { return a.schema }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.In} }

func (a *Aggregate) String() string {
	aggs := make([]string, len(a.Specs))
	for i, s := range a.Specs {
		arg := "*"
		if s.Arg != nil {
			arg = s.Arg.String()
		}
		aggs[i] = fmt.Sprintf("%s(%s)", s.Kind, arg)
	}
	return fmt.Sprintf("agg[%s; %s](%s)", strings.Join(a.GroupBy, ","), strings.Join(aggs, ","), a.In)
}

// Distinct enforces set semantics.
type Distinct struct{ In Node }

// Schema implements Node.
func (d *Distinct) Schema() *data.Schema { return d.In.Schema() }

// Children implements Node.
func (d *Distinct) Children() []Node { return []Node{d.In} }

func (d *Distinct) String() string { return fmt.Sprintf("distinct(%s)", d.In) }

// Built is a fully constructed logical plan with its presentation clauses.
type Built struct {
	Root         Node
	OrderBy      []stream.OrderSpec
	Limit        int
	Display      string
	SamplePeriod time.Duration
	// View is the recursive view a WITH RECURSIVE plan's scans of its name
	// read (BuildRecursive); nil for every other plan.
	View *recView
}

// String renders the plan.
func (b *Built) String() string {
	s := b.Root.String()
	if len(b.OrderBy) > 0 {
		keys := make([]string, len(b.OrderBy))
		for i, o := range b.OrderBy {
			keys[i] = o.Col
			if o.Desc {
				keys[i] += " desc"
			}
		}
		s = fmt.Sprintf("sort[%s](%s)", strings.Join(keys, ","), s)
	}
	if b.Limit >= 0 {
		s = fmt.Sprintf("limit[%d](%s)", b.Limit, s)
	}
	if b.Display != "" {
		s = fmt.Sprintf("output[%s](%s)", b.Display, s)
	}
	return s
}

// Scans returns every scan in the plan, left to right.
func Scans(n Node) []*Scan {
	var out []*Scan
	var walk func(Node)
	walk = func(n Node) {
		if s, ok := n.(*Scan); ok {
			out = append(out, s)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(n)
	return out
}

// sourceSchema fetches the schema a catalog source exposes.
func sourceSchema(src *catalog.Source) *data.Schema { return src.Schema }
