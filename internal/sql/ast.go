package sql

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
)

// Statement is any parsed StreamSQL statement.
type Statement interface {
	fmt.Stringer
	stmt()
}

// WindowKind classifies stream windows.
type WindowKind uint8

// Window kinds.
const (
	WindowNone  WindowKind = iota // stored relation, no window
	WindowRange                   // time-based sliding window
	WindowRows                    // row-count window
	WindowNow                     // instantaneous window
)

// WindowSpec is the bracketed window clause of a stream in FROM.
type WindowSpec struct {
	Kind  WindowKind
	Range time.Duration // WindowRange
	Slide time.Duration // WindowRange; 0 means per-tuple slide
	Rows  int           // WindowRows
}

// String renders the window clause.
func (w *WindowSpec) String() string {
	switch w.Kind {
	case WindowRange:
		if w.Slide > 0 {
			return fmt.Sprintf("[RANGE %s SLIDE %s]", durSQL(w.Range), durSQL(w.Slide))
		}
		return fmt.Sprintf("[RANGE %s]", durSQL(w.Range))
	case WindowRows:
		return fmt.Sprintf("[ROWS %d]", w.Rows)
	case WindowNow:
		return "[NOW]"
	}
	return ""
}

// FromItem is one relation/stream/view reference in FROM.
type FromItem struct {
	Name   string
	Alias  string // defaults to Name
	Window *WindowSpec
}

// Binding returns the name the item is referenced by in the query.
func (f FromItem) Binding() string {
	if f.Alias != "" {
		return f.Alias
	}
	return f.Name
}

func (f FromItem) String() string {
	var b strings.Builder
	b.WriteString(identSQL(f.Name))
	if f.Alias != "" && !strings.EqualFold(f.Alias, f.Name) {
		b.WriteString(" ")
		b.WriteString(identSQL(f.Alias))
	}
	if f.Window != nil && f.Window.Kind != WindowNone {
		b.WriteString(" ")
		b.WriteString(f.Window.String())
	}
	return b.String()
}

// SelectItem is one projection in the SELECT list.
type SelectItem struct {
	Expr  expr.Expr
	Alias string
}

func (s SelectItem) String() string {
	if s.Alias != "" {
		return fmt.Sprintf("%s AS %s", exprSQL(s.Expr), identSQL(s.Alias))
	}
	return exprSQL(s.Expr)
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Ref  string
	Desc bool
}

func (o OrderKey) String() string {
	if o.Desc {
		return refSQL(o.Ref) + " DESC"
	}
	return refSQL(o.Ref)
}

// SelectStmt is a SELECT block with ASPEN's stream extensions.
type SelectStmt struct {
	Distinct     bool
	Star         bool
	Items        []SelectItem
	From         []FromItem
	Where        expr.Expr
	GroupBy      []string
	Having       expr.Expr
	OrderBy      []OrderKey
	Limit        int           // -1 when absent
	SamplePeriod time.Duration // device extension; 0 when absent
	OutputTo     string        // display routing extension; "" when absent
}

func (*SelectStmt) stmt() {}

// String unparses the statement to valid StreamSQL (parse(String()) is
// a fixpoint, verified by property test).
func (s *SelectStmt) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	if s.Star {
		b.WriteString("*")
	} else {
		for i, it := range s.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(it.String())
		}
	}
	b.WriteString(" FROM ")
	for i, f := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(exprSQL(s.Where))
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(refSQL(g))
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(exprSQL(s.Having))
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	if s.SamplePeriod > 0 {
		fmt.Fprintf(&b, " SAMPLE PERIOD %s", durSQL(s.SamplePeriod))
	}
	if s.OutputTo != "" {
		fmt.Fprintf(&b, " OUTPUT TO %s", identSQL(s.OutputTo))
	}
	return b.String()
}

// CreateView names a query for reuse; Fig. 1's OpenMachineInfo.
type CreateView struct {
	Name  string
	Query *SelectStmt
}

func (*CreateView) stmt() {}

func (c *CreateView) String() string {
	return fmt.Sprintf("CREATE VIEW %s AS (%s)", identSQL(c.Name), c.Query)
}

// WithRecursive is the transitive-closure extension: a recursive view
// defined by a base case UNION [ALL] a recursive case, then a body query
// over it. Used for building path routing (§3).
type WithRecursive struct {
	Name string
	Cols []string
	Base *SelectStmt
	Rec  *SelectStmt
	All  bool
	Body *SelectStmt
}

func (*WithRecursive) stmt() {}

func (w *WithRecursive) String() string {
	union := "UNION"
	if w.All {
		union = "UNION ALL"
	}
	cols := ""
	if len(w.Cols) > 0 {
		quoted := make([]string, len(w.Cols))
		for i, c := range w.Cols {
			quoted[i] = identSQL(c)
		}
		cols = "(" + strings.Join(quoted, ", ") + ")"
	}
	return fmt.Sprintf("WITH RECURSIVE %s%s AS (%s %s %s) %s",
		identSQL(w.Name), cols, w.Base, union, w.Rec, w.Body)
}

// durSQL renders a duration in StreamSQL unit syntax.
func durSQL(d time.Duration) string {
	switch {
	case d%time.Hour == 0 && d >= time.Hour:
		return fmt.Sprintf("%d HOURS", d/time.Hour)
	case d%time.Minute == 0 && d >= time.Minute:
		return fmt.Sprintf("%d MINUTES", d/time.Minute)
	case d%time.Second == 0 && d >= time.Second:
		return fmt.Sprintf("%d SECONDS", d/time.Second)
	default:
		return fmt.Sprintf("%d MILLISECONDS", d/time.Millisecond)
	}
}

// identSQL writes an identifier so that it lexes back as itself: as is
// when it is a plain word and no keyword, else double-quoted (the lexer
// ends a quoted identifier at the next '"', so none contains one).
func identSQL(s string) string {
	plain := s != "" && isIdentStart(s[0]) && !keywords[strings.ToUpper(s)]
	for i := 1; plain && i < len(s); i++ {
		plain = isIdentPart(s[i])
	}
	if plain {
		return s
	}
	return `"` + s + `"`
}

// refSQL writes a column reference, ident[.ident], each part as identSQL
// does; "*" (COUNT's argument) stays bare.
func refSQL(ref string) string {
	if ref == "*" {
		return ref
	}
	if i := strings.IndexByte(ref, '.'); i >= 0 {
		return identSQL(ref[:i]) + "." + identSQL(ref[i+1:])
	}
	return identSQL(ref)
}

// exprSQL renders an expression tree in parseable StreamSQL: expr.Format
// with column references written as refSQL does, function names as
// identSQL does, and literals as litSQL does.
func exprSQL(e expr.Expr) string {
	if e == nil {
		return ""
	}
	return expr.Format(e, refSQL, identSQL, litSQL)
}

// litSQL writes a literal as Lit.String does, except that a float always
// carries a decimal point and no exponent, so it lexes back as the same
// float.
func litSQL(l expr.Lit) string {
	if l.V.T != data.TFloat {
		return l.String()
	}
	f := strconv.FormatFloat(l.V.F, 'f', -1, 64)
	if !strings.Contains(f, ".") {
		f += ".0"
	}
	return f
}
