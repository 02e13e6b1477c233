package data

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a relation. Rel is the relation alias
// that qualifies the column ("ss" in "ss.room"); it may be empty for computed
// columns.
type Column struct {
	Rel  string
	Name string
	Type Type
}

// QName returns the qualified column name.
func (c Column) QName() string {
	if c.Rel == "" {
		return c.Name
	}
	return c.Rel + "." + c.Name
}

// Schema describes the shape of a relation or stream.
type Schema struct {
	Name     string // relation name (catalog name or alias)
	Cols     []Column
	IsStream bool // stream (unbounded, timestamped) vs stored table
}

// NewSchema builds a schema whose columns are all qualified by rel.
func NewSchema(rel string, cols ...Column) *Schema {
	s := &Schema{Name: rel, Cols: make([]Column, len(cols))}
	copy(s.Cols, cols)
	for i := range s.Cols {
		if s.Cols[i].Rel == "" {
			s.Cols[i].Rel = rel
		}
	}
	return s
}

// Col is a convenience constructor for Column.
func Col(name string, t Type) Column { return Column{Name: name, Type: t} }

// Arity returns the number of columns.
func (s *Schema) Arity() int { return len(s.Cols) }

// ColIndex resolves a possibly-qualified column reference to an index.
// "alias.col" matches exactly; a bare "col" matches if unambiguous. The
// second result is an error describing failure.
func (s *Schema) ColIndex(ref string) (int, error) {
	rel, name := SplitQualified(ref)
	found := -1
	for i, c := range s.Cols {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if rel != "" && !strings.EqualFold(c.Rel, rel) {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("data: ambiguous column %q in %s", ref, s.Name)
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("data: no column %q in %s(%s)", ref, s.Name, s.ColNames())
	}
	return found, nil
}

// HasCol reports whether ref resolves in this schema.
func (s *Schema) HasCol(ref string) bool {
	_, err := s.ColIndex(ref)
	return err == nil
}

// ColNames returns a comma-separated list of qualified column names.
func (s *Schema) ColNames() string {
	parts := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		parts[i] = c.QName()
	}
	return strings.Join(parts, ", ")
}

// Rename returns a copy of the schema with every column re-qualified by
// alias and the schema renamed.
func (s *Schema) Rename(alias string) *Schema {
	out := &Schema{Name: alias, IsStream: s.IsStream, Cols: make([]Column, len(s.Cols))}
	copy(out.Cols, s.Cols)
	for i := range out.Cols {
		out.Cols[i].Rel = alias
	}
	return out
}

// Concat returns the schema of the join of s and o (columns of s then o).
func (s *Schema) Concat(o *Schema) *Schema {
	out := &Schema{
		Name:     s.Name + "⋈" + o.Name,
		IsStream: s.IsStream || o.IsStream,
		Cols:     make([]Column, 0, len(s.Cols)+len(o.Cols)),
	}
	out.Cols = append(out.Cols, s.Cols...)
	out.Cols = append(out.Cols, o.Cols...)
	return out
}

// Project returns a schema containing the columns at the given indexes.
func (s *Schema) Project(idx []int) *Schema {
	out := &Schema{Name: s.Name, IsStream: s.IsStream, Cols: make([]Column, len(idx))}
	for i, j := range idx {
		out.Cols[i] = s.Cols[j]
	}
	return out
}

// String renders the schema for diagnostics.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	if s.IsStream {
		b.WriteString(" [stream]")
	}
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.QName(), c.Type)
	}
	b.WriteByte(')')
	return b.String()
}

// SplitQualified splits "rel.col" into its parts; a bare name yields an
// empty rel.
func SplitQualified(ref string) (rel, name string) {
	if i := strings.IndexByte(ref, '.'); i >= 0 {
		return ref[:i], ref[i+1:]
	}
	return "", ref
}
