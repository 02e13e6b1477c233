package data

import (
	"fmt"
	"sync"
)

// Relation is a thread-safe in-memory bag of tuples with a fixed schema.
// It backs the DB wrapper, catalog tables and tests.
type Relation struct {
	mu     sync.RWMutex
	schema *Schema
	rows   []Tuple
}

// NewRelation creates an empty relation with the given schema.
func NewRelation(schema *Schema) *Relation {
	return &Relation{schema: schema}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Insert appends a row after checking arity and types.
func (r *Relation) Insert(t Tuple) error {
	if len(t.Vals) != r.schema.Arity() {
		return fmt.Errorf("data: arity mismatch inserting into %s: got %d vals, want %d",
			r.schema.Name, len(t.Vals), r.schema.Arity())
	}
	for i, v := range t.Vals {
		want := r.schema.Cols[i].Type
		if v.T != TNull && v.T != want && !(v.T.Numeric() && want.Numeric()) {
			return fmt.Errorf("data: type mismatch in %s.%s: got %s, want %s",
				r.schema.Name, r.schema.Cols[i].Name, v.T, want)
		}
	}
	r.mu.Lock()
	r.rows = append(r.rows, t.Clone())
	r.mu.Unlock()
	return nil
}

// MustInsert inserts vals as a row and panics on error; for static data.
func (r *Relation) MustInsert(vals ...Value) {
	if err := r.Insert(Tuple{Vals: vals}); err != nil {
		panic(err)
	}
}

// Len returns the row count.
func (r *Relation) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.rows)
}

// Scan calls fn for each row (a private copy) until fn returns false.
func (r *Relation) Scan(fn func(Tuple) bool) {
	r.mu.RLock()
	snapshot := make([]Tuple, len(r.rows))
	copy(snapshot, r.rows)
	r.mu.RUnlock()
	for _, row := range snapshot {
		if !fn(row.Clone()) {
			return
		}
	}
}
