package stream

import (
	"fmt"
	"slices"
	"sync"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// OrderSpec is one sort key for snapshots.
type OrderSpec struct {
	Col  string
	Desc bool
}

// Materialize maintains the current multiset of result tuples of a
// continuous query. Displays take ordered snapshots from it — this is how
// ORDER BY / LIMIT are given meaning over unbounded streams, and how the
// SmartCIS GUI renders live results (§4).
//
// Rows live in a rowSet, so the steady-state retract/insert churn of upstream
// operators allocates nothing. It is a copying sink: it keeps nothing it was
// handed once Push or PushBatch returns.
//
// A Materialize is either a store, which operators push into, or a view
// (View) that reads a store's rows under a schema of its own: identical
// standing queries keep one store and give each query its own view, so each
// still snapshots with its own column names, ORDER BY and LIMIT. A view's
// Snapshot, Len, Version and checkpoint all read (and restore) the store's
// rows, and its OnChange fires after every mutation of the store, until
// Freeze makes it an independent copy that no longer updates.
type Materialize struct {
	mu     sync.Mutex
	schema *data.Schema
	rows   rowSet
	// OnChange, when set, fires after every mutation; the GUI uses it to
	// repaint.
	OnChange func()
	version  uint64
	keyBytes int // key-arena size of the last Snapshot, the next one's capacity

	// store is the Materialize a live view reads; nil on a store and on a
	// frozen view. Lock order: a view's mu before its store's.
	store *Materialize
	// views are a store's live views, notified after each mutation. The
	// slice is copy-on-write: a push in flight keeps the one it loaded.
	views []*Materialize
}

// NewMaterialize creates an empty materialized result with the schema.
func NewMaterialize(schema *data.Schema) *Materialize {
	return &Materialize{schema: schema, rows: newRowSet(schema.Arity())}
}

// View returns a live read view of m's rows under schema, which must have
// m's arity (column names and qualifiers may differ).
func (m *Materialize) View(schema *data.Schema) *Materialize {
	v := &Materialize{schema: schema, store: m}
	m.mu.Lock()
	m.views = append(slices.Clip(m.views), v)
	m.mu.Unlock()
	return v
}

// Freeze turns a live view into a private copy of its store's current rows:
// from then on it reads the same as at the call, later mutations of the
// store neither reach it nor fire its OnChange (a notification already in
// flight when Freeze runs may still land), and the store forgets it. Freeze
// on a store or a frozen view does nothing.
func (m *Materialize) Freeze() {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.store
	if s == nil {
		return
	}
	s.mu.Lock()
	m.rows, m.version, m.keyBytes = s.rows.clone(), s.version, s.keyBytes
	s.views = slices.DeleteFunc(slices.Clone(s.views), func(v *Materialize) bool { return v == m })
	s.mu.Unlock()
	m.store = nil
}

// lock takes m's lock and returns the Materialize whose rows m reads, with
// its lock taken too: m itself, or the store m is a live view of. Release
// with unlock.
func (m *Materialize) lock() *Materialize {
	m.mu.Lock()
	if m.store == nil {
		return m
	}
	m.store.mu.Lock()
	return m.store
}

func (m *Materialize) unlock(src *Materialize) {
	if src != m {
		src.mu.Unlock()
	}
	m.mu.Unlock()
}

// Schema implements Operator.
func (m *Materialize) Schema() *data.Schema { return m.schema }

// Push implements Operator.
func (m *Materialize) Push(t data.Tuple) { m.PushBatch([]data.Tuple{t}) }

// PushBatch implements Operator: one lock acquisition and one
// OnChange notification per batch, for the store and for each live view.
func (m *Materialize) PushBatch(ts []data.Tuple) {
	if len(ts) == 0 {
		return
	}
	m.mu.Lock()
	for _, t := range ts {
		if t.Op == data.Insert {
			m.rows.add(t, 1)
		} else {
			m.rows.remove(t)
		}
	}
	m.version += uint64(len(ts))
	cb, views := m.OnChange, m.views
	m.mu.Unlock()
	if cb != nil {
		cb()
	}
	for _, v := range views {
		v.changed()
	}
}

// changed runs a view's OnChange after its store mutated, unless the view
// was frozen since the push loaded it.
func (m *Materialize) changed() {
	m.mu.Lock()
	cb := m.OnChange
	if m.store == nil {
		cb = nil
	}
	m.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// ChainOnChange installs fn to run after any already-installed OnChange
// hook, atomically with respect to concurrent mutations — use it instead
// of writing the OnChange field once the materialize may be receiving
// pushes (e.g. from shard workers).
func (m *Materialize) ChainOnChange(fn func()) {
	m.mu.Lock()
	prev := m.OnChange
	if prev == nil {
		m.OnChange = fn
	} else {
		m.OnChange = func() { prev(); fn() }
	}
	m.mu.Unlock()
}

// Len returns the number of distinct rows currently in the result.
func (m *Materialize) Len() int {
	src := m.lock()
	defer m.unlock(src)
	return src.rows.len()
}

// Version increments on every mutation; displays poll it cheaply.
func (m *Materialize) Version() uint64 {
	src := m.lock()
	defer m.unlock(src)
	return src.version
}

// Snapshot returns the current result ordered by the given keys (ties
// broken by canonical key for determinism), truncated to limit when
// limit >= 0. Duplicate rows appear with their multiplicity.
func (m *Materialize) Snapshot(order []OrderSpec, limit int) ([]data.Tuple, error) {
	idx := make([]int, len(order))
	for i, o := range order {
		j, err := m.schema.ColIndex(o.Col)
		if err != nil {
			return nil, fmt.Errorf("stream: snapshot order: %w", err)
		}
		idx[i] = j
	}
	// Under the lock, copy out what the sort needs: every distinct row's
	// canonical key, built once into one arena, and all rows' values
	// (duplicates back to back) in another.
	type snapRow struct {
		ts    vtime.Time
		key   int // index in keys
		vals  int // offset of the first copy in vals
		count int
	}
	src := m.lock()
	set, w := &src.rows, src.rows.w
	rows := make([]snapRow, 0, set.len())
	keys := data.NewKeyArena(set.len(), src.keyBytes)
	vals := make([]data.Value, 0, set.len()*w)
	total := 0
	for r, rec := range set.recs {
		if rec.count == 0 {
			continue
		}
		row := set.row(int32(r))
		rows = append(rows, snapRow{ts: rec.ts, key: keys.Add(data.Tuple{Vals: row}), vals: len(vals), count: rec.count})
		for i := 0; i < rec.count; i++ {
			vals = append(vals, row...)
		}
		total += rec.count
	}
	src.keyBytes = keys.Bytes()
	m.unlock(src)

	slices.SortFunc(rows, func(a, b snapRow) int {
		for k, j := range idx {
			av, bv := vals[a.vals+j], vals[b.vals+j]
			c, ok := av.Compare(bv)
			if ok && c != 0 {
				if order[k].Desc {
					return -c
				}
				return c
			}
			// Ties and incomparable values fall through to the next key,
			// except that NULLs order first (last under DESC).
			if an, bn := av.IsNull(), bv.IsNull(); an != bn {
				if an != order[k].Desc {
					return -1
				}
				return 1
			}
		}
		return keys.Compare(a.key, b.key)
	})

	out := make([]data.Tuple, 0, total)
	for _, r := range rows {
		for i := 0; i < r.count; i++ {
			off := r.vals + i*w
			out = append(out, data.Tuple{Vals: vals[off : off+w : off+w], TS: r.ts})
		}
	}
	if limit >= 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

// MustSnapshot is Snapshot for statically correct order keys.
func (m *Materialize) MustSnapshot(order []OrderSpec, limit int) []data.Tuple {
	out, err := m.Snapshot(order, limit)
	if err != nil {
		panic(err)
	}
	return out
}
