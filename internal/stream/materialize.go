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
type Materialize struct {
	mu     sync.Mutex
	schema *data.Schema
	rows   rowSet
	// OnChange, when set, fires after every mutation; the GUI uses it to
	// repaint.
	OnChange func()
	version  uint64
	keyBytes int // key-arena size of the last Snapshot, the next one's capacity
}

// NewMaterialize creates an empty materialized result with the schema.
func NewMaterialize(schema *data.Schema) *Materialize {
	return &Materialize{schema: schema, rows: newRowSet(schema.Arity())}
}

// Schema implements Operator.
func (m *Materialize) Schema() *data.Schema { return m.schema }

// Push implements Operator.
func (m *Materialize) Push(t data.Tuple) { m.PushBatch([]data.Tuple{t}) }

// PushBatch implements BatchOperator: one lock acquisition and one
// OnChange notification per batch.
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
	cb := m.OnChange
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
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rows.n
}

// Version increments on every mutation; displays poll it cheaply.
func (m *Materialize) Version() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version
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
	m.mu.Lock()
	set, w := &m.rows, m.rows.w
	rows := make([]snapRow, 0, set.n)
	keys := data.NewKeyArena(set.n, m.keyBytes)
	vals := make([]data.Value, 0, set.n*w)
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
	m.keyBytes = keys.Bytes()
	m.mu.Unlock()

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
