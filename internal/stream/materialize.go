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
// Rows are keyed by 64-bit hashes of the full canonical key with
// collision buckets verified by EqualVals, and retired rows feed a small
// freelist, so the steady-state retract/insert churn of upstream
// aggregates allocates nothing.
type Materialize struct {
	mu     sync.Mutex
	schema *data.Schema
	rows   map[uint64][]*matRow
	n      int // distinct rows
	free   []*matRow
	hasher data.Hasher
	// OnChange, when set, fires after every mutation; the GUI uses it to
	// repaint.
	OnChange func()
	version  uint64
	keyBytes int // key-arena size of the last Snapshot, the next one's capacity
}

type matRow struct {
	t     data.Tuple
	count int
}

// freelistCap bounds retained retired rows.
const freelistCap = 1024

// NewMaterialize creates an empty materialized result with the schema.
func NewMaterialize(schema *data.Schema) *Materialize {
	return &Materialize{schema: schema, rows: map[uint64][]*matRow{}}
}

// Schema implements Operator.
func (m *Materialize) Schema() *data.Schema { return m.schema }

// apply performs one mutation under m.mu.
func (m *Materialize) apply(t data.Tuple) {
	key := m.hasher.Hash(t) & testHashMask
	bucket := m.rows[key]
	slot := -1
	for i, r := range bucket {
		if r.t.EqualVals(t) {
			slot = i
			break
		}
	}
	switch t.Op {
	case data.Insert:
		if slot >= 0 {
			bucket[slot].count++
			break
		}
		var r *matRow
		if n := len(m.free); n > 0 {
			r = m.free[n-1]
			m.free = m.free[:n-1]
			r.t = t.CloneInto(r.t.Vals)
		} else {
			r = &matRow{t: t.Clone()}
		}
		r.count = 1
		m.rows[key] = append(bucket, r)
		m.n++
	case data.Delete:
		if slot < 0 {
			break
		}
		r := bucket[slot]
		r.count--
		if r.count <= 0 {
			bucket[slot] = bucket[len(bucket)-1]
			bucket[len(bucket)-1] = nil
			m.rows[key] = bucket[:len(bucket)-1]
			if len(m.rows[key]) == 0 {
				delete(m.rows, key)
			}
			m.n--
			if len(m.free) < freelistCap {
				m.free = append(m.free, r)
			}
		}
	}
	m.version++
}

// Push implements Operator.
func (m *Materialize) Push(t data.Tuple) {
	m.mu.Lock()
	m.apply(t)
	cb := m.OnChange
	m.mu.Unlock()
	if cb != nil {
		cb()
	}
}

// PushBatch implements BatchOperator: one lock acquisition and one
// OnChange notification per batch.
func (m *Materialize) PushBatch(ts []data.Tuple) {
	if len(ts) == 0 {
		return
	}
	m.mu.Lock()
	for _, t := range ts {
		m.apply(t)
	}
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
	return m.n
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
		op    data.Op
		key   int // index in keys
		vals  int // offset of the first copy in vals
		width int
		count int
	}
	m.mu.Lock()
	rows := make([]snapRow, 0, m.n)
	keys := data.NewKeyArena(m.n, m.keyBytes)
	vals := make([]data.Value, 0, m.n*m.schema.Arity())
	total := 0
	for _, bucket := range m.rows {
		for _, r := range bucket {
			rows = append(rows, snapRow{ts: r.t.TS, op: r.t.Op, key: keys.Add(r.t),
				vals: len(vals), width: len(r.t.Vals), count: r.count})
			for i := 0; i < r.count; i++ {
				vals = append(vals, r.t.Vals...)
			}
			total += r.count
		}
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
			off := r.vals + i*r.width
			out = append(out, data.Tuple{Vals: vals[off : off+r.width : off+r.width], TS: r.ts, Op: r.op})
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
