package stream

import (
	"cmp"
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
// Snapshot, Len and CheckpointState read the store's rows. A
// view's hook is installed with ChainOnChange, and it fires after
// every mutation of the store until Freeze makes the view an independent
// copy that no longer updates.
//
// A push pays for its own rows and for the hooks that listen, nothing more.
// It takes the store's lock once per batch: each tuple costs one hash, one
// probe and, for a new row, one copy into the arena. After the batch it runs
// the store's OnChange and wakes the views on its listener list, which holds
// exactly the live views that ChainOnChange gave a hook; a view without one
// is never touched. A store can also take tuples of its query's input
// directly (KeepColumns): when every projection item is a bare column, the
// store copies those columns into its row and no projected row is built.
//
// A store remembers the row order of its last snapshot until the next
// mutation, so a display that re-reads with nothing new copies the rows out
// in that order and sorts nothing. The views of one store share that memo;
// a frozen view keeps its own.
type Materialize struct {
	mu     sync.Mutex
	schema *data.Schema
	rows   rowSet
	// muts counts the mutations of rows (see mutated). order is the row
	// order of the last snapshot, nil when there has been a mutation since.
	muts  uint64
	order *snapOrder
	// OnChange, when set, fires after every mutation; the GUI uses it to
	// repaint. On a view, install it with ChainOnChange: a hook written into
	// the field puts the view on no listener list, so it never fires.
	OnChange func()

	// store is the Materialize a live view reads; nil on a store and on a
	// frozen view. Lock order: a view's mu before its store's.
	store *Materialize
	// listeners are a store's live views that have a hook, notified after
	// each mutation. The slice is copy-on-write: a push in flight keeps the
	// one it loaded.
	listeners []*Materialize
}

// NewMaterialize creates an empty materialized result with the schema.
func NewMaterialize(schema *data.Schema) *Materialize {
	return &Materialize{schema: schema, rows: newRowSet(schema.Arity())}
}

// View returns a live read view of m's rows under schema, which must have
// m's arity (column names and qualifiers may differ). The store does not
// know of it until ChainOnChange gives it a hook.
func (m *Materialize) View(schema *data.Schema) *Materialize {
	return &Materialize{schema: schema, store: m}
}

// Freeze turns a live view into a private copy of its store's current rows:
// from then on it reads the same as at the call, later mutations of the
// store neither reach it nor fire its OnChange (a notification already in
// flight when Freeze runs may still land), and the store stops waking it.
// Freeze on a store or a frozen view does nothing.
func (m *Materialize) Freeze() {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.store
	if s == nil {
		return
	}
	s.mu.Lock()
	m.rows = s.rows.clone()
	s.listeners = slices.DeleteFunc(slices.Clone(s.listeners), func(v *Materialize) bool { return v == m })
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

// PushBatch implements Operator: one lock acquisition, one OnChange
// notification and one wake of each listening view per batch.
func (m *Materialize) PushBatch(ts []data.Tuple) { m.push(ts, nil) }

// push adds or retracts, for each tuple, the row its values at on make (all
// of them when on is nil), then notifies.
func (m *Materialize) push(ts []data.Tuple, on []int) {
	if len(ts) == 0 {
		return
	}
	m.mu.Lock()
	m.mutated()
	for _, t := range ts {
		if t.Op == data.Insert {
			m.rows.add(t, on, 1)
		} else {
			m.rows.remove(t, on)
		}
	}
	cb, listeners := m.OnChange, m.listeners
	m.mu.Unlock()
	if cb != nil {
		cb()
	}
	for _, v := range listeners {
		v.changed()
	}
}

// mutated records a mutation of m's rows, under m's lock: every non-empty
// push and every restore. It drops the memo of the last snapshot's order,
// whose ids may name other rows from now on. Freeze needs no call: a live
// view's snapshots remember their order on its store, so a view has no memo
// until it is frozen and snapshots itself.
func (m *Materialize) mutated() {
	m.muts++
	m.order = nil
}

// KeepColumns returns the operator that feeds the store m with tuples of
// schema in, each making the row of its values at cols — what a Project of
// those bare columns in front of m would push, without building the
// projected row. len(cols) must be m's arity and every column must be in's.
// Like m it keeps nothing it was handed. Its Schema is in; m's stays the
// result schema, and a checkpoint of m still holds result rows.
func (m *Materialize) KeepColumns(in *data.Schema, cols []int) (Operator, error) {
	if len(cols) != m.schema.Arity() || slices.ContainsFunc(cols, func(j int) bool { return j < 0 || j >= in.Arity() }) {
		return nil, fmt.Errorf("stream: columns %v of %s do not make a row of %s", cols, in, m.schema)
	}
	return &keptColumns{m: m, in: in, cols: cols}, nil
}

// keptColumns is the operator KeepColumns hands out.
type keptColumns struct {
	m    *Materialize
	in   *data.Schema
	cols []int
}

// Schema implements Operator (input schema).
func (k *keptColumns) Schema() *data.Schema { return k.in }

// Push implements Operator.
func (k *keptColumns) Push(t data.Tuple) { k.PushBatch([]data.Tuple{t}) }

// PushBatch implements Operator.
func (k *keptColumns) PushBatch(ts []data.Tuple) { k.m.push(ts, k.cols) }

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
// pushes (e.g. from shard workers). On a live view it is the one way to
// install a hook: it puts the view on its store's listener list.
func (m *Materialize) ChainOnChange(fn func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.OnChange
	if prev == nil {
		m.OnChange = fn
	} else {
		m.OnChange = func() { prev(); fn() }
	}
	if s := m.store; s != nil {
		s.mu.Lock()
		if !slices.Contains(s.listeners, m) {
			s.listeners = append(slices.Clip(s.listeners), m)
		}
		s.mu.Unlock()
	}
}

// Len returns the number of distinct rows currently in the result.
func (m *Materialize) Len() int {
	src := m.lock()
	defer m.unlock(src)
	return src.rows.len()
}

// Snapshot returns the current result ordered by the given keys, truncated
// to limit when limit >= 0. Duplicate rows appear with their multiplicity.
// Rows order in the one value order, data.CompareValues: by the ORDER BY
// columns first, a DESC column's order reversed (so NULLs come first under
// ASC and last under DESC), then by the whole row, data.CompareRows. Rows
// that tie on ORDER BY, or all rows when there is none, come out in
// ascending value order. The sort compares each row's data.SortPrefix before
// its values, and builds no key. A re-read under the same ORDER BY with no
// mutation since the last snapshot copies the rows out in the order that
// snapshot sorted, and does not sort. Either way the rows are the caller's.
func (m *Materialize) Snapshot(order []OrderSpec, limit int) ([]data.Tuple, error) {
	keys := make([]sortKey, len(order))
	for i, o := range order {
		j, err := m.schema.ColIndex(o.Col)
		if err != nil {
			return nil, fmt.Errorf("stream: snapshot order: %w", err)
		}
		keys[i] = sortKey{col: j, desc: o.Desc}
	}
	src := m.lock()
	if o := src.order; o != nil && slices.Equal(o.keys, keys) {
		out := src.copyOut(o.ids, limit)
		m.unlock(src)
		return out, nil
	}
	// Under the lock, copy out what the sort needs: every distinct row's id
	// and sort prefix, and all rows' values (duplicates back to back) in one
	// arena.
	type snapRow struct {
		ts    vtime.Time
		pre   uint64 // data.SortPrefix of the row
		vals  int    // offset of the first copy in vals
		count int
		id    int32
	}
	set, w, at := &src.rows, len(src.rows.index.ident), src.muts
	rows := make([]snapRow, 0, set.len())
	vals := make([]data.Value, 0, set.total*w)
	for r, rec := range set.recs {
		if rec.count == 0 {
			continue
		}
		row := set.row(int32(r))
		rows = append(rows, snapRow{ts: rec.ts, pre: data.SortPrefix(row), vals: len(vals), count: rec.count, id: int32(r)})
		for i := 0; i < rec.count; i++ {
			vals = append(vals, row...)
		}
	}
	total := set.total
	m.unlock(src)

	slices.SortFunc(rows, func(a, b snapRow) int {
		for _, k := range keys {
			if c := data.CompareValues(vals[a.vals+k.col], vals[b.vals+k.col]); c != 0 {
				if k.desc {
					return -c
				}
				return c
			}
		}
		if a.pre != b.pre {
			return cmp.Compare(a.pre, b.pre)
		}
		return data.CompareRows(vals[a.vals:a.vals+w], vals[b.vals:b.vals+w])
	})

	// Remember the order, unless the rows mutated since the copy (the ids
	// name rows only until the next mutation) or m, a view, froze since and
	// reads rows of its own.
	memo := &snapOrder{ids: make([]int32, len(rows)), keys: keys}
	for i, r := range rows {
		memo.ids[i] = r.id
	}
	again := m.lock()
	if again == src && src.muts == at {
		src.order = memo
	}
	m.unlock(again)

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

// sortKey is one ORDER BY column of a snapshot, by position.
type sortKey struct {
	col  int
	desc bool
}

// snapOrder is a store's memo of its last snapshot's row order: the
// distinct rows' ids as that snapshot sorted them under keys. The ids are
// valid only until the next mutation, because a retired id is reused by the
// next new row.
type snapOrder struct {
	ids  []int32
	keys []sortKey
}

// copyOut copies the first limit rows (all when limit < 0) out in the order
// of ids, the current memo's, into one fresh arena, each row as many times
// as it is held. The caller holds m's lock.
func (m *Materialize) copyOut(ids []int32, limit int) []data.Tuple {
	set, w := &m.rows, len(m.rows.index.ident)
	n := set.total
	if limit >= 0 && limit < n {
		n = limit
	}
	vals := make([]data.Value, 0, n*w)
	out := make([]data.Tuple, 0, n)
	for _, r := range ids {
		if len(out) == n {
			break
		}
		rec, row := set.recs[r], set.row(r)
		for i := 0; i < rec.count && len(out) < n; i++ {
			vals = append(vals, row...)
			out = append(out, data.Tuple{Vals: vals[len(vals)-w : len(vals) : len(vals)], TS: rec.ts})
		}
	}
	return out
}
