package stream

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// deskSchema is the result schema of the snapshot-memo tests: rows of
// (room, desk, temp) under the given column names.
func deskSchema(names ...string) *data.Schema {
	return data.NewSchema("m", data.Col(names[0], data.TString), data.Col(names[1], data.TInt),
		data.Col(names[2], data.TFloat))
}

func deskRow(ts int64, room string, desk int64, temp float64) data.Tuple {
	return data.NewTuple(vtime.Time(ts), data.Str(room), data.Int(desk), data.Float(temp))
}

// referenceSnapshot is what Snapshot must return for m's current rows, by a
// fresh sort of its checkpoint: every copy of every row in snapshotLess's
// order, truncated to limit.
func referenceSnapshot(t *testing.T, m *Materialize, order []OrderSpec, limit int) []data.Tuple {
	t.Helper()
	idx := make([]int, len(order))
	for i, o := range order {
		idx[i] = must[int](t)(m.Schema().ColIndex(o.Col))
	}
	st := m.CheckpointState().Rows
	var want []data.Tuple
	for i, r := range st.Tuples {
		for range st.Counts[i] {
			want = append(want, r)
		}
	}
	slices.SortStableFunc(want, func(a, b data.Tuple) int {
		switch {
		case snapshotLess(a, b, idx, order):
			return -1
		case snapshotLess(b, a, idx, order):
			return 1
		}
		return 0
	})
	if limit >= 0 && len(want) > limit {
		want = want[:limit]
	}
	return want
}

// memoCurrent reports whether the rows m reads have a current memo.
func memoCurrent(m *Materialize) bool {
	src := m.lock()
	defer m.unlock(src)
	return src.order != nil
}

// TestSnapshotMemoDifferential holds every snapshot to a fresh sort of the
// store's rows. Each state is read twice, so the second read is the memo's,
// after every kind of mutation a store sees — an insert, a duplicate insert
// (a count changes, no id does), a retraction, a retraction followed by a new
// row that takes the retired id, a batch whose net effect is nothing,
// RestoreState and Freeze — and across a second view with another ORDER BY
// and a change of LIMIT, which must not read a memo sorted for another.
func TestSnapshotMemoDifferential(t *testing.T) {
	byRoom := []OrderSpec{{Col: "room"}, {Col: "desk", Desc: true}}
	byTemp := []OrderSpec{{Col: "t", Desc: true}}
	for _, mask := range []uint64{^uint64(0), 0} {
		t.Run(fmt.Sprintf("mask=%x", mask&1), func(t *testing.T) {
			defer SetTestHashMask(SetTestHashMask(mask))
			s := NewMaterialize(deskSchema("room", "desk", "temp"))
			v := s.View(deskSchema("r", "d", "t"))
			check := func(ctx string, m *Materialize, order []OrderSpec, limit int) {
				t.Helper()
				for read := range 2 {
					got, want := m.MustSnapshot(order, limit), referenceSnapshot(t, m, order, limit)
					if len(got) != len(want) {
						t.Fatalf("%s, read %d: %d rows, want %d\n%v\n%v", ctx, read, len(got), len(want), got, want)
					}
					for i := range want {
						if !bitEqual(got[i], want[i]) || got[i].TS != want[i].TS {
							t.Fatalf("%s, read %d: row %d = %v@%d, want %v@%d", ctx, read, i, got[i], got[i].TS, want[i], want[i].TS)
						}
					}
					if !memoCurrent(m) {
						t.Fatalf("%s, read %d: no current memo after a snapshot with nothing mutating", ctx, read)
					}
				}
			}
			rng := rand.New(rand.NewSource(int64(mask & 7)))
			var batch []data.Tuple
			for i := range 24 {
				batch = append(batch, deskRow(int64(i), fmt.Sprintf("L%d", rng.Intn(4)), rng.Int63n(4), float64(rng.Intn(6))))
			}
			s.PushBatch(batch)
			check("start", s, byRoom, -1)
			ck := s.CheckpointState()

			s.PushBatch([]data.Tuple{deskRow(30, "L0", 9, 99)})
			check("insert", s, byRoom, -1)
			s.PushBatch([]data.Tuple{deskRow(31, "L0", 9, 99)})
			check("duplicate insert", s, byRoom, -1)
			s.PushBatch([]data.Tuple{batch[5].Negate()})
			check("retract", s, byRoom, -1)

			// Retire a row held once, then add a new row: it takes the
			// retired id.
			once := deskRow(32, "L9", 0, -1)
			s.PushBatch([]data.Tuple{once})
			check("a row held once", s, byRoom, -1)
			ids := len(s.rows.recs)
			s.PushBatch([]data.Tuple{once.Negate()})
			s.PushBatch([]data.Tuple{deskRow(33, "A0", 5, 7)})
			if len(s.rows.recs) != ids {
				t.Fatalf("the new row took a fresh id (%d ids, were %d), not the retired one", len(s.rows.recs), ids)
			}
			check("retract, then a new row on the retired id", s, byRoom, -1)

			s.PushBatch([]data.Tuple{deskRow(34, "Z1", 1, 1), deskRow(34, "Z1", 1, 1).Negate(),
				batch[0].Negate(), deskRow(35, batch[0].Vals[0].AsString(), batch[0].Vals[1].I, batch[0].Vals[2].F)})
			check("a batch with no net effect on the rows", s, byRoom, -1)

			check("a view with another ORDER BY", v, byTemp, -1)
			check("the store again", s, byRoom, -1)
			check("the view, no ORDER BY", v, nil, -1)
			for _, limit := range []int{3, -1, 0, 100, 1} {
				check(fmt.Sprintf("LIMIT %d", limit), s, byRoom, limit)
			}

			if err := s.RestoreState(ck); err != nil {
				t.Fatal(err)
			}
			check("RestoreState", s, byRoom, -1)
			check("RestoreState, through the view", v, byTemp, -1)

			v.Freeze()
			check("frozen, no ORDER BY", v, nil, -1)
			check("frozen", v, byTemp, -1)
			frozen := v.MustSnapshot(byTemp, -1)
			s.PushBatch([]data.Tuple{deskRow(40, "L1", 7, 3), batch[1].Negate()})
			check("the store after the view froze", s, byRoom, -1)
			check("the frozen view after the store moved", v, byTemp, -1)
			if got := v.MustSnapshot(byTemp, -1); !slices.EqualFunc(got, frozen, bitEqual) {
				t.Fatalf("the frozen view moved with its store: %v, was %v", got, frozen)
			}
		})
	}
}

// TestSnapshotMemoUnderConcurrentMutations runs snapshots of a store, of a
// live view of it and of views frozen on the way beside a pusher that walks
// the store through a fixed cycle of states, back to the first by
// RestoreState. Every snapshot must be one of those states, read in its
// order: a memo installed after a concurrent mutation, or read past one,
// hands out rows the store never held in that order.
func TestSnapshotMemoUnderConcurrentMutations(t *testing.T) {
	schema := deskSchema("room", "desk", "temp")
	orders := [][]OrderSpec{nil, {{Col: "temp", Desc: true}}}
	rng := rand.New(rand.NewSource(9))
	rowAt := func(i int) data.Tuple {
		return deskRow(int64(i), fmt.Sprintf("L%d", rng.Intn(5)), rng.Int63n(6), float64(rng.Intn(20)))
	}
	// The cycle: a start of 64 rows, then batches that retract some rows
	// and add new ones, so retired ids are reused.
	var start []data.Tuple
	for i := range 64 {
		start = append(start, rowAt(i))
	}
	var cycle [][]data.Tuple
	live := slices.Clone(start)
	for b := range 12 {
		var batch []data.Tuple
		for range 6 {
			at := rng.Intn(len(live))
			batch = append(batch, live[at].Negate())
			live = slices.Delete(live, at, at+1)
		}
		for i := range 6 + b%3 {
			tu := rowAt(100*(b+1) + i)
			batch = append(batch, tu)
			live = append(live, tu)
		}
		cycle = append(cycle, batch)
	}

	// Every state of the cycle, as a snapshot under each ORDER BY would
	// print it.
	key := func(ts []data.Tuple) string {
		var sb strings.Builder
		for _, tu := range ts {
			fmt.Fprintf(&sb, "%v@%d;", tu.Vals, tu.TS)
		}
		return sb.String()
	}
	ref := NewMaterialize(schema)
	ref.PushBatch(start)
	ck := ref.CheckpointState()
	held := make([]map[string]bool, len(orders))
	for i := range held {
		held[i] = map[string]bool{}
	}
	record := func() {
		for i, o := range orders {
			held[i][key(referenceSnapshot(t, ref, o, -1))] = true
		}
	}
	record()
	for _, batch := range cycle {
		ref.PushBatch(batch)
		record()
	}

	s := NewMaterialize(schema)
	if err := s.RestoreState(ck); err != nil {
		t.Fatal(err)
	}
	view := s.View(deskSchema("r", "d", "temp"))
	var (
		wg   sync.WaitGroup
		done = make(chan struct{})
		errs = make(chan string, 6) // each of the six goroutines sends at most one, then returns
	)
	read := func(who string, m *Materialize, i int) bool {
		got := m.MustSnapshot(orders[i], -1)
		if !held[i][key(got)] {
			errs <- fmt.Sprintf("%s under %v read a state the store never held: %v", who, orders[i], got)
			return false
		}
		return true
	}
	wg.Add(1)
	go func() { // the pusher
		defer wg.Done()
		defer close(done)
		for range 25 {
			for _, batch := range cycle {
				s.PushBatch(batch)
				runtime.Gosched()
			}
			if err := s.RestoreState(ck); err != nil {
				errs <- err.Error()
				return
			}
			runtime.Gosched()
		}
	}()
	for i := range orders {
		for _, m := range []*Materialize{s, view} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if !read("a reader", m, i) {
						return
					}
					runtime.Gosched() // so that at one CPU the pusher is not starved
				}
			}()
		}
	}
	wg.Add(1)
	go func() { // the freezer
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-done:
				return
			default:
			}
			v := s.View(schema)
			i := n % len(orders)
			if !read("a view before Freeze", v, i) {
				return
			}
			v.Freeze()
			first := v.MustSnapshot(orders[i], -1)
			if !held[i][key(first)] {
				errs <- fmt.Sprintf("a frozen view under %v read a state the store never held: %v", orders[i], first)
				return
			}
			if again := v.MustSnapshot(orders[i], -1); key(again) != key(first) {
				errs <- fmt.Sprintf("a frozen view moved: %v, was %v", again, first)
				return
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
