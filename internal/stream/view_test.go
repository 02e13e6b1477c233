package stream

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aspen/internal/data"
)

// TestMaterializeView pins what a view of a store reads: the store's rows
// under its own schema (its own ORDER BY names), Len and a checkpoint
// through it, OnChange after every store mutation until Freeze,
// and after Freeze a private copy the store no longer reaches.
func TestMaterializeView(t *testing.T) {
	store := NewMaterialize(tempSchema())
	own := tempSchema().Rename("mine")
	v := store.View(own)
	if v.Schema() != own {
		t.Fatal("a view must keep its own schema")
	}
	fired := 0
	v.ChainOnChange(func() { fired++ })

	store.Push(data.NewTuple(1, data.Str("L101"), data.Float(21)))
	store.Push(data.NewTuple(2, data.Str("L102"), data.Float(25)))
	if fired != 2 || v.Len() != 2 {
		t.Fatalf("live view: fired %d, len %d", fired, v.Len())
	}
	rows, err := v.Snapshot([]OrderSpec{{Col: "mine.temp", Desc: true}}, 1)
	if err != nil {
		t.Fatalf("snapshot by the view's own column name: %v", err)
	}
	if len(rows) != 1 || rows[0].Vals[0].AsString() != "L102" {
		t.Fatalf("view snapshot = %v, want the hotter room", rows)
	}
	if _, err := v.Snapshot([]OrderSpec{{Col: "Temperature.temp"}}, -1); err == nil {
		t.Fatal("a view resolved ORDER BY against the store's schema")
	}

	// A checkpoint through the view is the store's; a restore through it
	// replaces the store.
	ck := v.CheckpointState()
	if len(ck.Rows.Tuples) != 2 {
		t.Fatalf("view checkpoint holds %d rows, want 2", len(ck.Rows.Tuples))
	}
	other := NewMaterialize(tempSchema())
	other.Push(data.NewTuple(3, data.Str("L103"), data.Float(19)))
	if err := v.RestoreState(other.CheckpointState()); err != nil {
		t.Fatal(err)
	}
	if got := store.MustSnapshot(nil, -1); len(got) != 1 || got[0].Vals[0].AsString() != "L103" {
		t.Fatalf("restore through the view left the store at %v", got)
	}

	inflight := store.listeners // what a push loaded just before Freeze
	v.Freeze()
	before := v.MustSnapshot(nil, -1)
	firedAtFreeze := fired
	for _, w := range inflight {
		w.changed() // that push's notification, landing after Freeze returned
	}
	store.Push(data.NewTuple(4, data.Str("L104"), data.Float(30)))
	store.Push(data.NewTuple(3, data.Str("L103"), data.Float(19)).Negate())
	if fired != firedAtFreeze {
		t.Fatalf("frozen view still fires: fired %d→%d", firedAtFreeze, fired)
	}
	if after := v.MustSnapshot(nil, -1); len(after) != 1 || !after[0].EqualVals(before[0]) {
		t.Fatalf("frozen view reads %v, want its state at Freeze %v", after, before)
	}
	if store.Len() != 1 || len(store.listeners) != 0 {
		t.Fatalf("store: %d rows, %d views after Freeze", store.Len(), len(store.listeners))
	}
	v.Freeze() // idempotent
	store.Freeze()
	if store.Len() != 1 {
		t.Fatal("Freeze on a store changed it")
	}
}

// TestMaterializeViewConcurrent pushes into a store while other goroutines
// open, read, checkpoint and freeze views of it, for the race detector: a
// frozen view must keep reading what it read at Freeze.
func TestMaterializeViewConcurrent(t *testing.T) {
	store := NewMaterialize(tempSchema())
	stop := make(chan struct{})
	var pusher, viewers sync.WaitGroup
	pusher.Add(1)
	go func() {
		defer pusher.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Insert reading i and retract reading i-3: at most three rows live.
			store.Push(data.NewTuple(0, data.Str("L1"), data.Float(float64(i%7))))
			if i >= 3 {
				store.Push(data.NewTuple(0, data.Str("L1"), data.Float(float64((i-3)%7))).Negate())
			}
			// Yield, or on one CPU every viewer's Gosched hands this loop
			// a whole time slice.
			runtime.Gosched()
		}
	}()
	for range 2 {
		viewers.Add(1)
		go func() {
			defer viewers.Done()
			for range 200 {
				v := store.View(tempSchema())
				v.ChainOnChange(func() {})
				v.Len()
				v.CheckpointState()
				v.Freeze()
				want := v.MustSnapshot(nil, -1)
				for range 3 {
					runtime.Gosched()
					if got := v.MustSnapshot(nil, -1); len(got) != len(want) {
						t.Errorf("frozen view moved: %d rows, then %d", len(want), len(got))
						return
					}
				}
			}
		}()
	}
	viewers.Wait()
	close(stop)
	pusher.Wait()
	if n := len(store.listeners); n != 0 {
		t.Fatalf("store still lists %d views after every one froze", n)
	}
}

// TestViewHooksUnderConcurrentPushes pushes batches into a store while
// other goroutines give new views hooks with ChainOnChange, snapshot them
// and freeze them, for the race detector. A hooked view fires once for
// every batch that started after its hook was installed and finished before
// Freeze began, never twice for one batch, and never for a batch that
// started after Freeze returned. Every view waits, within a bound, for the
// pusher to get two batches past its hook before it freezes, so each one
// has at least one batch it must have seen, however the host schedules.
func TestViewHooksUnderConcurrentPushes(t *testing.T) {
	store := NewMaterialize(tempSchema())
	var current atomic.Int64 // the batch being pushed, 1-based
	stop := make(chan struct{})
	var pusher, viewers sync.WaitGroup
	pusher.Add(1)
	go func() {
		defer pusher.Done()
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			current.Store(i)
			// Insert reading i and retract reading i-3: at most three rows live.
			batch := []data.Tuple{data.NewTuple(0, data.Str("L1"), data.Float(float64(i%7)))}
			if i > 3 {
				batch = append(batch, data.NewTuple(0, data.Str("L1"), data.Float(float64((i-3)%7))).Negate())
			}
			store.PushBatch(batch)
			runtime.Gosched() // as in TestMaterializeViewConcurrent
		}
	}()
	type hooked struct {
		mu     sync.Mutex
		fired  []int64 // the batch each call fired for
		hooked int64   // batches past this one started after the hook went in
		freeze int64   // batches before this one finished before Freeze began
		frozen int64   // batches past this one started after Freeze returned
	}
	var all []*hooked
	var allMu sync.Mutex
	for range 3 {
		viewers.Add(1)
		go func() {
			defer viewers.Done()
			for range 150 {
				h := &hooked{}
				v := store.View(tempSchema())
				v.ChainOnChange(func() {
					h.mu.Lock()
					h.fired = append(h.fired, current.Load())
					h.mu.Unlock()
				})
				h.hooked = current.Load()
				for range 3 {
					runtime.Gosched()
					v.MustSnapshot(nil, -1)
				}
				// Let the pusher get two batches past the hook, so batch
				// hooked+1 finished before Freeze and the missed-batch
				// check below always has a batch to check.
				for deadline := time.Now().Add(10 * time.Second); current.Load() < h.hooked+2 && time.Now().Before(deadline); {
					runtime.Gosched()
				}
				h.freeze = current.Load()
				v.Freeze()
				h.frozen = current.Load()
				allMu.Lock()
				all = append(all, h)
				allMu.Unlock()
			}
		}()
	}
	viewers.Wait()
	close(stop)
	pusher.Wait()

	required := 0
	for _, h := range all {
		seen := map[int64]bool{}
		for _, b := range h.fired {
			if seen[b] {
				t.Fatalf("a view fired twice for batch %d", b)
			}
			seen[b] = true
			if b > h.frozen {
				t.Fatalf("a view fired for batch %d, which started after it froze (at batch %d)", b, h.frozen)
			}
		}
		for b := h.hooked + 1; b < h.freeze; b++ {
			if !seen[b] {
				t.Fatalf("a view hooked at batch %d and frozen at %d missed batch %d", h.hooked, h.freeze, b)
			}
			required++
		}
	}
	if required == 0 {
		t.Fatal("no view was hooked across a whole batch; the check ran vacuously")
	}
	if n := len(store.listeners); n != 0 {
		t.Fatalf("store still lists %d views after every one froze", n)
	}
}

// TestSilentViewIsNotWoken: a store's push touches only the views with a
// hook. It completes while the view's own lock is held, both for a view
// that never had a hook and for one that had one and froze.
func TestSilentViewIsNotWoken(t *testing.T) {
	store := NewMaterialize(tempSchema())
	silent := store.View(tempSchema())
	frozen := store.View(tempSchema())
	frozen.ChainOnChange(func() {})
	frozen.Freeze()
	for _, v := range []*Materialize{silent, frozen} {
		v.mu.Lock()
		done := make(chan struct{})
		go func() {
			store.Push(data.NewTuple(1, data.Str("L101"), data.Float(21)))
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("a push waited on the lock of a view without a hook")
		}
		v.mu.Unlock()
		<-done
	}
	if got := silent.Len(); got != 1 {
		t.Fatalf("silent view reads %d rows, want 1", got)
	}
}
