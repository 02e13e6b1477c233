package stream

import (
	"runtime"
	"sync"
	"testing"

	"aspen/internal/data"
)

// TestMaterializeView pins what a view of a store reads: the store's rows
// under its own schema (its own ORDER BY names), Len, Version and a
// checkpoint through it, OnChange after every store mutation until Freeze,
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
	if fired != 2 || v.Len() != 2 || v.Version() != store.Version() {
		t.Fatalf("live view: fired %d, len %d, version %d (store %d)", fired, v.Len(), v.Version(), store.Version())
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

	inflight := store.views // what a push loaded just before Freeze
	v.Freeze()
	before := v.MustSnapshot(nil, -1)
	firedAtFreeze, versionAtFreeze := fired, v.Version()
	for _, w := range inflight {
		w.changed() // that push's notification, landing after Freeze returned
	}
	store.Push(data.NewTuple(4, data.Str("L104"), data.Float(30)))
	store.Push(data.NewTuple(3, data.Str("L103"), data.Float(19)).Negate())
	if fired != firedAtFreeze || v.Version() != versionAtFreeze {
		t.Fatalf("frozen view still updates: fired %d→%d, version %d→%d", firedAtFreeze, fired, versionAtFreeze, v.Version())
	}
	if after := v.MustSnapshot(nil, -1); len(after) != 1 || !after[0].EqualVals(before[0]) {
		t.Fatalf("frozen view reads %v, want its state at Freeze %v", after, before)
	}
	if store.Len() != 1 || len(store.views) != 0 {
		t.Fatalf("store: %d rows, %d views after Freeze", store.Len(), len(store.views))
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
	if n := len(store.views); n != 0 {
		t.Fatalf("store still lists %d views after every one froze", n)
	}
}
