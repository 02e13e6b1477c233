package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

func at(sec int64, room string, v float64) data.Tuple {
	return data.NewTuple(vtime.Time(sec)*vtime.Second, data.Str(room), data.Float(v))
}

func TestTimeWindowExpiry(t *testing.T) {
	col := NewCollector(tempSchema())
	w := NewTimeWindow(col, 10*time.Second, 0)
	w.Push(at(0, "a", 1))
	w.Push(at(5, "b", 2))
	w.Push(at(11, "c", 3)) // expires "a" (ts 0 <= 11-10)
	got := col.Snapshot()
	// +a +b -a +c  (expiry fires before insert)
	if len(got) != 4 {
		t.Fatalf("events = %v", got)
	}
	if got[2].Op != data.Delete || got[2].Vals[0].AsString() != "a" {
		t.Fatalf("expected -a third: %v", got)
	}
	if w.Len() != 2 {
		t.Fatalf("window len = %d", w.Len())
	}
	// expiry tuple carries the expiry time
	if got[2].TS != 11*vtime.Second {
		t.Fatalf("expiry ts = %v", got[2].TS)
	}
}

func TestTimeWindowAdvanceOnSilence(t *testing.T) {
	col := NewCollector(tempSchema())
	w := NewTimeWindow(col, 10*time.Second, 0)
	w.Push(at(0, "a", 1))
	w.Advance(30 * vtime.Second)
	got := col.Snapshot()
	if len(got) != 2 || got[1].Op != data.Delete {
		t.Fatalf("advance did not expire: %v", got)
	}
	if w.Len() != 0 {
		t.Fatal("window should be empty")
	}
}

func TestTimeWindowSlide(t *testing.T) {
	col := NewCollector(tempSchema())
	w := NewTimeWindow(col, 10*time.Second, 5*time.Second)
	w.Push(at(0, "a", 1))
	w.Push(at(12, "b", 2))
	// slide snaps expiry to 10s boundary: cutoff = 10-10 = 0 → "a" (ts 0) expires
	del := 0
	for _, tu := range col.Snapshot() {
		if tu.Op == data.Delete {
			del++
		}
	}
	if del != 1 {
		t.Fatalf("deletes = %d; events %v", del, col.Snapshot())
	}
	// within the same slide period no further expiry happens
	w.Push(at(13, "c", 3))
	del = 0
	for _, tu := range col.Snapshot() {
		if tu.Op == data.Delete {
			del++
		}
	}
	if del != 1 {
		t.Fatalf("slide re-expired: %v", col.Snapshot())
	}
}

func TestRowsWindow(t *testing.T) {
	col := NewCollector(tempSchema())
	w := NewRowsWindow(col, 2)
	w.Push(at(1, "a", 1))
	w.Push(at(2, "b", 2))
	w.Push(at(3, "c", 3)) // evicts a
	got := col.Snapshot()
	if len(got) != 4 {
		t.Fatalf("events = %v", got)
	}
	last := got[3]
	if last.Op != data.Delete || last.Vals[0].AsString() != "a" {
		t.Fatalf("eviction = %v", last)
	}
	if w.Len() != 2 {
		t.Fatalf("len = %d", w.Len())
	}
}

func TestNowWindow(t *testing.T) {
	col := NewCollector(tempSchema())
	w := NewNowWindow(col)
	w.Push(at(1, "a", 1))
	got := col.Snapshot()
	if len(got) != 2 || got[0].Op != data.Insert || got[1].Op != data.Delete {
		t.Fatalf("now window = %v", got)
	}
	if w.Len() != 0 {
		t.Fatal("now window retains state")
	}
}

func TestWindowUpstreamDelete(t *testing.T) {
	col := NewCollector(tempSchema())
	w := NewTimeWindow(col, time.Minute, 0)
	a := at(1, "a", 1)
	w.Push(a)
	w.Push(a.Negate())
	got := col.Snapshot()
	if len(got) != 2 || got[1].Op != data.Delete {
		t.Fatalf("events = %v", got)
	}
	if w.Len() != 0 {
		t.Fatal("window should be empty after retraction")
	}
	// deleting a tuple not in the window is silent
	w.Push(at(2, "zz", 9).Negate())
	if col.Len() != 2 {
		t.Fatal("phantom retraction forwarded")
	}
}

func TestWindowContentsMatchBruteForce(t *testing.T) {
	// Property: after any prefix of pushes, window population equals the
	// brute-force count of tuples within the range.
	col := NewCollector(tempSchema())
	w := NewTimeWindow(col, 7*time.Second, 0)
	var all []int64
	for sec := int64(0); sec < 50; sec += 3 {
		w.Push(at(sec, "x", float64(sec)))
		all = append(all, sec)
		want := 0
		for _, s := range all {
			if s > sec-7 {
				want++
			}
		}
		if w.Len() != want {
			t.Fatalf("at %ds: len=%d want %d", sec, w.Len(), want)
		}
	}
}

// sortByKey sorts ts in the value order (data.CompareRows), the order
// snapshots keep.
func sortByKey(ts []data.Tuple) {
	slices.SortFunc(ts, func(a, b data.Tuple) int { return data.CompareRows(a.Vals, b.Vals) })
}

// sameTuples reports whether two delta sequences are identical: the same
// rows, values bit for bit, timestamps and polarities, in the same order.
func sameTuples(a, b []data.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y data.Tuple) bool {
		return x.TS == y.TS && x.Op == y.Op && slices.Equal(x.Vals, y.Vals)
	})
}

// A window that admits by predicate emits exactly what the same window with
// a Filter above it forwards — after every batch of random insertions,
// retractions of held, expired and never-admitted rows, and clock ticks —
// and holds exactly the rows of that window the predicate passes.
func TestWindowAdmitMatchesFilter(t *testing.T) {
	pred := expr.MustBind(expr.Bin{Op: expr.OpLt, L: expr.C("temp"), R: expr.L(5)}, tempSchema())
	kinds := map[string]func(Operator) *Window{
		"range": func(next Operator) *Window { return NewTimeWindow(next, 5*time.Second, 0) },
		"slide": func(next Operator) *Window { return NewTimeWindow(next, 5*time.Second, 2*time.Second) },
		"now":   NewNowWindow,
	}
	for name, mk := range kinds {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			got, want := NewCollector(tempSchema()), NewCollector(tempSchema())
			admitting, plain := mk(got), mk(NewFilter(want, pred))
			if err := admitting.Admit(pred); err != nil {
				t.Fatal(err)
			}
			var sent []data.Tuple
			now := vtime.Time(0)
			for step := range 400 {
				if rng.Intn(8) == 0 {
					now = now.Add(time.Duration(rng.Intn(4000)) * time.Millisecond)
					admitting.Advance(now)
					plain.Advance(now)
				} else {
					var batch []data.Tuple
					for range 1 + rng.Intn(4) {
						now = now.Add(time.Duration(rng.Intn(600)) * time.Millisecond)
						switch {
						case len(sent) > 0 && rng.Intn(4) == 0: // held, expired or rejected
							del := sent[rng.Intn(len(sent))].Negate()
							del.TS = now
							batch = append(batch, del)
						case rng.Intn(10) == 0: // never pushed
							batch = append(batch, data.NewTuple(now, data.Str("ghost"), data.Float(1)).Negate())
						default:
							v := data.Float(float64(rng.Intn(10)))
							if rng.Intn(8) == 0 {
								v = data.Null
							}
							tu := data.NewTuple(now, data.Str(fmt.Sprint("r", rng.Intn(3))), v)
							sent = append(sent, tu)
							batch = append(batch, tu)
						}
					}
					admitting.PushBatch(batch)
					plain.PushBatch(batch)
				}
				if !sameTuples(got.Snapshot(), want.Snapshot()) {
					t.Fatalf("step %d: admitting window emitted %v, window+filter %v", step, got.Snapshot(), want.Snapshot())
				}
				var held []data.Tuple
				for _, tu := range plain.Contents() {
					if pred.EvalBool(tu) {
						held = append(held, tu)
					}
				}
				if !sameTuples(admitting.Contents(), held) {
					t.Fatalf("step %d: admitting window holds %v, want %v", step, admitting.Contents(), held)
				}
			}
		})
	}
}

// A ROWS window refuses an admission predicate: a selection does not
// commute with a row count.
func TestRowsWindowRefusesAdmit(t *testing.T) {
	pred := expr.MustBind(expr.Bin{Op: expr.OpLt, L: expr.C("temp"), R: expr.L(5)}, tempSchema())
	if err := NewRowsWindow(NewCollector(tempSchema()), 3).Admit(pred); err == nil {
		t.Fatal("ROWS window accepted an admission predicate")
	}
}

// A window restore validates what it reads — row width, value types, a ROWS
// window's bound, a NOW window's emptiness — and leaves the window as it was
// on error, so the join below it never sees a row it cannot hash. A valid
// restore into an admitting window keeps only the rows it admits, as
// insertions.
func TestWindowRestoreValidates(t *testing.T) {
	good := func(sec int64, v float64) data.Tuple { return at(sec, "a", v) }
	bad := map[string]struct {
		mk  func(Operator) *Window
		buf []data.Tuple
	}{
		"narrow row": {func(n Operator) *Window { return NewTimeWindow(n, time.Minute, 0) },
			[]data.Tuple{good(1, 1), {Vals: []data.Value{data.Str("a")}}}},
		"wide row": {func(n Operator) *Window { return NewTimeWindow(n, time.Minute, 0) },
			[]data.Tuple{{Vals: []data.Value{data.Str("a"), data.Float(1), data.Int(2)}}}},
		"unknown type": {func(n Operator) *Window { return NewRowsWindow(n, 4) },
			[]data.Tuple{{Vals: []data.Value{data.Str("a"), {T: data.TTime + 1}}}}},
		"rows over bound": {func(n Operator) *Window { return NewRowsWindow(n, 2) },
			[]data.Tuple{good(1, 1), good(2, 2), good(3, 3)}},
		"rows in now": {NewNowWindow, []data.Tuple{good(1, 1)}},
	}
	for name, c := range bad {
		t.Run(name, func(t *testing.T) {
			j := must[*Join](t)(NewJoin(NewCollector(tempSchema().Concat(tempSchema())),
				tempSchema(), tempSchema(), []string{"room"}, []string{"room"}, nil))
			w := c.mk(j.Left())
			w.PushBatch([]data.Tuple{good(0, 7)})
			before := w.CheckpointState()
			if err := w.RestoreState(OpState{Kind: ckWindow, Window: &WindowState{Buf: c.buf}}); err == nil {
				t.Fatalf("restore of %v succeeded", c.buf)
			}
			if after := w.CheckpointState(); !reflect.DeepEqual(after, before) {
				t.Fatalf("failed restore changed the window: %+v, was %+v", after.Window, before.Window)
			}
			j.Right().PushBatch([]data.Tuple{good(5, 1)})
			w.PushBatch([]data.Tuple{good(6, 2)})
			w.Advance(vtime.Time(time.Hour))
		})
	}

	col := NewCollector(tempSchema())
	w := NewTimeWindow(col, time.Minute, 0)
	if err := w.Admit(expr.MustBind(expr.Bin{Op: expr.OpLt, L: expr.C("temp"), R: expr.L(5)}, tempSchema())); err != nil {
		t.Fatal(err)
	}
	held := []data.Tuple{good(1, 1), good(2, 9), good(3, 4).Negate(), good(4, 5)}
	if err := w.RestoreState(OpState{Kind: ckWindow, Window: &WindowState{Buf: held}}); err != nil {
		t.Fatal(err)
	}
	if want := []data.Tuple{good(1, 1), good(3, 4)}; !sameTuples(w.Contents(), want) {
		t.Fatalf("admitting window restored %v, want %v", w.Contents(), want)
	}
	w.Advance(vtime.Time(time.Hour))
	if got := col.Snapshot(); len(got) != 2 || got[0].Op != data.Delete || got[1].Op != data.Delete {
		t.Fatalf("expiry after restore emitted %v, want the two admitted rows retracted", got)
	}
}
