package stream

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

func areaSchema() *data.Schema {
	s := data.NewSchema("sa",
		data.Col("room", data.TString),
		data.Col("status", data.TString),
	)
	s.IsStream = true
	return s
}

func seatSchema() *data.Schema {
	s := data.NewSchema("ss",
		data.Col("room", data.TString),
		data.Col("desk", data.TInt),
		data.Col("status", data.TString),
	)
	s.IsStream = true
	return s
}

func area(ts int64, room, status string) data.Tuple {
	return data.NewTuple(vtime.Time(ts), data.Str(room), data.Str(status))
}

func seat(ts int64, room string, desk int64, status string) data.Tuple {
	return data.NewTuple(vtime.Time(ts), data.Str(room), data.Int(desk), data.Str(status))
}

func newTestJoin(t *testing.T, residual expr.Expr) (*Join, *Collector) {
	t.Helper()
	out := areaSchema().Concat(seatSchema())
	col := NewCollector(out)
	j, err := NewJoin(col, areaSchema(), seatSchema(),
		[]string{"sa.room"}, []string{"ss.room"}, residual)
	if err != nil {
		t.Fatal(err)
	}
	return j, col
}

// joinRows counts the rows each side of j holds.
func joinRows(j *Join) (l, r int) {
	for _, rec := range j.recs {
		l += len(rec.rows[0])
		r += len(rec.rows[1])
	}
	return l, r
}

func TestJoinBasicMatch(t *testing.T) {
	j, col := newTestJoin(t, nil)
	j.Left().Push(area(1, "L1", "open"))
	j.Right().Push(seat(2, "L1", 1, "free"))
	j.Right().Push(seat(3, "L2", 1, "free")) // no partner
	got := col.Snapshot()
	if len(got) != 1 {
		t.Fatalf("joined = %v", got)
	}
	if got[0].Vals[0].AsString() != "L1" || got[0].Vals[2].AsString() != "L1" {
		t.Fatalf("tuple = %v", got[0])
	}
	// max timestamp propagates
	if got[0].TS != 2 {
		t.Fatalf("ts = %v", got[0].TS)
	}
	if l, r := joinRows(j); l != 1 || r != 2 {
		t.Fatalf("tables = %d, %d", l, r)
	}
}

func TestJoinRetraction(t *testing.T) {
	j, col := newTestJoin(t, nil)
	a := area(1, "L1", "open")
	s1 := seat(1, "L1", 1, "free")
	s2 := seat(1, "L1", 2, "free")
	j.Left().Push(a)
	j.Right().Push(s1)
	j.Right().Push(s2)
	if col.Len() != 2 {
		t.Fatalf("inserts = %v", col.Snapshot())
	}
	j.Left().Push(a.Negate()) // retracting the area row retracts both joins
	got := col.Snapshot()
	if len(got) != 4 {
		t.Fatalf("events = %v", got)
	}
	if got[2].Op != data.Delete || got[3].Op != data.Delete {
		t.Fatalf("retractions = %v", got[2:])
	}
	if l, _ := joinRows(j); l != 0 {
		t.Fatal("left table should be empty")
	}
}

func TestJoinResidualPredicate(t *testing.T) {
	j, col := newTestJoin(t, expr.Bin{Op: expr.OpGt, L: expr.C("ss.desk"), R: expr.L(1)})
	j.Left().Push(area(1, "L1", "open"))
	j.Right().Push(seat(1, "L1", 1, "free")) // fails residual
	j.Right().Push(seat(1, "L1", 2, "free")) // passes
	got := col.Snapshot()
	if len(got) != 1 || got[0].Vals[3].AsInt() != 2 {
		t.Fatalf("residual join = %v", got)
	}
}

func TestJoinErrors(t *testing.T) {
	out := areaSchema().Concat(seatSchema())
	col := NewCollector(out)
	if _, err := NewJoin(col, areaSchema(), seatSchema(),
		[]string{"sa.room"}, []string{}, nil); err == nil {
		t.Fatal("key arity mismatch accepted")
	}
	if _, err := NewJoin(col, areaSchema(), seatSchema(),
		[]string{"bogus"}, []string{"ss.room"}, nil); err == nil {
		t.Fatal("bad left key accepted")
	}
	if _, err := NewJoin(col, areaSchema(), seatSchema(),
		[]string{"sa.room"}, []string{"bogus"}, nil); err == nil {
		t.Fatal("bad right key accepted")
	}
	if _, err := NewJoin(col, areaSchema(), seatSchema(),
		[]string{"sa.room"}, []string{"ss.room"}, expr.C("nope")); err == nil {
		t.Fatal("unbound residual accepted")
	}
	small := NewCollector(areaSchema())
	if _, err := NewJoin(small, areaSchema(), seatSchema(),
		[]string{"sa.room"}, []string{"ss.room"}, nil); err == nil {
		t.Fatal("downstream arity mismatch accepted")
	}
}

// Property: the symmetric hash join over two time windows holds exactly the
// nested-loop join of the windows' contents, as a multiset after every
// step, under both hash masks. The windows see duplicates (one Vals pushed
// twice), value-equal tuples with Vals of their own, upstream retractions
// (of held tuples, by their own Vals or a copy, and of tuples never held)
// and NULL, NaN and ±0 join keys, so retractions reach the join both
// sharing the Vals of the row it holds and not.
func TestJoinEquivalentToNestedLoop(t *testing.T) {
	sides := twinSchemas()
	keys := []data.Value{data.Float(1), data.Float(2), data.Null, data.Float(math.NaN()), data.Float(0), data.Float(math.Copysign(0, -1))}
	spans := [2]time.Duration{10 * time.Second, 15 * time.Second}
	for _, mask := range []uint64{^uint64(0), 0} {
		t.Run(fmt.Sprintf("mask=%x", mask&1), func(t *testing.T) {
			defer SetTestHashMask(SetTestHashMask(mask))
			rng := rand.New(rand.NewSource(5))
			mat := NewMaterialize(sides[0].Concat(sides[1]))
			j := must[*Join](t)(NewJoin(mat, sides[0], sides[1], []string{"l.k"}, []string{"r.k"}, nil))
			wins := [2]*Window{NewTimeWindow(j.Left(), spans[0], 0), NewTimeWindow(j.Right(), spans[1], 0)}
			var ref [2][]data.Tuple // the windows' contents, by definition
			now := vtime.Time(0)
			for step := range 600 {
				now += vtime.Time(rng.Int63n(int64(2 * vtime.Second)))
				side := rng.Intn(2)
				live := ref[side]
				tu := windowDelta(rng, live, keys, now)
				wins[side].Push(tu)
				if tu.Op != data.Delete {
					ref[side] = append(live, tu)
				} else if k := slices.IndexFunc(live, tu.EqualVals); k >= 0 {
					ref[side] = slices.Delete(live, k, k+1)
				}
				for s, w := range wins {
					w.Advance(now)
					ref[s] = expireRef(ref[s], now, spans[s])
				}

				want := map[string]int{}
				for _, a := range ref[0] {
					for _, b := range ref[1] {
						if a.EqualOn([]int{0}, b, []int{0}) {
							want[a.ConcatInto(nil, b).Key()]++
						}
					}
				}
				got := map[string]int{}
				for _, row := range mat.MustSnapshot(nil, -1) {
					got[row.Key()]++
				}
				if !maps.Equal(got, want) {
					t.Fatalf("step %d (%d %v): join holds %v, nested loop %v", step, side, tu, got, want)
				}
				checkArrivals(t, j)
				checkJoinKeys(t, j)
			}
		})
	}
}

// windowDelta is a random tuple for a window holding live: a retraction of a
// held tuple, by its own Vals or by a copy; a retraction of a tuple never
// held; a duplicate, a held tuple's Vals again; a value-equal copy of a held
// tuple; or, most often, a fresh row with one of keys.
func windowDelta(rng *rand.Rand, live []data.Tuple, keys []data.Value, now vtime.Time) data.Tuple {
	switch c := rng.Intn(10); {
	case c < 2 && len(live) > 0:
		tu := live[rng.Intn(len(live))].Negate()
		if c == 1 {
			tu = tu.Clone()
		}
		return tu
	case c == 2:
		return data.NewTuple(now, keys[rng.Intn(len(keys))], data.Int(-1)).Negate()
	case c == 3 && len(live) > 0:
		return data.Tuple{Vals: live[rng.Intn(len(live))].Vals, TS: now}
	case c == 4 && len(live) > 0:
		tu := live[rng.Intn(len(live))].Clone()
		tu.TS = now
		return tu
	}
	return data.NewTuple(now, keys[rng.Intn(len(keys))], data.Int(int64(rng.Intn(3))))
}

func expireRef(win []data.Tuple, now vtime.Time, rng time.Duration) []data.Tuple {
	out := win[:0]
	for _, tu := range win {
		if tu.TS > now.Add(-rng) {
			out = append(out, tu)
		}
	}
	return out
}

// A join that writes only some columns emits, batch for batch, the rows of
// the whole-row join narrowed to those columns — in front of a retaining
// consumer (fresh Vals) and of one that keeps nothing (the pooled arena) —
// with its residual evaluated on the written row. Every deletion retracts a
// live row: a join retracts a row its side never held against the other
// side anyway, and those retractions, narrowed, may match a different row.
func TestJoinColsMatchesNarrowedJoin(t *testing.T) {
	project := func(tu data.Tuple, idx []int) data.Tuple {
		vals := make([]data.Value, len(idx))
		for i, j := range idx {
			vals[i] = tu.Vals[j]
		}
		return data.Tuple{Vals: vals, TS: tu.TS, Op: tu.Op}
	}
	residual := expr.Bin{Op: expr.OpNe, L: expr.C("sa.status"), R: expr.C("ss.status")}
	full := areaSchema().Concat(seatSchema())
	for _, keep := range [][]int{{1, 4}, {0, 1, 4}, {1, 2, 3, 4}, {1, 4}} {
		out := full.Project(keep)
		for _, mat := range []bool{false, true} {
			var sink, ref Operator = NewCollector(out), NewCollector(full)
			if mat {
				sink, ref = NewMaterialize(out), NewMaterialize(full)
			}
			narrow := must[*Join](t)(NewJoinCols(sink, areaSchema(), seatSchema(), []string{"sa.room"}, []string{"ss.room"}, residual, keep))
			whole := must[*Join](t)(NewJoin(ref, areaSchema(), seatSchema(), []string{"sa.room"}, []string{"ss.room"}, residual))
			if !slices.Equal(narrow.OutSchema().Cols, out.Cols) {
				t.Fatalf("keep %v: join writes %s, want %s", keep, narrow.OutSchema(), out)
			}
			rng := rand.New(rand.NewSource(int64(len(keep))))
			var sent [2][]data.Tuple
			status := []string{"free", "busy"}
			for step := range 200 {
				side := rng.Intn(2)
				var batch []data.Tuple
				for range 1 + rng.Intn(3) {
					if live := sent[side]; len(live) > 0 && rng.Intn(4) == 0 {
						k := rng.Intn(len(live))
						batch = append(batch, live[k].Negate())
						sent[side] = slices.Delete(live, k, k+1)
						continue
					}
					room := "R" + string(rune('0'+rng.Intn(3)))
					tu := area(int64(step), room, status[rng.Intn(2)])
					if side == 1 {
						tu = seat(int64(step), room, int64(rng.Intn(4)), status[rng.Intn(2)])
					}
					sent[side] = append(sent[side], tu)
					batch = append(batch, tu)
				}
				ins := [2][2]Operator{{narrow.Left(), narrow.Right()}, {whole.Left(), whole.Right()}}
				ins[0][side].PushBatch(batch)
				ins[1][side].PushBatch(batch)
				if mat {
					// A result keeps one timestamp per distinct row, so only
					// the values and their multiplicities compare.
					got, want := sink.(*Materialize).MustSnapshot(nil, -1), ref.(*Materialize).MustSnapshot(nil, -1)
					for i := range want {
						want[i] = project(want[i], keep)
						want[i].TS = 0
					}
					for i := range got {
						got[i].TS = 0
					}
					sortByKey(got)
					sortByKey(want)
					if !sameTuples(got, want) {
						t.Fatalf("keep %v step %d: result %v, want %v", keep, step, got, want)
					}
					continue
				}
				got, want := sink.(*Collector).Snapshot(), ref.(*Collector).Snapshot()
				for i := range want {
					want[i] = project(want[i], keep)
				}
				if !sameTuples(got, want) {
					t.Fatalf("keep %v step %d: emitted %v, want %v", keep, step, got, want)
				}
			}
		}
	}
}

// NewJoinCols refuses column lists that are not ascending positions of the
// concatenated schema, and a residual over a column it does not write.
func TestJoinColsErrors(t *testing.T) {
	full := areaSchema().Concat(seatSchema())
	for _, keep := range [][]int{{4, 1}, {1, 1}, {-1, 2}, {0, 5}} {
		if _, err := NewJoinCols(NewCollector(full), areaSchema(), seatSchema(), []string{"sa.room"}, []string{"ss.room"}, nil, keep); err == nil {
			t.Errorf("keep %v accepted", keep)
		}
	}
	residual := expr.Bin{Op: expr.OpNe, L: expr.C("sa.status"), R: expr.C("ss.status")}
	if _, err := NewJoinCols(NewCollector(full.Project([]int{1})), areaSchema(), seatSchema(),
		[]string{"sa.room"}, []string{"ss.room"}, residual, []int{1}); err == nil {
		t.Error("a residual over a column the join does not write was accepted")
	}
	if _, err := NewJoinCols(NewCollector(full), areaSchema(), seatSchema(),
		[]string{"sa.room"}, []string{"ss.room"}, nil, []int{1}); err == nil {
		t.Error("a consumer wider than the written columns was accepted")
	}
}

// checkArrivals checks j's arrival queues against the rows its sides hold:
// every row is named by exactly one entry, entries and each record's rows
// run in rising seq, the side counts its rows right, and a queue holds at
// most twice as many entries as its side holds rows.
func checkArrivals(t testing.TB, j *Join) {
	t.Helper()
	for side := range j.arrived {
		a := &j.arrived[side]
		q := a.q[a.head:]
		named := make(map[arrival]int, len(q))
		for i, e := range q {
			if i > 0 && e.seq <= q[i-1].seq {
				t.Fatalf("side %d: entry %d has seq %d after %d", side, i, e.seq, q[i-1].seq)
			}
			named[e]++
		}
		held := 0
		for id, r := range j.recs {
			for k, row := range r.rows[side] {
				if n := named[arrival{rec: int32(id), seq: row.seq}]; n != 1 || k > 0 && row.seq <= r.rows[side][k-1].seq {
					t.Fatalf("side %d: row %d of record %d, %v, is named by %d entries", side, k, id, row.tuple(), n)
				}
				held++
			}
		}
		if a.rows != held || len(q) > 2*held {
			t.Fatalf("side %d: holds %d rows, counts %d, queues %d entries", side, held, a.rows, len(q))
		}
	}
}

// checkJoinKeys checks j's table, and its records against it: a record per
// id, a live record holds rows and its key EqualOns the first row of each
// side that holds any, and a retired record holds no rows.
func checkJoinKeys(t testing.TB, j *Join) {
	t.Helper()
	j.index.check(t)
	if len(j.recs) != int(j.index.ids) {
		t.Fatalf("%d records for %d ids", len(j.recs), j.index.ids)
	}
	for id, r := range j.recs {
		if n, live := len(r.rows[0])+len(r.rows[1]), j.index.isLive(int32(id)); n == 0 || !live {
			if n > 0 || live {
				t.Fatalf("record %d holds %d+%d rows, live %v", id, len(r.rows[0]), len(r.rows[1]), live)
			}
			continue
		}
		key := data.Tuple{Vals: j.index.key(int32(id))}
		for side, rows := range r.rows {
			if len(rows) > 0 && !rows[0].tuple().EqualOn(j.keys[side], key, j.index.ident) {
				t.Fatalf("record %d: key %v, but side %d's first row is %v", id, key.Vals, side, rows[0].tuple())
			}
		}
	}
}

// A record carries its key: a retired record's key cells are cleared, and
// the next key to take the record writes its own. With every key under one
// hash tag, only the arena tells keys apart, so a stale or cleared key
// would split one key's rows over two records or let two keys share one.
func TestJoinKeyArenaFollowsRecords(t *testing.T) {
	defer SetTestHashMask(SetTestHashMask(0))
	j, col := newTestJoin(t, nil)
	l, r := j.Left(), j.Right()
	l.Push(area(1, "L101", "a"))
	l.Push(area(1, "L101", "a").Negate())
	checkJoinKeys(t, j)
	if x := &j.index; len(x.free) != 1 || x.key(x.free[0])[0] != (data.Value{}) {
		t.Fatalf("retired records %v, key cells %v", x.free, x.keys)
	}
	r.Push(seat(2, "L102", 1, "busy")) // takes the retired record
	l.Push(area(3, "L101", "b"))
	l.Push(area(4, "L102", "c"))
	r.Push(seat(5, "L101", 2, "free"))
	checkJoinKeys(t, j)
	if len(j.recs) != 2 || len(j.index.free) != 0 {
		t.Fatalf("%d records, %d retired; want 2 and 0", len(j.recs), len(j.index.free))
	}
	got := map[string]bool{}
	for _, row := range col.Snapshot() {
		got[row.Vals[0].AsString()+"/"+row.Vals[2].AsString()+"/"+row.Vals[1].AsString()] = true
	}
	if want := map[string]bool{"L102/L102/c": true, "L101/L101/b": true}; !maps.Equal(got, want) {
		t.Fatalf("joined %v, want %v", got, want)
	}
}

// sameDelta reports whether two deltas are identical: values bit for bit
// (NaN keys included), timestamp and polarity.
func sameDelta(a, b data.Tuple) bool { return bitEqual(a, b) && a.TS == b.TS && a.Op == b.Op }

// twinSchemas are the sides of the arrival-order tests: a FLOAT key and a
// payload.
func twinSchemas() [2]*data.Schema {
	return [2]*data.Schema{
		data.NewSchema("l", data.Col("k", data.TFloat), data.Col("v", data.TInt)),
		data.NewSchema("r", data.Col("k", data.TFloat), data.Col("w", data.TInt)),
	}
}

// watchedInput feeds side of j one tuple at a time, counting the
// retractions that leave by the front of the side's arrival queue in
// path[0] and the ones that take the probe in path[1].
func watchedInput(j *Join, side int, path *[2]int) Operator {
	in := joinSides(j)[side]
	return NewCallback(j.in[side], func(ts []data.Tuple) {
		for _, tu := range ts {
			if tu.Op == data.Delete {
				if j.front(tu, side) >= 0 {
					path[0]++
				} else {
					path[1]++
				}
			}
			in.PushBatch([]data.Tuple{tu})
		}
	})
}

// The two ways a retraction finds its row, against each other: twin joins
// take every batch of one RANGE and one ROWS window, A the windows' own
// tuples, whose expiries share the Vals of the rows A holds, B value-equal
// copies, which never do. Duplicates, value-equal tuples, upstream
// retractions and retractions of tuples never held ride along, over NULL
// and NaN keys. After every batch both have emitted the same rows in the
// same order, and A took both paths.
func TestJoinExpiryTwins(t *testing.T) {
	sides := twinSchemas()
	keys := []data.Value{data.Float(1), data.Float(2), data.Float(3), data.Null, data.Float(math.NaN())}
	for _, mask := range []uint64{^uint64(0), 0} {
		t.Run(fmt.Sprintf("mask=%x", mask&1), func(t *testing.T) {
			defer SetTestHashMask(SetTestHashMask(mask))
			rng := rand.New(rand.NewSource(13))
			out := sides[0].Concat(sides[1])
			colA, colB := NewCollector(out), NewCollector(out)
			a := must[*Join](t)(NewJoin(colA, sides[0], sides[1], []string{"l.k"}, []string{"r.k"}, nil))
			b := must[*Join](t)(NewJoin(colB, sides[0], sides[1], []string{"l.k"}, []string{"r.k"}, nil))
			var path [2]int
			step := 0
			tee := func(side int) Operator {
				inA, inB := watchedInput(a, side, &path), joinSides(b)[side]
				return NewCallback(sides[side], func(ts []data.Tuple) {
					inA.PushBatch(ts)
					copies := make([]data.Tuple, len(ts))
					for i, tu := range ts {
						copies[i] = tu.Clone()
					}
					inB.PushBatch(copies)
					if got, want := colA.Snapshot(), colB.Snapshot(); !slices.EqualFunc(got, want, sameDelta) {
						t.Fatalf("step %d, side %d, batch %v: fast path emitted %v, probed path %v", step, side, ts, got, want)
					}
					colA.Reset()
					colB.Reset()
				})
			}
			wins := [2]*Window{NewTimeWindow(tee(0), 3*time.Second, 0), NewRowsWindow(tee(1), 6)}
			now := vtime.Time(0)
			for ; step < 2000; step++ {
				now += vtime.Time(rng.Int63n(int64(vtime.Second)))
				side := rng.Intn(2)
				live := wins[side].Contents()
				batch := make([]data.Tuple, 1+rng.Intn(4))
				for i := range batch {
					batch[i] = windowDelta(rng, live, keys, now)
				}
				wins[side].PushBatch(batch)
				wins[0].Advance(now)
				checkArrivals(t, a)
				checkArrivals(t, b)
				checkJoinKeys(t, a)
				checkJoinKeys(t, b)
			}
			if path[0] <= path[1] || path[1] == 0 {
				t.Fatalf("A took the fast path %d times and the probe %d times", path[0], path[1])
			}
		})
	}
}

// A join fed only out-of-order retractions keeps its arrival queues within
// twice the rows its sides hold: each retraction takes a row other than its
// side's oldest, which stays, so no entry ever leaves by the front and only
// compaction drops the stale ones. It joins like the nested-loop join.
func TestJoinArrivalQueueBounded(t *testing.T) {
	sides := twinSchemas()
	col := NewCollector(sides[0].Concat(sides[1]))
	j := must[*Join](t)(NewJoin(col, sides[0], sides[1], []string{"l.k"}, []string{"r.k"}, nil))
	ref := &nestedLoop{keys: [2][]int{{0}, {0}}}
	heads := joinSides(j)
	push := func(round, side int, tu data.Tuple) {
		want := ref.push(tu, side)
		heads[side].Push(tu)
		got := col.Snapshot()
		col.Reset()
		if !slices.EqualFunc(got, want, sameDelta) {
			t.Fatalf("round %d (%d %v): joined %v, want %v", round, side, tu, got, want)
		}
	}
	rng := rand.New(rand.NewSource(11))
	keys := []data.Value{data.Float(1), data.Float(2), data.Null}
	var held [2][]data.Tuple
	for round := range 20000 {
		side := round % 2
		tu := data.NewTuple(vtime.Time(round), keys[rng.Intn(len(keys))], data.Int(int64(round)))
		push(round, side, tu)
		held[side] = append(held[side], tu)
		if live := held[side]; len(live) > 24 {
			k := 1 + rng.Intn(len(live)-1)
			del := live[k].Negate()
			if rng.Intn(2) == 0 {
				del = del.Clone()
			}
			push(round, side, del)
			held[side] = slices.Delete(live, k, k+1)
		}
		checkArrivals(t, j)
	}
}

// A join restored behind restored windows holds copies of the windows' rows,
// so their expiries take the probe and leave stale entries; once one window
// length has passed, every expiry leaves by the front again. Throughout, its
// result matches a run that was never interrupted. The windows take more
// rows per tick after the restore than before, so the stale entries never
// outnumber the rows and only the front's skipping drops them.
func TestJoinRestoreReturnsToFastPath(t *testing.T) {
	sides := twinSchemas()
	out := sides[0].Concat(sides[1])
	const span, restoreAt = 10, 15 // seconds
	type run struct {
		j    *Join
		wins [2]*Window
		mat  *Materialize
		path [2]int
	}
	build := func() *run {
		r := &run{mat: NewMaterialize(out)}
		r.j = must[*Join](t)(NewJoin(r.mat, sides[0], sides[1], []string{"l.k"}, []string{"r.k"}, nil))
		for side := range r.wins {
			r.wins[side] = NewTimeWindow(watchedInput(r.j, side, &r.path), span*time.Second, 0)
		}
		return r
	}
	tick := func(r *run, sec, n int) {
		now := vtime.Time(sec) * vtime.Second
		for side, w := range r.wins {
			batch := make([]data.Tuple, n)
			for i := range batch {
				k := data.Float(float64((sec + i + side) % 4))
				if i == 0 {
					k = data.Null
				}
				batch[i] = data.NewTuple(now, k, data.Int(int64(sec*10+i)))
			}
			w.PushBatch(batch)
			w.Advance(now)
		}
	}
	whole, cut := build(), build()
	for sec := range restoreAt {
		tick(whole, sec, 3)
		tick(cut, sec, 3)
	}
	restored := build()
	cks := []Checkpointer{cut.j, cut.wins[0], cut.wins[1], cut.mat}
	for i, ck := range []Checkpointer{restored.j, restored.wins[0], restored.wins[1], restored.mat} {
		if err := ck.RestoreState(gobCopy(t, cks[i].CheckpointState())); err != nil {
			t.Fatal(err)
		}
	}
	checkArrivals(t, restored.j)
	probed := 0
	for sec := restoreAt; sec < restoreAt+3*span; sec++ {
		tick(whole, sec, 5)
		restored.path = [2]int{}
		tick(restored, sec, 5)
		checkArrivals(t, restored.j)
		probed += restored.path[1]
		if sec >= restoreAt+span && (restored.path[1] != 0 || restored.path[0] == 0) {
			t.Fatalf("%d s, %d s after the restore: %d retractions left by the front, %d took the probe",
				sec, sec-restoreAt, restored.path[0], restored.path[1])
		}
		got, want := restored.mat.MustSnapshot(nil, -1), whole.mat.MustSnapshot(nil, -1)
		if !sameMultiset(got, want) {
			t.Fatalf("%d s: restored join holds %v, uninterrupted %v", sec, got, want)
		}
	}
	if probed == 0 {
		t.Fatal("no retraction of a restored row took the probe")
	}
}
