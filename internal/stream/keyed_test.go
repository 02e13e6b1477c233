package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// endHashes returns n distinct hashes whose home is the last slot of a table
// of any size: each times the Fibonacci multiplier is within n of 2^64-1, so
// its tag is all ones.
func endHashes(n int) []uint64 {
	const phi = 0x9e3779b97f4a7c15
	inv := uint64(phi) // Newton's iteration for phi's inverse mod 2^64
	for range 6 {
		inv *= 2 - phi*inv
	}
	out := make([]uint64, n)
	for k := range out {
		out[k] = (^uint64(0) - uint64(k)) * inv
	}
	return out
}

// The index is driven against a map from hash to ids: interleaved puts, finds
// and deletes over a hash pool where many ids share a hash and some hashes
// (with one tag) start their run in the table's last slot, under both masks.
// After every step each hash's candidates are exactly the reference's ids
// under the hashes of its tag, so growth and backward shifts, wrapping or
// not, lose and invent nothing.
func TestKeyIndexDifferential(t *testing.T) {
	for _, mask := range []uint64{^uint64(0), 0} {
		t.Run(fmt.Sprintf("mask=%x", mask&1), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(mask&1) + 33))
			pool := endHashes(4)
			for range 12 {
				pool = append(pool, rng.Uint64())
			}
			x := newKeyIndex()
			ref := map[uint64][]int32{}
			next, wrapped := int32(0), false
			candidates := func(h uint64) []int32 {
				var ids []int32
				x.find(h, func(id int32) bool { ids = append(ids, id); return false })
				return ids
			}
			for step := range 4000 {
				h := pool[rng.Intn(len(pool))] & mask
				ids := ref[h]
				switch op := rng.Intn(10); {
				case op < 5 && x.n < 300 || len(ids) == 0:
					x.reserve()
					i, id := x.find(h, noRecord)
					if id != -1 || x.slots[i].id != 0 {
						t.Fatalf("step %d: find with no match returned slot %d id %d", step, i, id)
					}
					x.put(i, h, next)
					ref[h] = append(ids, next)
					next++
				case op < 7:
					want := ids[rng.Intn(len(ids))]
					if _, got := x.find(h, func(id int32) bool { return id == want }); got != want {
						t.Fatalf("step %d: find %d under %x got %d", step, want, h, got)
					}
					if _, got := x.find(h, func(id int32) bool { return id == next }); got != -1 {
						t.Fatalf("step %d: found unknown id %d", step, next)
					}
				default:
					k := rng.Intn(len(ids))
					x.del(x.slotOf(h, ids[k]))
					ref[h] = slices.Delete(ids, k, k+1)
				}
				total, byTag := 0, map[uint32][]int32{}
				for rh, rids := range ref {
					total += len(rids)
					byTag[tagOf(rh)] = append(byTag[tagOf(rh)], rids...)
				}
				for rh := range ref {
					got := candidates(rh)
					slices.Sort(got)
					want := slices.Sorted(slices.Values(byTag[tagOf(rh)]))
					if !slices.Equal(got, want) {
						t.Fatalf("step %d: hash %x holds %v, want %v", step, rh, got, want)
					}
				}
				if x.n != total || 2*x.n > len(x.slots) {
					t.Fatalf("step %d: %d entries in %d slots, want %d at most half full", step, x.n, len(x.slots), total)
				}
				if last := x.slots[len(x.slots)-1]; last.id != 0 && x.slots[0].id != 0 && x.home(x.slots[0].tag) == len(x.slots)-1 {
					wrapped = true
				}
			}
			if len(x.slots) < 64 {
				t.Fatalf("the table never grew past %d slots", len(x.slots))
			}
			if mask != 0 && !wrapped {
				t.Fatal("no probe run wrapped the table end")
			}
		})
	}
}

// nestedLoop is the join by definition: each side's live rows in arrival
// order, and for every arriving tuple, every row of the other side whose key
// equals its key, in that order.
type nestedLoop struct {
	keys [2][]int
	rows [2][]data.Tuple
}

func (n *nestedLoop) push(t data.Tuple, side int) []data.Tuple {
	own := n.rows[side]
	if t.Op == data.Delete {
		if k := slices.IndexFunc(own, t.EqualVals); k >= 0 {
			n.rows[side] = slices.Delete(own, k, k+1)
		}
	} else {
		n.rows[side] = append(own, t)
	}
	var out []data.Tuple
	for _, m := range n.rows[1-side] {
		if !t.EqualOn(n.keys[side], m, n.keys[1-side]) {
			continue
		}
		l, r := t, m
		if side == 1 {
			l, r = m, t
		}
		j := l.ConcatInto(nil, r)
		j.Op, j.TS = t.Op, max(l.TS, r.TS)
		out = append(out, j)
	}
	return out
}

type joinStep struct {
	side int
	t    data.Tuple
}

func insStep(side int, k data.Value, v string) joinStep {
	return joinStep{side, data.NewTuple(0, k, data.Str(v))}
}

func delStep(side int, k data.Value, v string) joinStep {
	return joinStep{side, data.NewTuple(0, k, data.Str(v)).Negate()}
}

// The join against the nested-loop join, tuple by tuple: the same joined
// rows in the same order, values, timestamps and polarity alike, and the
// same rows held on each side after every step, under both hash masks.
func TestJoinMatchesNestedLoop(t *testing.T) {
	one, null := data.Int(1), data.Null
	pins := []struct {
		name  string
		cross bool
		steps []joinStep
	}{
		{"null-keys", false, []joinStep{insStep(0, null, "a"), insStep(1, null, "x"), insStep(1, data.Float(0), "y"),
			insStep(0, data.Str(""), "b"), delStep(0, null, "a"), insStep(0, null, "c")}},
		{"int-float", false, []joinStep{insStep(0, one, "a"), insStep(1, data.Float(1), "x"), insStep(1, data.Float(1.5), "y"),
			insStep(0, data.Float(1), "b"), delStep(1, data.Int(1), "x"), insStep(1, data.Int(1), "z")}},
		{"ghost-delete", false, []joinStep{insStep(1, one, "x"), delStep(0, one, "never"), insStep(0, one, "a"),
			delStep(0, one, "a"), delStep(0, one, "a"), delStep(1, one, "x"), delStep(0, one, "a")}},
		{"cross-join", true, []joinStep{insStep(0, one, "a"), insStep(0, data.Int(2), "b"), insStep(1, null, "x"),
			delStep(0, one, "a"), insStep(1, data.Str("s"), "y"), delStep(1, null, "x"), delStep(0, null, "ghost"), delStep(0, data.Int(2), "b"),
			delStep(1, data.Str("s"), "y"), insStep(0, one, "c")}},
		{"arrival-order", false, []joinStep{insStep(0, one, "a"), insStep(0, one, "b"), insStep(0, data.Int(2), "z"),
			insStep(0, one, "c"), delStep(0, one, "b"), insStep(0, one, "d"), insStep(0, one, "a"), insStep(1, one, "x"),
			delStep(0, one, "a"), insStep(1, data.Float(1), "y"), delStep(1, one, "x")}},
	}
	rng := rand.New(rand.NewSource(7))
	keys := []data.Value{null, one, data.Float(1), data.Int(2), data.Str("a"), data.Str("")}
	var random []joinStep
	var live [2][]data.Tuple
	for i := range 600 {
		side := rng.Intn(2)
		switch {
		case rng.Intn(3) == 0 && len(live[side]) > 0:
			k := rng.Intn(len(live[side]))
			random = append(random, joinStep{side, live[side][k].Negate()})
			live[side] = slices.Delete(live[side], k, k+1)
		case rng.Intn(8) == 0:
			random = append(random, delStep(side, keys[rng.Intn(len(keys))], "ghost"))
		default:
			s := insStep(side, keys[rng.Intn(len(keys))], fmt.Sprint(i%5))
			random = append(random, s)
			live[side] = append(live[side], s.t)
		}
	}
	pins = append(pins, struct {
		name  string
		cross bool
		steps []joinStep
	}{"random", false, random})

	l := data.NewSchema("l", data.Col("k", data.TFloat), data.Col("v", data.TString))
	r := data.NewSchema("r", data.Col("k", data.TFloat), data.Col("w", data.TString))
	for _, mask := range []uint64{^uint64(0), 0} {
		for _, p := range pins {
			t.Run(fmt.Sprintf("mask=%x/%s", mask&1, p.name), func(t *testing.T) {
				defer SetTestHashMask(SetTestHashMask(mask))
				lk, rk := []string{"l.k"}, []string{"r.k"}
				ref := &nestedLoop{keys: [2][]int{{0}, {0}}}
				if p.cross {
					lk, rk = nil, nil
					ref.keys = [2][]int{{}, {}}
				}
				col := NewCollector(l.Concat(r))
				j := must[*Join](t)(NewJoin(col, l, r, lk, rk, nil))
				heads := joinSides(j)
				emitted := 0
				for i, s := range p.steps {
					s.t.TS = vtime.Time(i)
					want := ref.push(s.t, s.side)
					heads[s.side].Push(s.t)
					got := col.Snapshot()[emitted:]
					emitted += len(got)
					if len(got) != len(want) {
						t.Fatalf("step %d (%d %v): joined %v, want %v", i, s.side, s.t, got, want)
					}
					for k := range want {
						if !bitEqual(got[k], want[k]) || got[k].TS != want[k].TS || got[k].Op != want[k].Op {
							t.Fatalf("step %d (%d %v): row %d = %v, want %v", i, s.side, s.t, k, got[k], want[k])
						}
					}
					ck := j.CheckpointState().Join
					for side, held := range [2][]data.Tuple{ck.L, ck.R} {
						if !sameMultiset(held, ref.rows[side]) {
							t.Fatalf("step %d: side %d holds %v, want %v", i, side, held, ref.rows[side])
						}
					}
				}
				if emitted == 0 {
					t.Fatal("nothing joined")
				}
			})
		}
	}
}

// sameMultiset reports whether a and b hold the same rows, by value.
func sameMultiset(a, b []data.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	left := slices.Clone(b)
	for _, t := range a {
		k := slices.IndexFunc(left, func(o data.Tuple) bool { return bitEqual(o, t) })
		if k < 0 {
			return false
		}
		left = slices.Delete(left, k, k+1)
	}
	return true
}

// gobCopy deep-copies an operator state through its wire encoding.
func gobCopy(t *testing.T, s OpState) OpState {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	var out OpState
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// A group or join checkpoint is not trusted: a key of the wrong arity or of
// an unknown type, a count below one, the wrong number of aggregates, a last
// row of the wrong width, a key listed twice, a value multiset count below
// one, or a join row of the wrong arity or an unknown type, is an error that
// leaves the operator as it was. Hash collisions are forced, so a key that
// got in would be compared with every pushed tuple's. A multiset carried by
// an aggregate other than MIN and MAX is ignored.
func TestKeyedRestoreValidates(t *testing.T) {
	defer SetTestHashMask(SetTestHashMask(0))
	in := tempSchema()
	group := []string{"room"}
	specs := []AggSpec{{Kind: AggCount, Alias: "n"}, {Kind: AggAvg, Arg: expr.C("temp"), Alias: "a"},
		{Kind: AggMax, Arg: expr.C("temp"), Alias: "hi"}}
	out := must[*data.Schema](t)(AggOutSchema(in, group, specs))
	partial := must[*data.Schema](t)(AggPartialSchema(in, group, specs))
	prior := []data.Tuple{temp(1, "L1", 20), temp(2, "L2", 21), temp(3, "L1", 22)}
	later := []data.Tuple{temp(4, "L1", 23), temp(5, "L3", 24), temp(1, "L1", 20).Negate(), temp(6, "L9", 1).Negate()}
	kinds := []struct {
		name  string
		build func() (head Operator, ck Checkpointer, groups func() int)
	}{
		{"aggregate", func() (Operator, Checkpointer, func() int) {
			a := must[*Aggregate](t)(NewAggregate(NewCollector(out), in, group, specs, nil))
			return a, a, a.Groups
		}},
		{"partial", func() (Operator, Checkpointer, func() int) {
			a := must[*PartialAggregate](t)(NewPartialAggregate(NewCollector(partial), in, group, specs))
			return a, a, a.Groups
		}},
		{"final-merge", func() (Operator, Checkpointer, func() int) {
			fm := must[*FinalMerge](t)(NewFinalMerge(NewCollector(out), in, group, specs, nil))
			return must[*PartialAggregate](t)(NewPartialAggregate(fm, in, group, specs)), fm, fm.Groups
		}},
	}
	bad := []struct {
		name   string
		mutate func(gs []GroupState) []GroupState
	}{
		{"nil key", func(gs []GroupState) []GroupState { gs[0].KeyVals = nil; return gs }},
		{"long key", func(gs []GroupState) []GroupState { gs[0].KeyVals = append(gs[0].KeyVals, data.Int(1)); return gs }},
		{"unknown key type", func(gs []GroupState) []GroupState { gs[0].KeyVals[0] = data.Value{T: 99}; return gs }},
		{"count zero", func(gs []GroupState) []GroupState { gs[0].Count = 0; return gs }},
		{"negative count", func(gs []GroupState) []GroupState { gs[1].Count = -3; return gs }},
		{"aggregates", func(gs []GroupState) []GroupState { gs[0].Aggs = gs[0].Aggs[:2]; return gs }},
		{"short last row", func(gs []GroupState) []GroupState { gs[0].LastOut = gs[0].LastOut[:1]; return gs }},
		{"long last row", func(gs []GroupState) []GroupState { gs[1].LastOut = append(gs[1].LastOut, data.Null); return gs }},
		{"duplicate key", func(gs []GroupState) []GroupState { return append(gs, gs[0]) }},
		{"int float duplicate", func(gs []GroupState) []GroupState {
			gs[0].KeyVals, gs[1].KeyVals = []data.Value{data.Int(1)}, []data.Value{data.Float(1)}
			return gs
		}},
		{"multiset count", func(gs []GroupState) []GroupState {
			for f := range gs[0].Aggs[2].Vals {
				gs[0].Aggs[2].Vals[f] = 0
			}
			return gs
		}},
	}
	for _, k := range kinds {
		for _, b := range bad {
			t.Run(k.name+"/"+b.name, func(t *testing.T) {
				head, ck, groups := k.build()
				head.PushBatch(prior)
				before := gobCopy(t, ck.CheckpointState())
				st := gobCopy(t, before)
				st.Groups.Groups = b.mutate(st.Groups.Groups)
				if err := ck.RestoreState(st); err == nil {
					t.Fatal("restored")
				}
				if after := gobCopy(t, ck.CheckpointState()); !reflect.DeepEqual(after, before) {
					t.Fatalf("a failed restore changed the state\nbefore: %+v\nafter:  %+v", *before.Groups, *after.Groups)
				}
				head.PushBatch(later)
				if groups() != 3 {
					t.Fatalf("%d groups after the later tuples, want L1 L2 L3", groups())
				}
			})
		}
		t.Run(k.name+"/foreign multiset", func(t *testing.T) {
			head, ck, _ := k.build()
			head.PushBatch(prior)
			st := gobCopy(t, ck.CheckpointState())
			for i := range st.Groups.Groups {
				st.Groups.Groups[i].Aggs[1].Vals = map[float64]int64{99: 1}
			}
			fresh, fck, groups := k.build()
			if err := fck.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			for _, g := range fck.CheckpointState().Groups.Groups {
				if g.Aggs[0].Vals != nil || g.Aggs[1].Vals != nil || len(g.Aggs[2].Vals) == 0 {
					t.Fatalf("group %v keeps multisets %v %v %v", g.KeyVals, g.Aggs[0].Vals, g.Aggs[1].Vals, g.Aggs[2].Vals)
				}
			}
			fresh.PushBatch(later)
			if groups() != 3 {
				t.Fatalf("%d groups, want 3", groups())
			}
		})
	}

	l, r := tempSchema(), seatSchema()
	for _, c := range []struct {
		name string
		st   JoinState
	}{
		{"short left row", JoinState{L: []data.Tuple{data.NewTuple(0, data.Str("L1"))}}},
		{"long right row", JoinState{R: []data.Tuple{data.NewTuple(0, data.Str("L1"), data.Int(1), data.Str("x"), data.Null)}}},
		{"unknown type", JoinState{L: []data.Tuple{data.NewTuple(0, data.Str("L1"), data.Value{T: 99})}}},
		{"left row on the right", JoinState{R: []data.Tuple{temp(1, "L1", 3)}}},
	} {
		t.Run("join/"+c.name, func(t *testing.T) {
			col := NewCollector(l.Concat(r))
			j := must[*Join](t)(NewJoin(col, l, r, []string{"t.room"}, []string{"ss.room"}, nil))
			j.Left().Push(temp(1, "L1", 20))
			j.Right().Push(seat(2, "L1", 1, "free"))
			before := gobCopy(t, j.CheckpointState())
			if err := j.RestoreState(OpState{Kind: ckJoin, Join: &c.st}); err == nil {
				t.Fatal("restored")
			}
			if after := gobCopy(t, j.CheckpointState()); !reflect.DeepEqual(after, before) {
				t.Fatalf("a failed restore changed the state: %+v", *after.Join)
			}
			j.Right().Push(seat(3, "L1", 2, "free"))
			if col.Len() != 2 {
				t.Fatalf("joined %v", col.Snapshot())
			}
		})
	}
}

// A retired group's record goes to the next new group, which must start from
// nothing: here a ghost delete empties L1's count while its MIN/MAX multiset
// still holds 5, and L2, taking the record, must not see it.
func TestRetiredGroupRecordStartsFresh(t *testing.T) {
	specs := []AggSpec{{Kind: AggMin, Arg: expr.C("temp"), Alias: "lo"}, {Kind: AggMax, Arg: expr.C("temp"), Alias: "hi"},
		{Kind: AggAvg, Arg: expr.C("temp"), Alias: "a"}}
	mat := NewMaterialize(must[*data.Schema](t)(AggOutSchema(tempSchema(), []string{"room"}, specs)))
	a := must[*Aggregate](t)(NewAggregate(mat, tempSchema(), []string{"room"}, specs, nil))
	a.Push(temp(1, "L1", 5))
	a.Push(temp(2, "L1", 7).Negate())
	a.Push(temp(3, "L2", 9))
	got := mat.MustSnapshot(nil, -1)
	if len(got) != 1 || !bitEqual(got[0], data.NewTuple(0, data.Str("L2"), data.Float(9), data.Float(9), data.Float(9))) {
		t.Fatalf("rows %v, want L2 at 9, 9, 9", got)
	}
}
