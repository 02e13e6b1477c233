package stream

import (
	"math"
	"slices"
	"testing"

	"aspen/internal/data"
	"aspen/internal/expr"
	"aspen/internal/vtime"
)

// checkGroupMemo checks gt's table, and its memo after a lookup of last:
// nothing is remembered, or the remembered group's key EqualOns last's
// grouping columns. A nil last means no lookup since the table was built or
// restored, so nothing may be remembered.
func checkGroupMemo(t testing.TB, name string, gt *groupTable, last *data.Tuple) {
	t.Helper()
	gt.index.check(t)
	switch id := gt.index.last; {
	case id == -1:
	case last == nil:
		t.Fatalf("%s: remembers record %d before any lookup", name, id)
	case !(data.Tuple{Vals: gt.index.key(id)}).EqualOn(gt.index.ident, *last, gt.keyIdx):
		t.Fatalf("%s: remembers record %d with key %v after a lookup of %v", name, id, gt.index.key(id), *last)
	}
}

var memoSchema = data.NewSchema("m", data.Col("g", data.TString), data.Col("k", data.TFloat), data.Col("v", data.TFloat))

var memoSpecs = []AggSpec{{Kind: AggCount, Alias: "n"}, {Kind: AggSum, Arg: expr.C("v"), Alias: "s"},
	{Kind: AggMin, Arg: expr.C("v"), Alias: "lo"}}

// memoRig runs one input through an Aggregate, and through a
// PartialAggregate whose rows a FinalMerge folds, and checks each table's
// memo after every batch and both results against a reference aggregate
// after every batch.
type memoRig struct {
	t        *testing.T
	groupBy  []string
	agg      *Aggregate
	pa       *PartialAggregate
	fm       *FinalMerge
	aggOut   *Materialize
	fmOut    *Materialize
	partials *Collector
	sent     []data.Tuple
}

func newMemoRig(t *testing.T, groupBy []string) *memoRig {
	out := must[*data.Schema](t)(AggOutSchema(memoSchema, groupBy, memoSpecs))
	partial := must[*data.Schema](t)(AggPartialSchema(memoSchema, groupBy, memoSpecs))
	r := &memoRig{t: t, groupBy: groupBy, aggOut: NewMaterialize(out), fmOut: NewMaterialize(out),
		partials: NewCollector(partial)}
	r.build()
	return r
}

// build gives the rig fresh operators in front of its consumers.
func (r *memoRig) build() {
	r.agg = must[*Aggregate](r.t)(NewAggregate(r.aggOut, memoSchema, r.groupBy, memoSpecs, nil))
	r.pa = must[*PartialAggregate](r.t)(NewPartialAggregate(r.partials, memoSchema, r.groupBy, memoSpecs))
	r.fm = must[*FinalMerge](r.t)(NewFinalMerge(r.fmOut, memoSchema, r.groupBy, memoSpecs, nil))
}

func (r *memoRig) push(batch []data.Tuple) {
	r.t.Helper()
	last := &batch[len(batch)-1]
	r.agg.PushBatch(batch)
	checkGroupMemo(r.t, "aggregate", &r.agg.table, last)
	r.pa.PushBatch(batch)
	checkGroupMemo(r.t, "partial", &r.pa.table, last)
	if rows := r.partials.Snapshot(); len(rows) > 0 {
		r.partials.Reset()
		r.fm.PushBatch(rows)
		checkGroupMemo(r.t, "final merge", &r.fm.table, &rows[len(rows)-1])
	}
	r.sent = append(r.sent, batch...)
	want := memoReference(r.agg.table.keyIdx, r.sent)
	sameKeyed(r.t, "aggregate", r.aggOut.MustSnapshot(nil, -1), want)
	sameKeyed(r.t, "final merge", r.fmOut.MustSnapshot(nil, -1), want)
}

// restore checkpoints the three operators, builds fresh ones and restores
// them from the bytes: a restored table remembers nothing.
func (r *memoRig) restore() {
	r.t.Helper()
	state := must[[]byte](r.t)(EncodeCheckpoint([]Checkpointer{r.agg, r.pa, r.fm}))
	r.build()
	if err := RestoreCheckpoint([]Checkpointer{r.agg, r.pa, r.fm}, state); err != nil {
		r.t.Fatal(err)
	}
	for name, gt := range map[string]*groupTable{"aggregate": &r.agg.table, "partial": &r.pa.table, "final merge": &r.fm.table} {
		checkGroupMemo(r.t, name, gt, nil)
	}
}

// memoReference aggregates all of ts anew, by canonical key, with the
// delta convention: a deletion of an absent group is ignored, and a group
// whose count reaches zero is gone.
func memoReference(keyIdx []int, ts []data.Tuple) []data.Tuple {
	type group struct {
		key   []data.Value
		n     int64
		sum   float64
		multi map[float64]int
	}
	groups := map[string]*group{}
	var order []string
	for _, tu := range ts {
		k := string(tu.AppendKey(nil, keyIdx))
		g := groups[k]
		if g == nil {
			if tu.Op == data.Delete {
				continue
			}
			g = &group{multi: map[float64]int{}}
			for _, i := range keyIdx {
				g.key = append(g.key, tu.Vals[i])
			}
			groups[k] = g
			order = append(order, k)
		}
		d := 1
		if tu.Op == data.Delete {
			d = -1
		}
		v := tu.Vals[2].AsFloat()
		g.n += int64(d)
		g.sum += float64(d) * v
		g.multi[v] += d
		if g.multi[v] == 0 {
			delete(g.multi, v)
		}
		if g.n == 0 {
			delete(groups, k)
		}
	}
	var rows []data.Tuple
	for _, k := range order {
		g := groups[k]
		if g == nil {
			continue
		}
		delete(groups, k) // a key listed twice (it died and came back) emits once
		lo := math.Inf(1)
		for v := range g.multi {
			lo = min(lo, v)
		}
		vals := append(slices.Clone(g.key), data.Int(g.n), data.Float(g.sum), data.Float(lo))
		rows = append(rows, data.Tuple{Vals: vals})
	}
	return rows
}

// sameKeyed fails unless got and want hold the same rows, compared by
// canonical key, so a NaN or a −0 in a key matches any NaN or a +0.
func sameKeyed(t testing.TB, name string, got, want []data.Tuple) {
	t.Helper()
	keys := func(ts []data.Tuple) []string {
		var ks []string
		for _, tu := range ts {
			ks = append(ks, tu.Key())
		}
		slices.Sort(ks)
		return ks
	}
	if g, w := keys(got), keys(want); !slices.Equal(g, w) {
		t.Fatalf("%s: rows %v, want %v", name, got, want)
	}
}

// mt is a row of memoSchema at ts.
func mt(ts int64, g data.Value, k data.Value, v float64) data.Tuple {
	return data.NewTuple(vtime.Time(ts), g, k, data.Float(v))
}

// TestGroupMemoFollowsLookups runs the memo through its edges in the three
// operators that share groupTable.lookup, under the default hash and with
// every key under one hash tag: after every batch each table remembers a
// live record whose key is the last tuple's, or nothing, and the results
// equal a reference aggregate recomputed over every tuple so far.
func TestGroupMemoFollowsLookups(t *testing.T) {
	a, b, z := data.Str("A"), data.Str("B"), data.Str("Z")
	one := data.Float(1)
	nan, nan2 := data.Float(math.NaN()), data.Float(math.Float64frombits(0x7ff8_0000_dead_beef))
	negZero := data.Float(math.Copysign(0, -1))
	cases := []struct {
		name    string
		groupBy []string
		batches [][]data.Tuple // a nil batch restores the operators from their checkpoint
		records int            // the aggregate's record count at the end (0: not checked)
	}{
		{name: "run empties mid-batch and restarts", groupBy: []string{"g", "k"}, batches: [][]data.Tuple{
			{mt(1, a, one, 1), mt(2, a, one, 2), mt(3, a, one, 1).Negate(), mt(4, a, one, 2).Negate(),
				mt(5, a, one, 3), mt(6, a, one, 4), mt(7, b, one, 5)},
			{mt(8, a, one, 6), mt(9, a, one, 3).Negate()},
		}, records: 2},
		{name: "retired record reused by another key in one batch", groupBy: []string{"g", "k"}, batches: [][]data.Tuple{
			{mt(1, a, one, 1)},
			{mt(2, a, one, 2), mt(3, a, one, 1).Negate(), mt(4, a, one, 2).Negate(),
				mt(5, b, one, 3), mt(6, b, one, 4), mt(7, a, one, 5)},
			{mt(8, b, one, 6), mt(9, a, one, 5).Negate(), mt(10, b, one, 7)},
		}, records: 2},
		{name: "delete of an unknown key after a run", groupBy: []string{"g", "k"}, batches: [][]data.Tuple{
			{mt(1, a, one, 1), mt(2, a, one, 2), mt(3, a, one, 3), mt(4, z, one, 9).Negate()},
			{mt(5, a, one, 4), mt(6, z, one, 9).Negate(), mt(7, a, one, 5)},
			{mt(8, z, one, 9).Negate()},
		}, records: 1},
		{name: "empty GROUP BY", batches: [][]data.Tuple{
			{mt(1, a, one, 1), mt(2, b, one, 2), mt(3, a, one, 1).Negate(), mt(4, b, one, 2).Negate(), mt(5, z, one, 3)},
			{mt(6, z, one, 4)},
			{mt(7, z, one, 3).Negate(), mt(8, z, one, 4).Negate()},
			{mt(9, a, one, 8).Negate(), mt(10, a, one, 8)},
		}, records: 1},
		{name: "NULL, NaN and -0 keys", groupBy: []string{"g", "k"}, batches: [][]data.Tuple{
			{mt(1, data.Null, data.Null, 1), mt(2, data.Null, data.Null, 2), mt(3, a, nan, 3), mt(4, a, nan2, 4),
				mt(5, a, negZero, 5), mt(6, a, data.Float(0), 6), mt(7, a, data.Int(0), 7)},
			{mt(8, data.Null, data.Null, 1).Negate(), mt(9, a, nan2, 3).Negate(), mt(10, a, nan, 8),
				mt(11, a, data.Float(0), 5).Negate(), mt(12, a, negZero, 6).Negate(), mt(13, a, negZero, 7).Negate()},
			{mt(14, a, data.Null, 9), mt(15, data.Null, nan, 10), mt(16, a, data.Null, 9).Negate()},
		}},
		{name: "restore between two batches of one run", groupBy: []string{"g", "k"}, batches: [][]data.Tuple{
			{mt(1, b, one, 9), mt(2, a, one, 1), mt(3, a, one, 2)},
			nil,
			{mt(4, a, one, 3), mt(5, a, one, 4), mt(6, a, one, 1).Negate()},
			nil,
			{mt(7, a, one, 2).Negate(), mt(8, a, one, 3).Negate(), mt(9, a, one, 4).Negate(), mt(10, a, one, 5)},
		}},
	}
	for _, hash := range []struct {
		name string
		mask uint64
	}{{"default hash", ^uint64(0)}, {"one hash tag", 0}} {
		for _, c := range cases {
			t.Run(hash.name+"/"+c.name, func(t *testing.T) {
				defer SetTestHashMask(SetTestHashMask(hash.mask))
				r := newMemoRig(t, c.groupBy)
				for _, batch := range c.batches {
					if batch == nil {
						r.restore()
						continue
					}
					r.push(batch)
				}
				if c.records > 0 && len(r.agg.table.groups) != c.records {
					t.Fatalf("aggregate holds %d records, want %d", len(r.agg.table.groups), c.records)
				}
			})
		}
	}
}

// A tuple of the remembered group is answered without the index: with the
// index's slots emptied between two tuples of one group whose values differ but
// are SQL-equal, the second still lands in the first's record. A check by
// value identity would miss, probe the empty index and open a second
// record.
func TestGroupMemoSkipsProbe(t *testing.T) {
	for _, c := range []struct {
		name        string
		first, then data.Value
	}{
		{"string", data.Str("L101"), data.Str("L1" + "01")},
		{"NaN payloads", data.Float(math.NaN()), data.Float(math.Float64frombits(0x7ff8_0000_dead_beef))},
		{"-0 and +0", data.Float(math.Copysign(0, -1)), data.Float(0)},
		{"INT and FLOAT", data.Int(3), data.Float(3)},
		{"NULL", data.Null, data.Value{I: 7}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newMemoRig(t, []string{"k"})
			r.agg.Push(mt(1, data.Str("x"), c.first, 1))
			x := &r.agg.table.index
			slots := x.slots
			x.slots = make([]keySlot, len(slots))
			r.agg.Push(mt(2, data.Str("x"), c.then, 2))
			x.slots = slots
			if n := len(r.agg.table.groups); n != 1 || r.agg.table.groups[0].count != 2 {
				t.Fatalf("%d records, the first counting %d; want 1 counting 2", n, r.agg.table.groups[0].count)
			}
		})
	}
}
