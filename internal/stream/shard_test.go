package stream

import (
	"fmt"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// Shards returns the partition width P.
func (s *ShardSet) Shards() int { return s.p }

// deployLocal deploys every shard of a hand-wired set in-process: build is
// the per-shard pipeline, handed to the set as its DeployFunc like any
// other home's builder.
func deployLocal(t testing.TB, set *ShardSet, sink Operator, build func(shard int) (map[string]Operator, []Advancer)) {
	t.Helper()
	err := set.Deploy(ShardConfig{Sink: sink, LocalDeploy: func(_ []byte, shard int, _ []byte, _ ResultSender) (map[string]Operator, []Advancer, []Checkpointer, error) {
		heads, advs := build(shard)
		return heads, advs, nil, nil
	}}, make([]string, set.Shards()), nil)
	if err != nil {
		t.Fatal(err)
	}
}

// driveShardWorkload pushes a deterministic insert/delete workload with
// interleaved clock ticks: batches of keyed tuples, a delete of a
// still-windowed tuple every few batches, and a mid-stream tick that
// expires the window's tail.
func driveShardWorkload(p *shardPipe, n int) {
	ts := vtime.Time(0)
	const batch = 32
	for i := 0; i < n; i += batch {
		var lb, rb []data.Tuple
		for k := 0; k < batch; k++ {
			ts += vtime.Time(50 * time.Millisecond)
			t := data.NewTuple(ts, data.Int(int64((i+k)%13)), data.Float(float64(i+k)))
			if k%2 == 0 {
				lb = append(lb, t)
			} else {
				rb = append(rb, t)
			}
		}
		// Retract one still-live tuple per batch, exercising deletes
		// through sharder, window, join and aggregate.
		lb = append(lb, lb[len(lb)-1].Clone().Negate())
		p.left.PushBatch(lb)
		p.right.PushBatch(rb)
		if i%(4*batch) == 0 {
			p.advance(ts)
		}
	}
	p.advance(ts + vtime.Time(time.Second))
}

func snapshotRows(t *testing.T, m *Materialize) []data.Tuple {
	t.Helper()
	rows, err := m.Snapshot(nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	sortByKey(rows)
	return rows
}

func requireSameRows(t *testing.T, want, got []data.Tuple, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: serial has %d rows, sharded %d\nserial: %v\nsharded: %v",
			label, len(want), len(got), want, got)
	}
	for i := range want {
		if !want[i].EqualVals(got[i]) {
			t.Fatalf("%s: row %d differs: serial %v vs sharded %v", label, i, want[i], got[i])
		}
	}
}

// TestShardedJoinAggEquivalence verifies that the partition-parallel
// pipeline produces exactly the serial result for a windowed join +
// aggregation under inserts, deletes and clock-driven expiry, across
// several shard counts (including non-power-of-two).
func TestShardedJoinAggEquivalence(t *testing.T) {
	const win = 2 * time.Second
	serial := buildJoinAgg(t, win, 0, false)
	driveShardWorkload(serial, 1024)
	want := snapshotRows(t, serial.mat)
	if len(want) == 0 {
		t.Fatal("serial reference produced no rows; workload is vacuous")
	}
	for _, p := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			sharded := buildJoinAgg(t, win, p, false)
			driveShardWorkload(sharded, 1024)
			sharded.flush()
			got := snapshotRows(t, sharded.mat)
			sharded.close()
			requireSameRows(t, want, got, fmt.Sprintf("P=%d", p))
		})
	}
}

// TestShardedEquivalenceUnderForcedCollisions re-runs the equivalence
// check with every operator hash forced into one bucket, so the replicas'
// collision-verification paths carry the load. (Routing uses the full
// hash, so tuples still spread across shards.)
func TestShardedEquivalenceUnderForcedCollisions(t *testing.T) {
	forceHashCollisions(t)
	const win = 2 * time.Second
	serial := buildJoinAgg(t, win, 0, false)
	driveShardWorkload(serial, 256)
	want := snapshotRows(t, serial.mat)
	sharded := buildJoinAgg(t, win, 3, false)
	driveShardWorkload(sharded, 256)
	sharded.flush()
	got := snapshotRows(t, sharded.mat)
	sharded.close()
	requireSameRows(t, want, got, "collisions")
}

// TestShardedDistinctEquivalence checks set semantics across shards:
// multiplicity counting must agree with the serial Distinct for both
// polarities when tuples partition on the full row.
func TestShardedDistinctEquivalence(t *testing.T) {
	schema := data.NewSchema("s", data.Col("room", data.TString), data.Col("n", data.TInt))
	workload := func(push func(data.Tuple)) {
		for i := 0; i < 300; i++ {
			t := data.NewTuple(vtime.Time(i+1), data.Str(fmt.Sprintf("L%d", i%7)), data.Int(int64(i%5)))
			push(t)
			if i%3 == 0 {
				push(t.Clone().Negate()) // 1→0 for fresh values, n→n-1 otherwise
			}
		}
	}

	serialMat := NewMaterialize(schema)
	serialD := NewDistinct(serialMat)
	workload(serialD.Push)
	want := snapshotRows(t, serialMat)

	const p = 3
	mat := NewMaterialize(schema)
	merge := NewMerge(mat)
	set := NewShardSet(p)
	sh, err := NewSharder(set, "s0", schema, nil) // nil = partition on all columns
	if err != nil {
		t.Fatal(err)
	}
	deployLocal(t, set, merge, func(int) (map[string]Operator, []Advancer) {
		return map[string]Operator{"s0": NewDistinct(merge)}, nil
	})
	workload(sh.Push)
	set.Flush()
	got := snapshotRows(t, mat)
	set.Close()
	requireSameRows(t, want, got, "distinct")
}

// TestSharderRoutesKeysConsistently feeds many keys through a Sharder over
// plain collectors and checks every key lands in exactly one shard, with
// per-shard arrival order preserved.
func TestSharderRoutesKeysConsistently(t *testing.T) {
	schema := data.NewSchema("s", data.Col("k", data.TInt), data.Col("seq", data.TInt))
	const p = 4
	set := NewShardSet(p)
	cols := make([]*Collector, p)
	sh, err := NewSharder(set, "s0", schema, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	deployLocal(t, set, nil, func(s int) (map[string]Operator, []Advancer) {
		cols[s] = NewCollector(schema)
		return map[string]Operator{"s0": cols[s]}, nil
	})
	var batch []data.Tuple
	for i := 0; i < 1000; i++ {
		batch = append(batch, data.NewTuple(vtime.Time(i+1), data.Int(int64(i%37)), data.Int(int64(i))))
	}
	sh.PushBatch(batch)
	set.Flush()
	set.Close()

	shardOf := map[int64]int{}
	total := 0
	for s, c := range cols {
		lastSeq := map[int64]int64{}
		for _, tu := range c.Snapshot() {
			k, seq := tu.Vals[0].I, tu.Vals[1].I
			if prev, ok := shardOf[k]; ok && prev != s {
				t.Fatalf("key %d appeared in shards %d and %d", k, prev, s)
			}
			shardOf[k] = s
			if last, ok := lastSeq[k]; ok && seq < last {
				t.Fatalf("shard %d: key %d out of order (%d after %d)", s, k, seq, last)
			}
			lastSeq[k] = seq
			total++
		}
	}
	if total != 1000 {
		t.Fatalf("routed %d of 1000 tuples", total)
	}
	if len(shardOf) != 37 {
		t.Fatalf("saw %d distinct keys, want 37", len(shardOf))
	}
}

// TestShardSetAdvanceExpiresWindows drives tuples into per-shard time
// windows, then ticks the set past the range: every shard must emit its
// expirations, draining the merged result to empty.
func TestShardSetAdvanceExpiresWindows(t *testing.T) {
	schema := data.NewSchema("s", data.Col("k", data.TInt), data.Col("v", data.TFloat))
	const p = 3
	mat := NewMaterialize(schema)
	merge := NewMerge(mat)
	set := NewShardSet(p)
	sh, err := NewSharder(set, "s0", schema, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	deployLocal(t, set, merge, func(int) (map[string]Operator, []Advancer) {
		w := NewTimeWindow(merge, time.Second, 0)
		return map[string]Operator{"s0": w}, []Advancer{w}
	})
	var batch []data.Tuple
	for i := 0; i < 60; i++ {
		batch = append(batch, data.NewTuple(vtime.Time(i+1), data.Int(int64(i)), data.Float(float64(i))))
	}
	sh.PushBatch(batch)
	set.Flush()
	if got := mat.Len(); got != 60 {
		t.Fatalf("before expiry: %d rows, want 60", got)
	}
	set.Advance(vtime.Time(10 * time.Second))
	set.Flush()
	if got := mat.Len(); got != 0 {
		t.Fatalf("after expiry tick: %d rows remain, want 0", got)
	}
	set.Close()
}

// TestShardSetCloseWithLiveProducers closes a set whose Sharder is still
// wired to producers and whose Advance keeps ticking (the engine has no
// unsubscribe/untrack): post-close pushes and ticks must be dropped, not
// panic, and the sink must keep its last state.
func TestShardSetCloseWithLiveProducers(t *testing.T) {
	schema := data.NewSchema("s", data.Col("k", data.TInt))
	col := NewCollector(schema)
	merge := NewMerge(col)
	const p = 2
	set := NewShardSet(p)
	sh, err := NewSharder(set, "s0", schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	deployLocal(t, set, merge, func(int) (map[string]Operator, []Advancer) {
		w := NewTimeWindow(merge, time.Second, 0)
		return map[string]Operator{"s0": w}, []Advancer{w}
	})
	sh.Push(data.NewTuple(1, data.Int(1)))
	set.Flush()
	if col.Len() != 1 {
		t.Fatalf("pre-close tuples = %d", col.Len())
	}
	set.Close()
	set.Close() // idempotent

	// The engine would keep doing all of this after a Query.Stop:
	sh.Push(data.NewTuple(2, data.Int(2)))
	sh.PushBatch([]data.Tuple{data.NewTuple(3, data.Int(3))})
	set.Advance(vtime.Time(time.Minute))
	set.Flush()
	if col.Len() != 1 {
		t.Fatalf("post-close activity reached the sink: %d tuples", col.Len())
	}
}

// TestMergeFunnelsConcurrentBatches hammers one Merge from the shard
// workers of a wide set; under -race this doubles as the proof that
// replica pipelines are single-writer and the funnel fully guards the
// shared sink.
func TestMergeFunnelsConcurrentBatches(t *testing.T) {
	schema := data.NewSchema("s", data.Col("k", data.TInt))
	col := NewCollector(schema)
	merge := NewMerge(col)
	const p = 8
	set := NewShardSet(p)
	sh, err := NewSharder(set, "s0", schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	deployLocal(t, set, merge, func(int) (map[string]Operator, []Advancer) {
		return map[string]Operator{"s0": merge}, nil
	})
	const n = 5000
	var batch []data.Tuple
	for i := 0; i < n; i++ {
		batch = append(batch, data.NewTuple(vtime.Time(i+1), data.Int(int64(i))))
		if len(batch) == 100 {
			sh.PushBatch(batch)
			batch = batch[:0]
		}
	}
	set.Flush()
	set.Close()
	if got := col.Len(); got != n {
		t.Fatalf("merged %d of %d tuples", got, n)
	}
}
