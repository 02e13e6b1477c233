package stream

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// batchRecorder is a replica head that records the size of every batch it
// is handed, so a test sees how the exchange cut what was pushed.
type batchRecorder struct {
	mu    sync.Mutex
	sizes []int
}

func (r *batchRecorder) Schema() *data.Schema { return keySchema() }

func (r *batchRecorder) Push(t data.Tuple) { r.PushBatch([]data.Tuple{t}) }

func (r *batchRecorder) PushBatch(ts []data.Tuple) {
	r.mu.Lock()
	r.sizes = append(r.sizes, len(ts))
	r.mu.Unlock()
}

// count reports how many batches were recorded since the last take.
func (r *batchRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sizes)
}

// take returns and clears the recorded batch sizes.
func (r *batchRecorder) take() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sizes
	r.sizes = nil
	return s
}

func keySchema() *data.Schema {
	s := data.NewSchema("in", data.Col("k", data.TInt))
	s.IsStream = true
	return s
}

// pending reports how many tuples the Sharder holds, per shard.
func (sh *Sharder) pending() []int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := make([]int, len(sh.pend))
	for j, b := range sh.pend {
		n[j] = len(b)
	}
	return n
}

// TestSharderShipPoints pins when a Sharder's pending batch ships. A shard
// whose replica runs in process takes one batch at the end of every
// PushBatch call, so its worker goroutine starts on it beside the producer.
// A worker-hosted shard's batch outlives the call: it ships when it reaches
// ShardBatchCap, and at the set's tick (Advance), barrier (Flush),
// checkpoint (CheckpointAll), rescale and Close. Between two of those,
// however many calls pushed, the worker-hosted shard receives its tuples as
// one batch. Shard 0 starts in process and shard 1 on a worker; a rescale
// swaps them.
func TestSharderShipPoints(t *testing.T) {
	set := NewShardSet(2)
	sh := must[*Sharder](t)(NewSharder(set, "in", keySchema(), []int{0}))
	recs := []*batchRecorder{{}, {}}
	deploy := func(_ []byte, shard int, _ []byte, _ ResultSender) (map[string]Operator, []Advancer, []Checkpointer, error) {
		return map[string]Operator{"in": recs[shard]}, nil, nil, nil
	}
	w, err := NewShardWorker("127.0.0.1:0", deploy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	if err := set.Deploy(ShardConfig{Sink: NewCollector(keySchema()), LocalDeploy: deploy}, []string{"", w.Addr()}, nil); err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	// Keys 0..7 in every call: both shards get tuples from each call.
	key := 0
	push := func(calls, size int) {
		for range calls {
			b := make([]data.Tuple, size)
			for i := range b {
				b[i] = data.NewTuple(vtime.Time(key+1), data.Int(int64(key%8)))
				key++
			}
			sh.PushBatch(b)
		}
	}
	// held checks what the exchange holds for each shard.
	held := func(label string, want ...int) {
		t.Helper()
		if p := sh.pending(); !slices.Equal(p, want) {
			t.Fatalf("%s: the exchange holds %v tuples per shard, want %v", label, p, want)
		}
	}
	// shipped checks that shard j received n batches since the last check,
	// and returns how many tuples they held.
	shipped := func(label string, j, n int) int {
		t.Helper()
		set.mu.RLock()
		home := set.homes[j]
		set.mu.RUnlock()
		if h, ok := home.(*localHome); ok {
			// Wait for the shard's queue to run what it was sent, without
			// shipping what the exchange holds (Flush would).
			h.ex.do(nil)
		}
		got := recs[j].take()
		if len(got) != n {
			t.Fatalf("%s: shard %d received batches %v, want %d", label, j, got, n)
		}
		sum := 0
		for _, k := range got {
			sum += k
		}
		return sum
	}

	push(3, 16)
	local := shipped("three calls", 0, 3)
	held("three calls", 0, 48-local)
	set.Advance(vtime.Time(1))
	held("after the tick", 0, 0)
	set.Flush()
	if n := shipped("tick", 1, 1); n != 48-local {
		t.Fatalf("tick: shard 1 received %d tuples, want %d", n, 48-local)
	}

	push(4, 8)
	local = shipped("four calls", 0, 4)
	held("four calls", 0, 32-local)
	set.Flush()
	shipped("flush", 1, 1)

	push(2, 8)
	local = shipped("two calls", 0, 2)
	if _, err := set.CheckpointAll(nil); err != nil {
		t.Fatal(err)
	}
	held("after a checkpoint", 0, 0)
	if n := shipped("checkpoint", 1, 1); n != 16-local { // CheckpointAll barriers the worker itself
		t.Fatalf("checkpoint: shard 1 received %d tuples, want %d", n, 16-local)
	}

	// One key on shard 1: the ShardBatchCap-th tuple fills the batch, which
	// ships without waiting for a tick.
	var k1 int64
	for set.p > 1 && sh.hasher.Route(data.NewTuple(0, data.Int(k1)), sh.keyIdx)%2 != 1 {
		k1++
	}
	one := func(n int) {
		b := make([]data.Tuple, n)
		for i := range b {
			b[i] = data.NewTuple(vtime.Time(i+1), data.Int(k1))
		}
		sh.PushBatch(b)
	}
	for range ShardBatchCap / 64 {
		one(64)
	}
	held("a full batch", 0, 0)
	// The full batch is written at once: the worker has it before any
	// tick or barrier.
	for deadline := time.Now().Add(10 * time.Second); recs[1].count() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a full batch did not reach its worker without a tick or flush")
		}
	}
	one(5)
	held("five past a full batch", 0, 5)
	set.Flush()
	if got := recs[1].take(); !slices.Equal(got, []int{ShardBatchCap, 5}) {
		t.Fatalf("one key, %d+5 tuples: batches %v, want [%d 5]", ShardBatchCap, got, ShardBatchCap)
	}

	// A rescale drains the exchange to the shards' old homes before it
	// checkpoints and moves them; then shard 0 takes its batches by wire,
	// and shard 1 one per call.
	push(2, 8)
	local = shipped("before the rescale", 0, 2)
	if err := set.Rescale([]string{w.Addr(), ""}); err != nil {
		t.Fatal(err)
	}
	held("after a rescale", 0, 0)
	if n := shipped("rescale", 1, 1); n != 16-local {
		t.Fatalf("rescale: shard 1 received %d tuples, want %d", n, 16-local)
	}
	push(3, 8)
	local = shipped("three calls after the move", 1, 3)
	held("three calls after the move", 24-local, 0)
	set.Flush()
	shipped("flush after the move", 0, 1)

	push(2, 8)
	local = shipped("before close", 1, 2)
	held("before close", 16-local, 0)
	set.Close()
	if n := shipped("close", 0, 1); n != 16-local {
		t.Fatalf("close: shard 0 received %d tuples, want %d", n, 16-local)
	}
}

// orderSchema is the rows of orderReplica's results: the shard, then a
// pushed key, or minus the instant of a tick.
func orderSchema() *data.Schema {
	return data.NewSchema("order", data.Col("shard", data.TInt), data.Col("v", data.TInt))
}

// orderReplica is a replica that reports every call it runs, in its own
// order: each pushed tuple comes back as (shard, k) and is kept in a
// Materialize, its checkpointed state; each tick comes back as (shard,
// -now).
type orderReplica struct {
	shard int
	send  ResultSender
	kept  *Materialize
}

func (r *orderReplica) Schema() *data.Schema { return keySchema() }

func (r *orderReplica) Push(t data.Tuple) { r.PushBatch([]data.Tuple{t}) }

func (r *orderReplica) PushBatch(ts []data.Tuple) {
	r.kept.PushBatch(ts)
	out := make([]data.Tuple, len(ts))
	for i, t := range ts {
		out[i] = data.NewTuple(t.TS, data.Int(int64(r.shard)), t.Vals[0])
	}
	_ = r.send(out)
}

func (r *orderReplica) Advance(now vtime.Time) {
	_ = r.send([]data.Tuple{data.NewTuple(now, data.Int(int64(r.shard)), data.Int(-int64(now)))})
}

func orderDeploy(_ []byte, shard int, _ []byte, send ResultSender) (map[string]Operator, []Advancer, []Checkpointer, error) {
	r := &orderReplica{shard: shard, send: send, kept: NewMaterialize(keySchema())}
	return map[string]Operator{"in": r}, []Advancer{r}, []Checkpointer{r.kept}, nil
}

// TestWorkerReplicasRunFramesInOrder pins what a worker guarantees about
// the replicas it hosts, each on its own goroutine: 8 shards on one stream,
// deployed in random order, take data frames and ticks in random
// interleavings. The order in which different replicas' results arrive is
// theirs to race for, so the test reads each shard's results on their own:
//
//   - each replica runs the frames it was sent in the order they were sent,
//     so it is ticked once per tick frame, in tick order;
//   - every result of the frames before a Flush or a checkpoint has arrived
//     by the time it returns;
//   - a checkpoint's states hold every tuple sent before it.
func TestWorkerReplicasRunFramesInOrder(t *testing.T) {
	w, err := NewShardWorker("127.0.0.1:0", orderDeploy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	col := NewCollector(orderSchema())
	c, err := dialShard(w.Addr(), col, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const shards = 8
	rng := rand.New(rand.NewSource(1))
	order := rng.Perm(shards)
	for _, j := range order {
		if err := c.Deploy(nil, j, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Undeploy and redeploy one shard: it starts over, empty.
	if err := c.Undeploy(order[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.Deploy(nil, order[0], nil); err != nil {
		t.Fatal(err)
	}

	want := make([][]int64, shards) // each shard's results, in its order
	kept := make([]int, shards)     // tuples each replica has been sent
	key, now := int64(0), vtime.Time(0)
	send := func() {
		for range 40 {
			if rng.Intn(4) == 0 {
				now++
				if err := c.Tick(now); err != nil {
					t.Fatal(err)
				}
				for j := range want {
					want[j] = append(want[j], -int64(now))
				}
				continue
			}
			j := rng.Intn(shards)
			b := make([]data.Tuple, 1+rng.Intn(8))
			for i := range b {
				key++
				b[i] = data.NewTuple(now, data.Int(key))
				want[j] = append(want[j], key)
			}
			kept[j] += len(b)
			if err := c.sendFrame(j, "in", b, false, 0, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	// arrived checks, as soon as a barrier returns, that every shard's
	// results so far arrived, whole and in the order it was sent its frames.
	arrived := func(label string) {
		t.Helper()
		got := make([][]int64, shards)
		for _, r := range col.Snapshot() {
			j := r.Vals[0].I
			got[j] = append(got[j], r.Vals[1].I)
		}
		for j := range want {
			if !slices.Equal(got[j], want[j]) {
				t.Fatalf("%s: shard %d returned %v, want %v", label, j, got[j], want[j])
			}
		}
	}
	for round := range 20 {
		send()
		if round%2 == 0 {
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			arrived(fmt.Sprintf("flush %d", round))
			continue
		}
		states, err := c.checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		arrived(fmt.Sprintf("checkpoint %d", round))
		if len(states) != shards {
			t.Fatalf("checkpoint %d: states of %d shards, want %d", round, len(states), shards)
		}
		for j, st := range states {
			m := NewMaterialize(keySchema())
			if err := RestoreCheckpoint([]Checkpointer{m}, st); err != nil {
				t.Fatal(err)
			}
			if m.Len() != kept[j] {
				t.Fatalf("checkpoint %d: shard %d's state holds %d tuples, it was sent %d", round, j, m.Len(), kept[j])
			}
		}
	}
}
