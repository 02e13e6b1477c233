package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"sort"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// This file is the state side of shard failover: every stateful operator of
// a shard replica can snapshot its state into a gob-friendly OpState and
// rebuild itself from one. A worker answers checkpoint barriers with the
// encoded states of every replica it hosts; the coordinator keeps the last
// committed checkpoint per shard and, after a worker loss, redeploys the
// replica spec together with that checkpoint onto a surviving host (see
// remote.go / shard.go for the protocol and the failover state machine).
//
// Snapshots capture exactly what the operators rebuild: window rings, join
// rows, distinct multiplicities, and grouped aggregation states
// including each group's last emitted row — so a restored replica's next
// retract-then-insert pair matches the row the coordinator's sink currently
// holds. Hash keys are never shipped: restore re-hashes through data.Hasher,
// whose canonical encoding is a pure function of the values, so checkpoints
// are portable across processes.

// Checkpointer is implemented by stateful operators that participate in
// shard failover. CheckpointState must be called only from the operator's
// single writer (the worker's frame loop, a shard worker goroutine);
// RestoreState must be called before the operator processes any tuple.
type Checkpointer interface {
	CheckpointState() OpState
	RestoreState(OpState) error
}

// Operator kinds inside an OpState.
const (
	ckWindow uint8 = iota + 1
	ckJoin
	ckDistinct
	ckAggregate
	ckPartialAgg
	ckFinalMerge
	ckMaterialize
	ckOpaque
)

// OpState is the serializable snapshot of one stateful operator. Kind
// discriminates; exactly one payload pointer is set.
type OpState struct {
	Kind     uint8
	Window   *WindowState
	Join     *JoinState
	Distinct *DistinctState
	Groups   *GroupsState
	Rows     *RowsState
	// Opaque carries state the stream layer does not interpret — higher
	// layers (plan-level sensor fragment runners) ride the shard
	// checkpoint machinery with their own encoding.
	Opaque []byte
}

// NewOpaqueState wraps an externally encoded payload as an OpState, letting
// non-stream Checkpointers (sensor fragment runners) participate in shard
// checkpoints.
func NewOpaqueState(b []byte) OpState { return OpState{Kind: ckOpaque, Opaque: b} }

// OpaqueData unwraps a NewOpaqueState payload.
func (s OpState) OpaqueData() ([]byte, error) {
	if s.Kind != ckOpaque {
		return nil, ckKindErr(ckOpaque, s)
	}
	return s.Opaque, nil
}

// WindowState snapshots a Window: the live tuples in arrival order and the
// slide-boundary watermark.
type WindowState struct {
	Buf     []data.Tuple
	LastAdv vtime.Time
}

// JoinState snapshots a symmetric hash join: the rows each side holds (the
// key records rebuild by re-hashing).
type JoinState struct {
	L, R []data.Tuple
}

// DistinctState snapshots multiplicity counting: one representative tuple
// and its count per distinct value.
type DistinctState struct {
	Tuples []data.Tuple
	Counts []int64
}

// GroupsState snapshots a grouped aggregation table (one-phase Aggregate or
// per-shard PartialAggregate alike).
type GroupsState struct {
	Groups []GroupState
}

// GroupState is one group's running state.
type GroupState struct {
	KeyVals []data.Value
	Count   int64
	Aggs    []AggState
	// LastOut is the group's previously emitted row; HasOut distinguishes
	// "no row emitted yet" from an emitted empty row after gob's nil/empty
	// slice folding.
	LastOut []data.Value
	HasOut  bool
}

// AggState is one aggregate column's running state.
type AggState struct {
	N    int64
	Sum  float64
	Vals map[float64]int64
}

// RowsState snapshots a materialized result multiset: one representative
// tuple and its multiplicity per distinct row.
type RowsState struct {
	Tuples []data.Tuple
	Counts []int64
}

func ckKindErr(want uint8, got OpState) error {
	return fmt.Errorf("stream: checkpoint kind mismatch: restoring kind %d from kind %d", want, got.Kind)
}

// CheckpointState implements Checkpointer.
func (w *Window) CheckpointState() OpState {
	live := make([]data.Tuple, w.Len())
	copy(live, w.buf[w.head:])
	return OpState{Kind: ckWindow, Window: &WindowState{Buf: live, LastAdv: w.lastAdv}}
}

// RestoreState implements Checkpointer.
func (w *Window) RestoreState(s OpState) error {
	if s.Kind != ckWindow || s.Window == nil {
		return ckKindErr(ckWindow, s)
	}
	w.buf = append(w.buf[:0], s.Window.Buf...)
	w.head = 0
	w.lastAdv = s.Window.LastAdv
	return nil
}

// CheckpointState implements Checkpointer: each side's rows, key by key in
// record order and in arrival order within a key.
func (j *Join) CheckpointState() OpState {
	var n [2]int
	for _, r := range j.recs {
		n[0] += len(r.rows[0])
		n[1] += len(r.rows[1])
	}
	st := &JoinState{L: make([]data.Tuple, 0, n[0]), R: make([]data.Tuple, 0, n[1])}
	for _, r := range j.recs {
		st.L = append(st.L, r.rows[0]...)
		st.R = append(st.R, r.rows[1]...)
	}
	return OpState{Kind: ckJoin, Join: st}
}

// RestoreState implements Checkpointer: the rows go in as insertions, through
// the path PushBatch takes. A row of the wrong arity or with a value of no
// known type is an error and leaves the join as it was.
func (j *Join) RestoreState(s OpState) error {
	if s.Kind != ckJoin || s.Join == nil {
		return ckKindErr(ckJoin, s)
	}
	sides := [2][]data.Tuple{s.Join.L, s.Join.R}
	for side, rows := range sides {
		w := j.in[side].Arity()
		for _, t := range rows {
			if len(t.Vals) != w || slices.ContainsFunc(t.Vals, unknownType) {
				return fmt.Errorf("stream: join checkpoint: row %v: want %d columns of known types", t, w)
			}
		}
	}
	j.index, j.recs, j.free = newKeyIndex(), nil, nil
	for side, rows := range sides {
		for _, t := range rows {
			j.update(data.Tuple{Vals: t.Vals, TS: t.TS}, side)
		}
	}
	return nil
}

// unknownType reports a value of no known type, which checkpoints may not
// carry.
func unknownType(v data.Value) bool { return v.T > data.TTime }

// CheckpointState implements Checkpointer.
func (d *Distinct) CheckpointState() OpState {
	rows, counts := d.rows.state()
	return OpState{Kind: ckDistinct, Distinct: &DistinctState{Tuples: rows, Counts: counts}}
}

// RestoreState implements Checkpointer.
func (d *Distinct) RestoreState(s OpState) error {
	if s.Kind != ckDistinct || s.Distinct == nil {
		return ckKindErr(ckDistinct, s)
	}
	if err := d.rows.restore(s.Distinct.Tuples, s.Distinct.Counts); err != nil {
		return fmt.Errorf("stream: distinct checkpoint: %w", err)
	}
	return nil
}

// checkpoint snapshots every live group of a groupTable. The state aliases
// each group's keyVals and lastOut rather than copying them. That is safe
// only because EncodeCheckpoint encodes the state on the operator's
// goroutine before the next push: a retired group's keyVals is reused by the
// next new group, and once retracted, a lastOut may become the group's spare
// and be overwritten (groupTable.reuse). Only MIN and MAX carry a value
// multiset; the other kinds' Vals are nil.
func (gt *groupTable) checkpoint() *GroupsState {
	st := &GroupsState{Groups: make([]GroupState, 0, gt.len())}
	for i := range gt.groups {
		g := &gt.groups[i]
		if g.count <= 0 {
			continue // retired
		}
		gc := GroupState{
			KeyVals: g.keyVals, Count: g.count,
			LastOut: g.lastOut, HasOut: g.lastOut != nil,
			Aggs: make([]AggState, len(g.aggs)),
		}
		for i := range g.aggs {
			gc.Aggs[i] = AggState{N: g.aggs[i].n, Sum: g.aggs[i].sum, Vals: g.aggs[i].vals}
		}
		st.Groups = append(st.Groups, gc)
	}
	return st
}

// restore rebuilds the group table from a snapshot whose output rows are
// width wide, placing each group through the path lookup takes. The group
// hash of the stored key values equals the hash lookup computes from an
// input tuple's grouping columns: both fold the same value sequence through
// the canonical encoding. A group with a key of the wrong arity or of
// unknown types, a count below one, the wrong number of aggregates, a value
// multiset count below one or a last row of the wrong width, or a key listed
// twice, is an error and leaves the table as it was. A value multiset is
// kept for MIN and MAX only; any other aggregate's is ignored.
func (gt *groupTable) restore(st *GroupsState, width int) error {
	fresh := groupTable{keyIdx: gt.keyIdx, kvIdx: gt.kvIdx, ext: gt.ext, index: newKeyIndex(), reuse: gt.reuse}
	for _, gc := range st.Groups {
		switch {
		case len(gc.KeyVals) != len(gt.keyIdx) || slices.ContainsFunc(gc.KeyVals, unknownType):
			return fmt.Errorf("stream: group checkpoint key %v: want %d values of known types", gc.KeyVals, len(gt.keyIdx))
		case gc.Count < 1:
			return fmt.Errorf("stream: group checkpoint %v counts %d tuples", gc.KeyVals, gc.Count)
		case len(gc.Aggs) != len(gt.ext):
			return fmt.Errorf("stream: group checkpoint carries %d aggregates, operator has %d", len(gc.Aggs), len(gt.ext))
		case gc.HasOut && len(gc.LastOut) != width:
			return fmt.Errorf("stream: group checkpoint %v: last row %v is not %d wide", gc.KeyVals, gc.LastOut, width)
		}
		_, g := fresh.place(data.Tuple{Vals: gc.KeyVals}, fresh.kvIdx, true)
		if g.count != 0 {
			return fmt.Errorf("stream: group checkpoint lists key %v twice", gc.KeyVals)
		}
		g.count = gc.Count
		if gc.HasOut {
			// A copy: the group may later build rows in its retracted
			// lastOut, and it writes only into rows it built itself.
			g.lastOut = slices.Clone(gc.LastOut)
		}
		for i, a := range gc.Aggs {
			ag := &g.aggs[i]
			ag.n, ag.sum = a.N, a.Sum
			if ag.vals == nil {
				continue
			}
			for f, c := range a.Vals {
				if c < 1 {
					return fmt.Errorf("stream: group checkpoint %v holds %v ×%d", gc.KeyVals, f, c)
				}
				ag.vals[f] = c
			}
		}
	}
	*gt = fresh
	return nil
}

// CheckpointState implements Checkpointer.
func (a *Aggregate) CheckpointState() OpState {
	return OpState{Kind: ckAggregate, Groups: a.table.checkpoint()}
}

// RestoreState implements Checkpointer.
func (a *Aggregate) RestoreState(s OpState) error {
	if s.Kind != ckAggregate || s.Groups == nil {
		return ckKindErr(ckAggregate, s)
	}
	return a.table.restore(s.Groups, a.out.Arity())
}

// CheckpointState implements Checkpointer.
func (a *PartialAggregate) CheckpointState() OpState {
	return OpState{Kind: ckPartialAgg, Groups: a.table.checkpoint()}
}

// RestoreState implements Checkpointer.
func (a *PartialAggregate) RestoreState(s OpState) error {
	if s.Kind != ckPartialAgg || s.Groups == nil {
		return ckKindErr(ckPartialAgg, s)
	}
	return a.table.restore(s.Groups, a.out.Arity())
}

// CheckpointState implements Checkpointer. FinalMerge lives on the
// coordinator's serial spine; its state rides in coordinator snapshots,
// not worker checkpoints.
func (f *FinalMerge) CheckpointState() OpState {
	return OpState{Kind: ckFinalMerge, Groups: f.table.checkpoint()}
}

// RestoreState implements Checkpointer.
func (f *FinalMerge) RestoreState(s OpState) error {
	if s.Kind != ckFinalMerge || s.Groups == nil {
		return ckKindErr(ckFinalMerge, s)
	}
	return f.table.restore(s.Groups, f.out.Arity())
}

// CheckpointState implements Checkpointer: the result multiset with
// per-row multiplicities, taken under the mutex (Materialize is the one
// shared sink, so unlike the single-writer operators it locks itself). A
// live view checkpoints its store's rows.
func (m *Materialize) CheckpointState() OpState {
	src := m.lock()
	defer m.unlock(src)
	rows, counts := src.rows.state()
	return OpState{Kind: ckMaterialize, Rows: &RowsState{Tuples: rows, Counts: counts}}
}

// RestoreState implements Checkpointer. A live view restores its store.
func (m *Materialize) RestoreState(s OpState) error {
	if s.Kind != ckMaterialize || s.Rows == nil {
		return ckKindErr(ckMaterialize, s)
	}
	src := m.lock()
	defer m.unlock(src)
	if err := src.rows.restore(s.Rows.Tuples, s.Rows.Counts); err != nil {
		return fmt.Errorf("stream: materialize checkpoint: %w", err)
	}
	src.version++
	return nil
}

// EncodeCheckpoint snapshots a replica's stateful operators (in their
// deterministic collection order) into one gob payload.
func EncodeCheckpoint(cks []Checkpointer) ([]byte, error) {
	states := make([]OpState, len(cks))
	for i, c := range cks {
		states[i] = c.CheckpointState()
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(states); err != nil {
		return nil, fmt.Errorf("stream: encode checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreCheckpoint rebuilds a freshly compiled replica's operators from an
// EncodeCheckpoint payload; the operator collection order must match the
// encoding side (both walk the identical decoded plan). A nil/empty payload
// is the empty checkpoint: the replica starts fresh.
func RestoreCheckpoint(cks []Checkpointer, state []byte) error {
	if len(state) == 0 {
		return nil
	}
	var states []OpState
	if err := gob.NewDecoder(bytes.NewReader(state)).Decode(&states); err != nil {
		return fmt.Errorf("stream: decode checkpoint: %w", err)
	}
	if len(states) != len(cks) {
		return fmt.Errorf("stream: checkpoint carries %d operator states, replica has %d",
			len(states), len(cks))
	}
	for i := range cks {
		if err := cks[i].RestoreState(states[i]); err != nil {
			return err
		}
	}
	return nil
}

// TrimOpaqueTail drops the last n operator states from an EncodeCheckpoint
// payload, verifying they are all opaque (plan-level fragment runner)
// states. The coordinator uses it when a snapshotted deployment's remote
// fragments cannot be rebuilt at restore time (host missing): the stream
// operator prefix of the checkpoint still restores exactly, while the
// fragment runners restart centrally from their own anchors.
func TrimOpaqueTail(state []byte, n int) ([]byte, error) {
	if n == 0 {
		return state, nil
	}
	if len(state) == 0 {
		return nil, nil
	}
	var states []OpState
	if err := gob.NewDecoder(bytes.NewReader(state)).Decode(&states); err != nil {
		return nil, fmt.Errorf("stream: decode checkpoint: %w", err)
	}
	if len(states) < n {
		return nil, fmt.Errorf("stream: checkpoint carries %d operator states, cannot trim %d", len(states), n)
	}
	for _, s := range states[len(states)-n:] {
		if s.Kind != ckOpaque {
			return nil, fmt.Errorf("stream: checkpoint tail is kind %d, not opaque", s.Kind)
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(states[:len(states)-n]); err != nil {
		return nil, fmt.Errorf("stream: encode checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// ShardCheckpoint pairs one hosted shard with its encoded operator states —
// the unit a worker's checkpoint reply carries, one entry per replica on the
// connection.
type ShardCheckpoint struct {
	Shard int
	State []byte
}

// encodeWorkerCheckpoint snapshots every replica hosted on one worker
// connection (sorted by shard for determinism).
func encodeWorkerCheckpoint(cks map[int][]Checkpointer) ([]byte, error) {
	shards := make([]int, 0, len(cks))
	for j := range cks {
		shards = append(shards, j)
	}
	sort.Ints(shards)
	payload := make([]ShardCheckpoint, 0, len(shards))
	for _, j := range shards {
		st, err := EncodeCheckpoint(cks[j])
		if err != nil {
			return nil, err
		}
		payload = append(payload, ShardCheckpoint{Shard: j, State: st})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return nil, fmt.Errorf("stream: encode worker checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeWorkerCheckpoint splits a worker checkpoint reply back into
// per-shard payloads.
func decodeWorkerCheckpoint(b []byte) (map[int][]byte, error) {
	var payload []ShardCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&payload); err != nil {
		return nil, fmt.Errorf("stream: decode worker checkpoint: %w", err)
	}
	out := make(map[int][]byte, len(payload))
	for _, sc := range payload {
		out[sc.Shard] = sc.State
	}
	return out, nil
}
