package stream

import (
	"bytes"
	"testing"

	"aspen/internal/data"
)

// TestOpaqueStateRoundTrip covers the opaque checkpoint envelope that
// plan-level fragment runners ride through shard checkpoints.
func TestOpaqueStateRoundTrip(t *testing.T) {
	payload := []byte{0xde, 0xad, 0xbe, 0xef}
	st := NewOpaqueState(payload)
	got, err := st.OpaqueData()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("OpaqueData = %x, want %x", got, payload)
	}
	if _, err := (OpState{}).OpaqueData(); err == nil {
		t.Fatal("unwrapping a non-opaque state must fail with a kind error")
	}
}

type testOpaqueCk struct{ b []byte }

func (o testOpaqueCk) CheckpointState() OpState   { return NewOpaqueState(o.b) }
func (o testOpaqueCk) RestoreState(OpState) error { return nil }

type testWindowCk struct{}

func (testWindowCk) CheckpointState() OpState {
	return OpState{Kind: ckWindow, Window: &WindowState{}}
}
func (testWindowCk) RestoreState(OpState) error { return nil }

// TestTrimOpaqueTail covers the central-fallback surgery: dropping the
// fragment-runner (opaque) tail off a shard checkpoint while the stream
// operator prefix stays restorable, and refusing to cut into non-opaque
// states.
func TestTrimOpaqueTail(t *testing.T) {
	full, err := EncodeCheckpoint([]Checkpointer{
		testWindowCk{}, testOpaqueCk{[]byte{1}}, testOpaqueCk{[]byte{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := TrimOpaqueTail(full, 0); err != nil || !bytes.Equal(got, full) {
		t.Fatalf("trim 0 = %x, %v; want the payload unchanged", got, err)
	}
	if got, err := TrimOpaqueTail(nil, 2); err != nil || got != nil {
		t.Fatalf("trim of an empty checkpoint = %x, %v; want nil, nil", got, err)
	}
	trimmed, err := TrimOpaqueTail(full, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The surviving prefix restores against the window operator alone.
	if err := RestoreCheckpoint([]Checkpointer{testWindowCk{}}, trimmed); err != nil {
		t.Fatalf("trimmed prefix does not restore: %v", err)
	}
	if _, err := TrimOpaqueTail(full, 3); err == nil {
		t.Fatal("trimming into the non-opaque prefix must fail")
	}
	if _, err := TrimOpaqueTail(full, 4); err == nil {
		t.Fatal("trimming more states than the checkpoint carries must fail")
	}
}

// TestBatchCallback covers the callback leaf sink: a PushBatch arrives as
// one call, a lone Push as a one-tuple batch.
func TestBatchCallback(t *testing.T) {
	schema := data.NewSchema("cb", data.Col("v", data.TInt))
	var batches [][]data.Tuple
	c := NewCallback(schema, func(ts []data.Tuple) {
		cp := make([]data.Tuple, len(ts))
		copy(cp, ts)
		batches = append(batches, cp)
	})
	if c.Schema() != schema {
		t.Fatal("schema not preserved")
	}
	c.Push(data.NewTuple(0, data.Int(1)))
	c.PushBatch([]data.Tuple{
		data.NewTuple(0, data.Int(2)),
		data.NewTuple(0, data.Int(3)),
	})
	if len(batches) != 2 || len(batches[0]) != 1 || len(batches[1]) != 2 {
		t.Fatalf("batches = %v, want one single-tuple and one two-tuple call", batches)
	}
}
