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
