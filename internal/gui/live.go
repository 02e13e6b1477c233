package gui

import (
	"io"
	"sync"

	"aspen/internal/stream"
)

// Repainter coalesces display updates into at most one frame render per
// paint cycle. Materialized query results mark it dirty through their
// OnChange hooks (already one notification per delta batch, not per
// tuple); the demo loop calls Paint once per epoch, so a burst of sensor
// deliveries costs a single render instead of one per change — the
// batched repaint path matching the engine's batched delta propagation.
type Repainter struct {
	mu     sync.Mutex
	dirty  bool
	paints int64
	render func() string
	out    io.Writer
}

// NewRepainter builds a repainter writing render() frames to out.
func NewRepainter(out io.Writer, render func() string) *Repainter {
	return &Repainter{out: out, render: render}
}

// Watch marks the repainter dirty whenever the materialized result
// changes, chaining any OnChange hook already installed. Changes arriving
// from shard workers are safe: the hook installs under the materialize's
// lock, Invalidate is locked, and Paint runs on the demo goroutine. The
// hook fires when a change reaches the result: a serial query's within its
// push, an in-process shard's one queue hop after it, and a ShardWorker-
// hosted shard's at the engine's next tick at the latest
// (stream.Sharder.PushBatch).
func (r *Repainter) Watch(m *stream.Materialize) {
	m.ChainOnChange(r.Invalidate)
}

// Invalidate marks the current frame stale.
func (r *Repainter) Invalidate() {
	r.mu.Lock()
	r.dirty = true
	r.mu.Unlock()
}

// Paint renders one frame if anything changed since the last call and
// reports whether it painted.
func (r *Repainter) Paint() bool {
	r.mu.Lock()
	if !r.dirty {
		r.mu.Unlock()
		return false
	}
	r.dirty = false
	r.paints++
	r.mu.Unlock()
	io.WriteString(r.out, r.render())
	return true
}

// Paints returns the number of frames rendered so far.
func (r *Repainter) Paints() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.paints
}
