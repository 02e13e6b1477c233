package stream

import (
	"time"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// Window converts a raw stream into a windowed delta stream: arriving
// tuples flow downstream as insertions, and tuples leaving the window flow
// as deletions. Downstream joins and aggregates therefore maintain exactly
// the window contents.
//
// Three forms mirror the StreamSQL window clauses:
//
//	[RANGE r]          time window, per-tuple slide
//	[RANGE r SLIDE s]  time window advancing at s boundaries
//	[ROWS n]           last-n window
//	[NOW]              each tuple inserted then immediately retracted
//
// Ring state lives in a compacting slice ring rather than a linked list,
// so steady-state insert/expire performs no per-tuple allocation.
type Window struct {
	next Operator

	kind    windowKind
	rng     time.Duration
	slide   time.Duration
	rows    int
	buf     []data.Tuple // live tuples in arrival order at buf[head:]
	head    int
	lastAdv vtime.Time
	batch   []data.Tuple // scratch for batched downstream dispatch
}

type windowKind uint8

const (
	windowTime windowKind = iota
	windowRows
	windowNow
)

// NewTimeWindow builds a [RANGE rng] / [RANGE rng SLIDE slide] window.
func NewTimeWindow(next Operator, rng, slide time.Duration) *Window {
	return &Window{next: next, kind: windowTime, rng: rng, slide: slide}
}

// NewRowsWindow builds a [ROWS n] window.
func NewRowsWindow(next Operator, n int) *Window {
	return &Window{next: next, kind: windowRows, rows: n}
}

// NewNowWindow builds a [NOW] window.
func NewNowWindow(next Operator) *Window {
	return &Window{next: next, kind: windowNow}
}

// Schema implements Operator.
func (w *Window) Schema() *data.Schema { return w.next.Schema() }

// popFront removes and returns the oldest buffered tuple, compacting the
// ring once the dead prefix dominates so memory stays bounded by ~2x the
// live window.
func (w *Window) popFront() data.Tuple {
	t := w.buf[w.head]
	w.buf[w.head] = data.Tuple{} // drop the reference for GC
	w.head++
	if w.head > 32 && w.head > len(w.buf)/2 {
		n := copy(w.buf, w.buf[w.head:])
		clear(w.buf[n:])
		w.buf = w.buf[:n]
		w.head = 0
	}
	return t
}

// removeAt deletes the buffered tuple at absolute index i, preserving
// arrival order.
func (w *Window) removeAt(i int) {
	copy(w.buf[i:], w.buf[i+1:])
	w.buf[len(w.buf)-1] = data.Tuple{}
	w.buf = w.buf[:len(w.buf)-1]
}

// Push implements Operator.
func (w *Window) Push(t data.Tuple) { w.PushBatch([]data.Tuple{t}) }

// PushBatch implements Operator: window maintenance for the whole batch runs
// first, then the resulting deltas ship downstream in one dispatch.
// Deletions pass through (an upstream retraction removes the tuple from the
// window if present).
func (w *Window) PushBatch(ts []data.Tuple) {
	out := w.batch[:0]
	for _, t := range ts {
		out = w.apply(t, out)
	}
	w.batch = dispatch(w.next, out)
}

// apply performs window maintenance for one tuple and appends the deltas
// to emit downstream (in order) to out.
func (w *Window) apply(t data.Tuple, out []data.Tuple) []data.Tuple {
	if t.Op == data.Delete {
		return w.removeOne(t, out)
	}
	switch w.kind {
	case windowNow:
		out = append(out, t, t.Negate())

	case windowRows:
		w.buf = append(w.buf, t)
		out = append(out, t)
		for w.Len() > w.rows {
			old := w.popFront()
			del := old.Negate()
			del.TS = t.TS
			out = append(out, del)
		}

	case windowTime:
		// Event time drives expiry: everything older than t.TS - rng leaves.
		out = w.advanceTo(t.TS, out)
		w.buf = append(w.buf, t)
		out = append(out, t)
	}
	return out
}

// Advance expires by (virtual) wall-clock time; the engine calls this on
// ticks so windows drain during stream silence. The expiries of one tick
// ship downstream as one batch.
func (w *Window) Advance(now vtime.Time) {
	if w.kind != windowTime {
		return
	}
	w.batch = dispatch(w.next, w.advanceTo(now, w.batch[:0]))
}

func (w *Window) advanceTo(now vtime.Time, out []data.Tuple) []data.Tuple {
	if w.slide > 0 {
		// snap expiry to slide boundaries
		boundary := (int64(now) / int64(w.slide)) * int64(w.slide)
		now = vtime.Time(boundary)
		if now <= w.lastAdv {
			return out
		}
		w.lastAdv = now
	}
	cutoff := now.Add(-w.rng)
	for w.Len() > 0 {
		front := w.buf[w.head]
		if front.TS > cutoff {
			break
		}
		w.popFront()
		del := front.Negate()
		del.TS = now
		out = append(out, del)
	}
	return out
}

// removeOne deletes the first buffered tuple equal to t and appends the
// retraction to out if found.
func (w *Window) removeOne(t data.Tuple, out []data.Tuple) []data.Tuple {
	for i := w.head; i < len(w.buf); i++ {
		if w.buf[i].EqualVals(t) {
			w.removeAt(i)
			return append(out, t)
		}
	}
	return out
}

// Len reports the current window population (for tests and plan displays).
func (w *Window) Len() int { return len(w.buf) - w.head }

// Contents returns the live window rows in arrival order: the window's own
// buffer, read-only like any pushed batch and valid until the next push or
// tick. The shared-subplan layer uses it to warm-start a query attaching
// to an already-running shared window: the rows replay as insertions into
// the new suffix, so later expiry deletions retract tuples the suffix has
// actually seen. Callers must not be pushing concurrently (the same
// contract as deploy-time table loads).
func (w *Window) Contents() []data.Tuple {
	return w.buf[w.head:len(w.buf):len(w.buf)]
}
