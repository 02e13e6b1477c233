package stream

import (
	"aspen/internal/data"
	"aspen/internal/vtime"
)

// resultFrameCells caps the values one result frame carries. A replica call
// that emits more is sent as several frames, so no frame comes near the
// decoder's maxBatchCells or wireMaxFrame, and a ResultSink's arena stays
// below this high-water mark (plus append's growth slack).
const resultFrameCells = 1 << 16

// ResultSender ships replica output back to the coordinator. One call is one
// result frame on a shard worker, and one Merge acquisition in process: a
// replica's ResultSink calls it once per replica call with everything the
// call emitted (more than resultFrameCells values go as several calls). The
// batch slice and its tuples' Vals are valid only during the call; the
// sender copies what it keeps.
type ResultSender func(ts []data.Tuple) error

// ResultSink is the top of every shard replica: it collects what the replica
// emits during one replica call — one input batch pushed into an entry point
// (Entry), one tick across the replica's advancers (Tick), which includes the
// epochs of hosted sensor fragments — and, when the outermost call returns,
// hands it to its ResultSender at once. It copies each row into an arena of
// its own that the next call reuses, so it keeps nothing of what it is
// handed: the aggregate or join in front of it writes into reused memory (see
// keepsNothing). A push outside any call is sent when it returns.
//
// A replica is single-writer (its executor's goroutine, in process or on a
// worker), so the sink needs no lock.
type ResultSink struct {
	schema *data.Schema
	send   ResultSender
	calls  int // replica calls open; entries and ticks nest
	rows   []data.Tuple
	arena  []data.Value
}

// NewResultSink builds a replica's sink for rows of schema, sending through
// send.
func NewResultSink(schema *data.Schema, send ResultSender) *ResultSink {
	return &ResultSink{schema: schema, send: send}
}

// Schema implements Operator.
func (r *ResultSink) Schema() *data.Schema { return r.schema }

// Push implements Operator.
func (r *ResultSink) Push(t data.Tuple) { r.PushBatch([]data.Tuple{t}) }

// PushBatch implements Operator: the rows are copied into the sink's arena
// and leave when the replica call returns, or at once when the buffered
// call output would pass resultFrameCells.
func (r *ResultSink) PushBatch(ts []data.Tuple) {
	for _, t := range ts {
		if len(r.rows) > 0 && len(r.arena)+len(t.Vals) > resultFrameCells {
			r.flush()
		}
		// An append that moves the arena leaves the rows buffered so far on
		// the old backing, which nobody writes to again.
		start := len(r.arena)
		r.arena = append(r.arena, t.Vals...)
		end := len(r.arena)
		r.rows = append(r.rows, data.Tuple{Vals: r.arena[start:end:end], TS: t.TS, Op: t.Op})
	}
	if r.calls == 0 {
		r.flush()
	}
}

// flush sends the buffered rows and clears the arena and the row slice, so
// that between calls the sink pins nothing it was handed.
func (r *ResultSink) flush() {
	if len(r.rows) == 0 {
		return
	}
	_ = r.send(r.rows)
	clear(r.arena)
	clear(r.rows)
	r.arena, r.rows = r.arena[:0], r.rows[:0]
}

// begin opens a replica call; end closes it and, once the outermost call
// has returned, sends what it emitted.
func (r *ResultSink) begin() { r.calls++ }

func (r *ResultSink) end() {
	if r.calls--; r.calls == 0 {
		r.flush()
	}
}

// Entry wraps one of the replica's entry points: each batch pushed into it
// is one replica call.
func (r *ResultSink) Entry(op Operator) Operator { return &resultEntry{op: op, sink: r} }

// Tick wraps the replica's advancers in one: advancing it advances each of
// them, in order, as one replica call.
func (r *ResultSink) Tick(advs []Advancer) Advancer { return &resultTick{advs: advs, sink: r} }

type resultEntry struct {
	op   Operator
	sink *ResultSink
}

func (e *resultEntry) Schema() *data.Schema { return e.op.Schema() }

func (e *resultEntry) Push(t data.Tuple) { e.PushBatch([]data.Tuple{t}) }

func (e *resultEntry) PushBatch(ts []data.Tuple) {
	e.sink.begin()
	e.op.PushBatch(ts)
	e.sink.end()
}

type resultTick struct {
	advs []Advancer
	sink *ResultSink
}

func (t *resultTick) Advance(now vtime.Time) {
	t.sink.begin()
	for _, a := range t.advs {
		a.Advance(now)
	}
	t.sink.end()
}

// freshRows copies ts into one new values arena: what an in-process home
// hands a result funnel whose consumer keeps rows, since the ResultSink
// reuses its own.
func freshRows(ts []data.Tuple) []data.Tuple {
	n := 0
	for _, t := range ts {
		n += len(t.Vals)
	}
	arena := make([]data.Value, n)
	out := make([]data.Tuple, len(ts))
	n = 0
	for i, t := range ts {
		end := n + copy(arena[n:], t.Vals)
		out[i] = data.Tuple{Vals: arena[n:end:end], TS: t.TS, Op: t.Op}
		n = end
	}
	return out
}
