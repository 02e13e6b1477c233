package stream

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
	"weak"

	"aspen/internal/data"
	"aspen/internal/vtime"
)

// sinkDeploy builds a windowed replica ending in a ResultSink, wired the way
// plan's DeployReplica wires every replica: a 1-minute time window into the
// sink, its entry point and its advancer wrapped so that each push and each
// tick is one replica call.
func sinkDeploy(_ []byte, _ int, _ []byte, send ResultSender) (map[string]Operator, []Advancer, []Checkpointer, error) {
	sink := NewResultSink(tempSchema(), send)
	win := NewTimeWindow(sink, time.Minute, 0)
	return map[string]Operator{"s0": sink.Entry(win)}, []Advancer{sink.Tick([]Advancer{win})}, []Checkpointer{win}, nil
}

// rowEmitter emits each tuple of a batch as a row of its own, built in one
// reused Vals buffer — the way an aggregate writes a group's next row into
// the one it retracted in front of a consumer that keeps nothing.
type rowEmitter struct {
	next Operator
	buf  []data.Value
	slot Slot
}

func (e *rowEmitter) Schema() *data.Schema { return e.next.Schema() }

func (e *rowEmitter) Push(t data.Tuple) { e.PushBatch([]data.Tuple{t}) }

func (e *rowEmitter) PushBatch(ts []data.Tuple) {
	for _, t := range ts {
		e.buf = append(e.buf[:0], t.Vals...)
		e.slot.Send(e.next, data.Tuple{Vals: e.buf, TS: t.TS, Op: t.Op})
	}
}

// emitAdv emits rows into next whenever it is advanced.
type emitAdv struct {
	next Operator
	rows []data.Tuple
}

func (a *emitAdv) Advance(vtime.Time) { a.next.PushBatch(a.rows) }

// A ResultSink sends once per replica call — an entry push, a tick across
// several advancers, calls nested inside those — with every row the call
// emitted, though its producer reused one buffer for all of them; a push
// outside any call is sent at once; and between calls it pins nothing.
func TestResultSinkOneSendPerCall(t *testing.T) {
	var sends [][]data.Tuple
	sink := NewResultSink(tempSchema(), func(ts []data.Tuple) error {
		sends = append(sends, cloneAll(ts))
		return nil
	})
	if !keepsNothing(sink) {
		t.Fatal("keepsNothing does not know the ResultSink")
	}
	entry := sink.Entry(&rowEmitter{next: sink})
	batch := []data.Tuple{temp(1, "L1", 1), temp(2, "L2", 2), temp(3, "L3", 3)}
	requireSends := func(ctx string, want ...[]data.Tuple) {
		t.Helper()
		if len(sends) != len(want) {
			t.Fatalf("%s: %d sends, want %d", ctx, len(sends), len(want))
		}
		for i := range want {
			if len(sends[i]) != len(want[i]) {
				t.Fatalf("%s: send %d carries %d rows, want %d", ctx, i, len(sends[i]), len(want[i]))
			}
			for k := range want[i] {
				if !sends[i][k].EqualVals(want[i][k]) || sends[i][k].TS != want[i][k].TS {
					t.Fatalf("%s: send %d row %d = %v, want %v", ctx, i, k, sends[i][k], want[i][k])
				}
			}
		}
		sends = nil
		for _, v := range sink.arena[:cap(sink.arena)] {
			if v != (data.Value{}) {
				t.Fatalf("%s: the arena still holds %v between calls", ctx, v)
			}
		}
		for _, r := range sink.rows[:cap(sink.rows)] {
			if r.Vals != nil {
				t.Fatalf("%s: the row buffer still holds %v between calls", ctx, r)
			}
		}
	}

	entry.PushBatch(batch)
	requireSends("entry push", batch)

	entry.PushBatch(nil)
	requireSends("empty call")

	tick := sink.Tick([]Advancer{&emitAdv{next: sink, rows: batch[:2]}, &emitAdv{next: entry, rows: batch[2:]}})
	tick.Advance(0)
	requireSends("tick across two advancers, one pushing through an entry", batch)

	sink.PushBatch(batch[:1])
	sink.Push(batch[1])
	requireSends("pushes outside any call", batch[:1], batch[1:2])
}

// A replica call that emits more values than one result frame holds —
// here a tick expiring a whole window — arrives at the coordinator as
// several frames, none past resultFrameCells; the link stays up; and the
// rows equal what the same window, run serially, emits.
func TestResultFramesSplitAtCap(t *testing.T) {
	w, err := NewShardWorker("127.0.0.1:0", sinkDeploy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	got, want := NewMaterialize(tempSchema()), NewMaterialize(tempSchema())
	var frames, maxRows int
	counted := NewCallback(tempSchema(), func(ts []data.Tuple) {
		frames++
		maxRows = max(maxRows, len(ts))
		got.PushBatch(ts)
	})
	c, err := dialShard(w.Addr(), counted, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Deploy(nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	serial := NewTimeWindow(want, time.Minute, 0)
	push := func(from, n int, at vtime.Time) {
		for lo := from; lo < from+n; lo += ShardBatchCap {
			var b []data.Tuple
			for i := lo; i < min(lo+ShardBatchCap, from+n); i++ {
				b = append(b, data.NewTuple(at, data.Str(fmt.Sprintf("r%d", i%97)), data.Float(float64(i))))
			}
			serial.PushBatch(b)
			if err := c.SendBatch(0, "s0", cloneAll(b)); err != nil {
				t.Fatal(err)
			}
		}
	}
	const perFrame = resultFrameCells / 2 // tempSchema rows carry two values
	n := perFrame + perFrame/4
	push(0, n, vtime.Second)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	frames, maxRows = 0, 0
	serial.Advance(2 * vtime.Minute)
	if err := c.Tick(2 * vtime.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if frames != 2 || maxRows != perFrame {
		t.Fatalf("the tick expired %d rows in %d frames of at most %d rows, want 2 frames of at most %d",
			n, frames, maxRows, perFrame)
	}
	push(n, 100, 3*vtime.Minute)
	if err := c.Flush(); err != nil {
		t.Fatalf("the link did not survive the split: %v", err)
	}
	if got.Len() != 100 {
		t.Fatalf("materialized %d rows after the split, want 100", got.Len())
	}
	requireBitEqual(t, "split frames vs serial", got, want)
}

// Once a decoded batch is consumed, neither end's decoder pins its values
// arena: not the worker's, which decodes data frames, nor the coordinator's,
// which decodes result frames (with failover off, no undo log keeps them).
func TestDecodersPinNothing(t *testing.T) {
	schema := data.NewSchema("kv", data.Col("k", data.TInt), data.Col("v", data.TFloat))
	var atWorker, atCoord weak.Pointer[data.Value]
	var mu sync.Mutex // the worker's frame loop writes atWorker; no channel orders it before the test reads
	deploy := func(_ []byte, _ int, _ []byte, send ResultSender) (map[string]Operator, []Advancer, []Checkpointer, error) {
		sink := NewResultSink(schema, send)
		head := NewCallback(schema, func(ts []data.Tuple) {
			mu.Lock()
			atWorker = weak.Make(&ts[0].Vals[0])
			mu.Unlock()
			sink.PushBatch(ts)
		})
		return map[string]Operator{"s0": sink.Entry(head)}, nil, nil, nil
	}
	w, err := NewShardWorker("127.0.0.1:0", deploy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	results := 0
	c, err := dialShard(w.Addr(), NewCallback(schema, func(ts []data.Tuple) {
		results += len(ts)
		atCoord = weak.Make(&ts[0].Vals[0])
	}), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Deploy(nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		b := []data.Tuple{data.NewTuple(vtime.Time(i), data.Int(int64(i)), data.Float(1)),
			data.NewTuple(vtime.Time(i), data.Int(int64(i+1)), data.Float(2))}
		if err := c.SendBatch(0, "s0", b); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if results != 6 {
		t.Fatalf("%d rows came back, want 6", results)
	}
	runtime.GC()
	runtime.GC()
	mu.Lock()
	defer mu.Unlock()
	if atWorker.Value() != nil {
		t.Error("the worker's decoder still pins the last data frame's values arena")
	}
	if atCoord.Value() != nil {
		t.Error("the coordinator's decoder still pins the last result frame's values arena")
	}
}

// A row a consumer keeps pins nothing else of the frame it was decoded
// from: not the frame's values arena, and not the string of another row of
// that frame. A worker-side keeper (a window, a join key, a group) and the
// coordinator's Materialize each keep row A of a two-row frame after row B
// is retracted; B's string, too long to intern, must then be collectable at
// both ends. When a frame decoded its strings into one arena per column, A
// kept B's bytes alive, and a larger frame kept more.
func TestKeptRowsPinNoFrame(t *testing.T) {
	schema := data.NewSchema("ks", data.Col("k", data.TInt), data.Col("s", data.TString))
	long := fmt.Sprintf("%0*d", 2*maxInternLen, 7)
	type pins struct{ vals, str weak.Pointer[byte] }
	// watch records weak pointers into the first batch that carries long:
	// the values arena (through row 0's first value) and long's bytes.
	watch := func(p *pins, ts []data.Tuple) {
		for _, tu := range ts {
			if s := tu.Vals[1].S; s == long && p.str == (weak.Pointer[byte]{}) {
				p.vals = weak.Make((*byte)(unsafe.Pointer(&ts[0].Vals[0])))
				p.str = weak.Make(unsafe.StringData(s))
			}
		}
	}
	var mu sync.Mutex // the worker's frame loop writes atWorker; no channel orders it before the test reads
	var atWorker, atCoord pins
	keptWorker := NewMaterialize(schema)
	deploy := func(_ []byte, _ int, _ []byte, send ResultSender) (map[string]Operator, []Advancer, []Checkpointer, error) {
		sink := NewResultSink(schema, send)
		head := NewCallback(schema, func(ts []data.Tuple) {
			mu.Lock()
			watch(&atWorker, ts)
			mu.Unlock()
			keptWorker.PushBatch(ts)
			sink.PushBatch(ts)
		})
		return map[string]Operator{"s0": sink.Entry(head)}, nil, nil, nil
	}
	w, err := NewShardWorker("127.0.0.1:0", deploy)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	keptCoord := NewMaterialize(schema)
	c, err := dialShard(w.Addr(), NewCallback(schema, func(ts []data.Tuple) {
		watch(&atCoord, ts)
		keptCoord.PushBatch(ts)
	}), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Deploy(nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	a := data.NewTuple(1, data.Int(1), data.Str("a"))
	b := data.NewTuple(1, data.Int(2), data.Str(long))
	for _, batch := range [][]data.Tuple{{a, b}, {b.Negate()}} {
		if err := c.SendBatch(0, "s0", batch); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.GC()
	mu.Lock()
	defer mu.Unlock()
	for _, end := range []struct {
		name string
		kept *Materialize
		p    pins
	}{{"worker", keptWorker, atWorker}, {"coordinator", keptCoord, atCoord}} {
		rows, _ := end.kept.Snapshot(nil, -1)
		if len(rows) != 1 || rows[0].Vals[1].S != "a" {
			t.Fatalf("the %s keeps %v, want row a alone", end.name, rows)
		}
		if end.p.str == (weak.Pointer[byte]{}) {
			t.Fatalf("the %s never saw row b", end.name)
		}
		if end.p.vals.Value() != nil {
			t.Errorf("the %s's kept row pins its frame's values arena", end.name)
		}
		if end.p.str.Value() != nil {
			t.Errorf("the %s's kept row pins the string of a retracted row of its frame", end.name)
		}
	}
}
