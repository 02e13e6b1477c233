// Package vtime provides the time substrate shared by every ASPEN component.
//
// All engines, wrappers and simulators take a Clock rather than calling
// time.Now directly. In production the Clock is the wall clock; in tests,
// benchmarks and the building simulation it is a deterministic discrete-event
// Scheduler, so a "ten second" PDU polling loop runs in microseconds and every
// run is reproducible.
package vtime

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// Time is an instant on the simulation timeline, in nanoseconds since the
// simulation epoch. It deliberately mirrors time.Time's resolution so wall
// clock adapters are lossless.
type Time int64

// Second is one second of the timeline.
const Second = Time(time.Second)

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String formats the instant as a duration offset from the epoch.
func (t Time) String() string { return time.Duration(t).String() }

// A Clock tells the current time. Implementations must be safe for concurrent
// use.
type Clock interface {
	Now() Time
}

// WallClock is a Clock backed by the operating system clock.
type WallClock struct{ epoch time.Time }

// NewWallClock returns a wall clock whose epoch is the moment of the call.
func NewWallClock() *WallClock { return &WallClock{epoch: time.Now()} }

// Now implements Clock.
func (w *WallClock) Now() Time { return Time(time.Since(w.epoch)) }

// event is a scheduled callback.
type event struct {
	at  Time
	seq int64 // tiebreak so same-instant events run FIFO
	fn  func()
	idx int
	off bool // cancelled
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Timer is a handle to a scheduled event; Stop cancels it.
type Timer struct {
	s *Scheduler
	e *event
}

// Stop cancels the timer if it has not yet fired. It reports whether the
// event was still pending.
func (t *Timer) Stop() bool {
	if t == nil || t.e == nil {
		return false
	}
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.e.off {
		return false
	}
	t.e.off = true
	return true
}

// Scheduler is a deterministic discrete-event simulator implementing Clock.
// Events scheduled for the same instant fire in scheduling order. The zero
// value is not usable; call NewScheduler.
type Scheduler struct {
	mu   sync.Mutex
	now  Time
	seq  int64
	heap eventHeap
}

// NewScheduler returns a scheduler positioned at the epoch.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now implements Clock.
func (s *Scheduler) Now() Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// At schedules fn to run at instant t. Scheduling in the past (or present)
// runs at the current instant on the next step. Returns a cancellable Timer.
func (s *Scheduler) At(t Time, fn func()) *Timer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t < s.now {
		t = s.now
	}
	e := &event{at: t, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.heap, e)
	return &Timer{s: s, e: e}
}

// After schedules fn to run d from the current instant.
func (s *Scheduler) After(d time.Duration, fn func()) *Timer {
	s.mu.Lock()
	at := s.now.Add(d)
	s.mu.Unlock()
	return s.At(at, fn)
}

// Every schedules fn to run periodically with the given period, starting one
// period from now. The returned stop function cancels the series.
func (s *Scheduler) Every(period time.Duration, fn func()) (stop func()) {
	if period <= 0 {
		panic(fmt.Sprintf("vtime: non-positive period %v", period))
	}
	var mu sync.Mutex
	stopped := false
	var tick func()
	tick = func() {
		mu.Lock()
		if stopped {
			mu.Unlock()
			return
		}
		mu.Unlock()
		fn()
		mu.Lock()
		if !stopped {
			s.After(period, tick)
		}
		mu.Unlock()
	}
	s.After(period, tick)
	return func() {
		mu.Lock()
		stopped = true
		mu.Unlock()
	}
}

// RunUntil executes events with instants <= deadline, then advances the clock
// to the deadline. Pending later events remain queued.
func (s *Scheduler) RunUntil(deadline Time) {
	for {
		s.mu.Lock()
		if len(s.heap) == 0 {
			break
		}
		next := s.heap[0]
		if next.off {
			heap.Pop(&s.heap)
			s.mu.Unlock()
			continue
		}
		if next.at > deadline {
			break
		}
		heap.Pop(&s.heap)
		s.now = next.at
		s.mu.Unlock()
		next.fn()
	}
	// mu is held here from the break paths.
	if s.now < deadline {
		s.now = deadline
	}
	s.mu.Unlock()
}

// RunFor executes events within the next d of simulated time.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.Now().Add(d)) }
