package vtime

import (
	"container/heap"
	"testing"
	"time"
)

// Step runs the single earliest pending event, advancing the clock to its
// instant. It reports whether an event ran.
func (s *Scheduler) Step() bool {
	for {
		s.mu.Lock()
		if len(s.heap) == 0 {
			s.mu.Unlock()
			return false
		}
		e := heap.Pop(&s.heap).(*event)
		if e.off {
			s.mu.Unlock()
			continue
		}
		s.now = e.at
		s.mu.Unlock()
		e.fn()
		return true
	}
}

// Run executes events until none remain. Events may schedule further events;
// Run returns only when the queue is drained.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.At(30*Second, func() { got = append(got, 3) })
	s.At(10*Second, func() { got = append(got, 1) })
	s.At(20*Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*Second {
		t.Fatalf("Now = %v, want 30s", s.Now())
	}
}

func TestSchedulerSameInstantFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	count := 0
	var rec func()
	rec = func() {
		count++
		if count < 5 {
			s.After(time.Second, rec)
		}
	}
	s.After(time.Second, rec)
	s.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if s.Now() != 5*Second {
		t.Fatalf("Now = %v, want 5s", s.Now())
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	ran := 0
	s.At(Second, func() { ran++ })
	s.At(3*Second, func() { ran++ })
	s.RunUntil(2 * Second)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if s.Now() != 2*Second {
		t.Fatalf("Now = %v, want 2s", s.Now())
	}
	s.Run()
	if ran != 2 || s.Now() != 3*Second {
		t.Fatalf("after Run: ran=%d now=%v", ran, s.Now())
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler()
	ran := false
	tm := s.At(Second, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false for pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}
}

func TestEvery(t *testing.T) {
	s := NewScheduler()
	n := 0
	stop := s.Every(10*time.Second, func() {
		n++
		if n == 3 {
			// stop from inside the callback
		}
	})
	s.RunUntil(35 * Second)
	if n != 3 {
		t.Fatalf("ticks = %d, want 3", n)
	}
	stop()
	s.RunUntil(100 * Second)
	if n != 3 {
		t.Fatalf("ticks after stop = %d, want 3", n)
	}
}

func TestEveryPanicsOnZeroPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewScheduler().Every(0, func() {})
}

func TestSchedulingInPastRunsNow(t *testing.T) {
	s := NewScheduler()
	s.At(10*Second, func() {
		s.At(Second, func() {}) // in the past: clamped to now
	})
	s.Run()
	if s.Now() != 10*Second {
		t.Fatalf("Now = %v, want 10s", s.Now())
	}
}

func TestWallClockMonotone(t *testing.T) {
	w := NewWallClock()
	a := w.Now()
	b := w.Now()
	if b < a {
		t.Fatalf("wall clock went backwards: %v then %v", a, b)
	}
}

func TestTimeHelpers(t *testing.T) {
	tt := Time(0).Add(1500 * time.Millisecond)
	if tt != Second+Second/2 {
		t.Fatalf("Add = %v", tt)
	}
	if tt.Sub(Second) != 500*time.Millisecond {
		t.Fatalf("Sub = %v", tt.Sub(Second))
	}
}
