// Package sim provides a small deterministic discrete-event simulator:
// events are callbacks scheduled at virtual times (hours in the Figure 5
// experiment, nanoseconds in a session runtime's timer queue) and executed
// in time order, with FIFO tie-breaking so runs are exactly reproducible.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Simulator is a single-threaded discrete-event simulator. The zero value
// is ready to use. It is not safe for concurrent use: all scheduling must
// happen from the initializing goroutine or from within event callbacks.
type Simulator struct {
	now    float64
	seq    int
	queue  eventHeap
	events int
}

// Now returns the current virtual time (in whatever unit the caller uses
// consistently; the experiments use hours).
func (s *Simulator) Now() float64 { return s.now }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() int { return s.events }

// Pending returns the number of events still queued.
func (s *Simulator) Pending() int { return len(s.queue) }

// Schedule enqueues fn to run at virtual time at. Scheduling in the past
// (before Now) is an error; scheduling exactly at Now is allowed and runs
// after all earlier-scheduled events for that instant.
func (s *Simulator) Schedule(at float64, fn func()) error {
	if fn == nil {
		return fmt.Errorf("sim: nil event callback")
	}
	if at < s.now {
		return fmt.Errorf("sim: cannot schedule at %.6f before now %.6f", at, s.now)
	}
	heap.Push(&s.queue, &event{at: at, seq: s.seq, fn: fn})
	s.seq++
	return nil
}

// MustSchedule is Schedule that panics on error.
func (s *Simulator) MustSchedule(at float64, fn func()) {
	if err := s.Schedule(at, fn); err != nil {
		panic(err)
	}
}

// After enqueues fn to run delay units after Now.
func (s *Simulator) After(delay float64, fn func()) error {
	if delay < 0 {
		return fmt.Errorf("sim: negative delay %.6f", delay)
	}
	return s.Schedule(s.now+delay, fn)
}

// Next returns the time of the earliest queued event; ok is false when
// the queue is empty.
func (s *Simulator) Next() (at float64, ok bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.queue[0].at, true
}

// Step executes the earliest queued event, advancing Now to its time, and
// reports whether there was one.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := heap.Pop(&s.queue).(*event)
	s.now = e.at
	s.events++
	e.fn()
	return true
}

// Run executes events in time order until the queue drains, and returns
// the number of events processed.
func (s *Simulator) Run() int {
	before := s.events
	for s.Step() {
	}
	return s.events - before
}

// RunUntil executes events with time ≤ deadline, leaves later events
// queued, and advances Now to the deadline.
func (s *Simulator) RunUntil(deadline float64) int {
	before := s.events
	for at, ok := s.Next(); ok && at <= deadline; at, ok = s.Next() {
		s.Step()
	}
	s.now = math.Max(s.now, deadline)
	return s.events - before
}

type event struct {
	at  float64
	seq int
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
