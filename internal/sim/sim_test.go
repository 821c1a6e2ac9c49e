package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleAndRunInOrder(t *testing.T) {
	var s Simulator
	var got []int
	s.MustSchedule(3, func() { got = append(got, 3) })
	s.MustSchedule(1, func() { got = append(got, 1) })
	s.MustSchedule(2, func() { got = append(got, 2) })
	if n := s.Run(); n != 3 {
		t.Fatalf("Run = %d events", n)
	}
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("order = %v", got)
	}
	if s.Now() != 3 {
		t.Errorf("Now = %g", s.Now())
	}
	if s.Processed() != 3 {
		t.Errorf("Processed = %d", s.Processed())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var s Simulator
	var got []string
	s.MustSchedule(1, func() { got = append(got, "a") })
	s.MustSchedule(1, func() { got = append(got, "b") })
	s.MustSchedule(1, func() { got = append(got, "c") })
	s.Run()
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("tie order = %v", got)
	}
}

func TestScheduleFromCallback(t *testing.T) {
	var s Simulator
	var got []float64
	s.MustSchedule(1, func() {
		got = append(got, s.Now())
		if err := s.After(2, func() { got = append(got, s.Now()) }); err != nil {
			t.Error(err)
		}
	})
	s.Run()
	if !reflect.DeepEqual(got, []float64{1, 3}) {
		t.Errorf("times = %v", got)
	}
}

func TestScheduleErrors(t *testing.T) {
	var s Simulator
	if err := s.Schedule(1, nil); err == nil {
		t.Error("nil callback should fail")
	}
	s.MustSchedule(5, func() {})
	s.Run()
	if err := s.Schedule(4, func() {}); err == nil {
		t.Error("scheduling in the past should fail")
	}
	if err := s.After(-1, func() {}); err == nil {
		t.Error("negative delay should fail")
	}
	if err := s.Schedule(5, func() {}); err != nil {
		t.Errorf("scheduling at Now should be allowed: %v", err)
	}
}

func TestRunUntil(t *testing.T) {
	var s Simulator
	var got []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		s.MustSchedule(at, func() { got = append(got, at) })
	}
	if n := s.RunUntil(2.5); n != 2 {
		t.Fatalf("RunUntil processed %d", n)
	}
	if s.Now() != 2.5 {
		t.Errorf("Now = %g, want deadline", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("Pending = %d", s.Pending())
	}
	s.Run()
	if !reflect.DeepEqual(got, []float64{1, 2, 3, 4}) {
		t.Errorf("events = %v", got)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	var s Simulator
	s.RunUntil(10)
	if s.Now() != 10 {
		t.Errorf("Now = %g", s.Now())
	}
}

func TestPropEventsExecuteSorted(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Simulator
		n := 1 + rng.Intn(100)
		var got []float64
		for i := 0; i < n; i++ {
			at := rng.Float64() * 100
			s.MustSchedule(at, func() { got = append(got, s.Now()) })
		}
		s.Run()
		return sort.Float64sAreSorted(got) && len(got) == n
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestNextAndStep: Next peeks without running anything, Step runs exactly
// the earliest event (callbacks may schedule more), and both report an
// empty queue.
func TestNextAndStep(t *testing.T) {
	var s Simulator
	if _, ok := s.Next(); ok || s.Step() {
		t.Fatal("an empty simulator has no next event")
	}
	var got []float64
	s.MustSchedule(5, func() { got = append(got, s.Now()) })
	s.MustSchedule(2, func() {
		got = append(got, s.Now())
		s.MustSchedule(3, func() { got = append(got, s.Now()) })
	})
	for _, want := range []float64{2, 3, 5} {
		if at, ok := s.Next(); !ok || at != want || s.Now() >= want {
			t.Fatalf("Next = %g, %v with Now %g; want %g still ahead", at, ok, s.Now(), want)
		}
		if !s.Step() || s.Now() != want {
			t.Fatalf("Step did not run the event at %g (Now %g)", want, s.Now())
		}
	}
	if !reflect.DeepEqual(got, []float64{2, 3, 5}) || s.Pending() != 0 || s.Processed() != 3 {
		t.Errorf("ran %v, %d pending, %d processed", got, s.Pending(), s.Processed())
	}
}
