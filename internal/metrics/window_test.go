package metrics

import (
	"math"
	"strings"
	"testing"
	"time"
)

// testMeter returns a meter with an injected clock the test advances.
func testMeter(window time.Duration, buckets int) (*Meter, *time.Time) {
	m := newMeter(window, buckets)
	clock := time.Unix(0, 0)
	m.now = func() time.Time { return clock }
	return m, &clock
}

func TestMeterRateFreshWindow(t *testing.T) {
	m, clock := testMeter(time.Minute, 12)
	m.Mark(10)
	*clock = clock.Add(10 * time.Second)
	// 10 events over the 10 observed seconds — a fresh meter averages over
	// the observed portion, not the full minute.
	if got := m.Rate(); math.Abs(got-1.0) > 0.05 {
		t.Fatalf("Rate = %v, want ≈ 1.0", got)
	}
}

func TestMeterSlidingWindow(t *testing.T) {
	m, clock := testMeter(time.Minute, 12)
	// 1 event per second for 2 minutes: once the window is full the rate
	// holds at 1/s and total keeps counting.
	for i := 0; i < 120; i++ {
		m.Mark(1)
		*clock = clock.Add(time.Second)
	}
	if got := m.Rate(); math.Abs(got-1.0) > 0.1 {
		t.Fatalf("steady-state Rate = %v, want ≈ 1.0", got)
	}
	if got := m.EWMA(); math.Abs(got-1.0) > 0.1 {
		t.Fatalf("steady-state EWMA = %v, want ≈ 1.0", got)
	}
	if got := m.Total(); got != 120 {
		t.Fatalf("Total = %d, want 120", got)
	}
}

func TestMeterIdleDecay(t *testing.T) {
	m, clock := testMeter(time.Minute, 12)
	for i := 0; i < 60; i++ {
		m.Mark(1)
		*clock = clock.Add(time.Second)
	}
	// A long idle gap: the windowed rate collapses to 0 and the EWMA
	// decays toward 0.
	*clock = clock.Add(10 * time.Minute)
	if got := m.Rate(); got != 0 {
		t.Fatalf("Rate after idle = %v, want 0", got)
	}
	if got := m.EWMA(); got > 0.01 {
		t.Fatalf("EWMA after long idle = %v, want ≈ 0", got)
	}
}

func TestMeterIgnoresNonPositive(t *testing.T) {
	m, _ := testMeter(time.Minute, 12)
	m.Mark(0)
	m.Mark(-5)
	if got := m.Total(); got != 0 {
		t.Fatalf("Total = %d, want 0", got)
	}
}

func TestMeterExposition(t *testing.T) {
	r := NewRegistry()
	m := r.Meter("arrivals")
	clock := time.Unix(0, 0)
	m.now = func() time.Time { return clock }
	m.Mark(6)
	clock = clock.Add(10 * time.Second)

	out := r.Exposition()
	for _, want := range []string{
		"# TYPE arrivals_total counter",
		"arrivals_total 6",
		"# TYPE arrivals_rate_per_sec gauge",
		"# TYPE arrivals_ewma_per_sec gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if r.Meter("arrivals") != m {
		t.Error("registry did not memoize the meter")
	}
}

func TestMeterBurstThenIdleFoldsHeadBucket(t *testing.T) {
	// Regression: the idle fast-path decayed the EWMA as if `steps`
	// zero-rate buckets completed, without first folding in the head
	// bucket that was accumulating events when the meter went idle — a
	// burst followed by idle understated the EWMA (to exactly 0 when the
	// burst landed in the very first bucket, as ewmaOK was never set).
	m, clock := testMeter(time.Minute, 12)
	m.Mark(50) // head bucket: 50 events over a 5s bucket = 10/s
	*clock = clock.Add(65 * time.Second)
	burstRate := 50.0 / 5.0
	want := burstRate * math.Pow(1-meterAlpha, 12) // fold head, then 12 zero buckets decay
	if got := m.EWMA(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("EWMA after burst-then-idle = %v, want %v", got, want)
	}
}
