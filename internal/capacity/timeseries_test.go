package capacity

import (
	"testing"
	"time"
)

func TestRingWrapAround(t *testing.T) {
	o := New(Options{})
	o.ringCap = 4
	base := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		o.Record("m", base.Add(time.Duration(i)*time.Second), float64(i))
	}
	got := o.Series("m", 0)
	if len(got) != 4 {
		t.Fatalf("ring holds %d samples, want 4", len(got))
	}
	for i, s := range got {
		if want := float64(6 + i); s.V != want {
			t.Fatalf("sample %d = %v, want %v (oldest-first after wrap)", i, s.V, want)
		}
	}
}

func TestSeriesWindowFilter(t *testing.T) {
	o := New(Options{})
	base := time.Unix(100, 0)
	o.now = func() time.Time { return base.Add(9 * time.Second) }
	for i := 0; i < 10; i++ {
		o.Record("m", base.Add(time.Duration(i)*time.Second), float64(i))
	}
	got := o.Series("m", 3*time.Second)
	if len(got) != 4 { // cutoff is inclusive: t=6,7,8,9
		t.Fatalf("windowed series has %d samples, want 4", len(got))
	}
	if got[0].V != 6 {
		t.Fatalf("windowed series starts at %v, want 6", got[0].V)
	}
	if o.Series("missing", 0) != nil {
		t.Fatal("unknown metric should return nil")
	}
}

func TestMetricsSorted(t *testing.T) {
	o := New(Options{})
	now := time.Unix(0, 0)
	for _, name := range []string{"zeta", "alpha", "mid"} {
		o.Record(name, now, 1)
	}
	got := o.Metrics()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("Metrics() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Metrics() = %v, want %v", got, want)
		}
	}
}

func TestSampleNowRateLimited(t *testing.T) {
	o := New(Options{Interval: time.Second})
	clock := time.Unix(0, 0)
	o.now = func() time.Time { return clock }

	calls := 0
	o.SetSampler(func(now time.Time) {
		calls++
		o.Record("m", now, 1)
	})

	o.SampleNow() // first pass runs (last is zero)
	o.SampleNow() // same instant: suppressed
	clock = clock.Add(300 * time.Millisecond)
	o.SampleNow() // < interval/2: suppressed
	clock = clock.Add(300 * time.Millisecond)
	o.SampleNow() // ≥ interval/2 since last pass: runs

	if calls != 2 {
		t.Fatalf("sampler ran %d times, want 2 (rate-limited to interval/2)", calls)
	}
}

func TestStartStopTicker(t *testing.T) {
	o := New(Options{Interval: 5 * time.Millisecond})
	o.ringCap = 100
	o.SetSampler(func(now time.Time) { o.Record("tick", now, 1) })
	o.Start()
	defer o.Stop()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if len(o.Series("tick", 0)) >= 3 {
			o.Stop()
			o.Stop() // idempotent
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("ticker produced no samples within deadline")
}

func TestSeriesWindowAnchoredToClock(t *testing.T) {
	// Regression: the trailing-window cutoff used to be anchored to the
	// last sample's timestamp, so when the sampler stalled the window kept
	// returning stale history as if it were current. The anchor is the
	// wall clock now: once samples age out, the window empties.
	o := New(Options{})
	base := time.Unix(100, 0)
	now := base
	o.now = func() time.Time { return now }
	for i := 0; i < 10; i++ {
		o.Record("m", base.Add(time.Duration(i)*time.Second), float64(i))
	}
	now = base.Add(9 * time.Second)
	if got := o.Series("m", 3*time.Second); len(got) != 4 {
		t.Fatalf("live window has %d samples, want 4", len(got))
	}
	// The sampler stalls: the clock moves on but no new samples arrive.
	now = base.Add(time.Hour)
	if got := o.Series("m", 3*time.Second); len(got) != 0 {
		t.Fatalf("stalled sampler: window returned %d stale samples, want 0", len(got))
	}
}

// TestRecordAllocationFree: once a series has its ring, a push — one per
// metric per sampling pass, forever — allocates nothing.
func TestRecordAllocationFree(t *testing.T) {
	o := New(Options{})
	o.ringCap = 16
	t0 := time.Unix(1700000000, 0)
	o.Record("m", t0, 1)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		o.Record("m", t0.Add(time.Duration(i)*time.Second), float64(i))
	})
	if allocs != 0 {
		t.Errorf("Record allocates %.1f objects per push, want 0", allocs)
	}
}
