package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestLabeledCounterBasics(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("requests", "device")
	lc.With("pda1").Inc()
	lc.With("pda1").Inc()
	lc.With("desktop1").Add(3)
	if got := lc.With("pda1").Value(); got != 2 {
		t.Errorf("pda1 = %d", got)
	}
	if got := lc.With("desktop1").Value(); got != 3 {
		t.Errorf("desktop1 = %d", got)
	}
	if got := lc.Series(); got != 2 {
		t.Errorf("Series = %d", got)
	}
	// Memoized by name: same family back.
	if r.LabeledCounter("requests", "device") != lc {
		t.Error("registry did not memoize the family")
	}
}

func TestLabeledSeriesRenderInExposition(t *testing.T) {
	r := NewRegistry()
	r.LabeledGauge("device_headroom_ratio", "device").With("pda1").Set(0.25)
	r.LabeledCounter("sessions", "class").With("audio").Inc()
	out := r.Exposition()
	for _, want := range []string{
		`device_headroom_ratio{device="pda1"} 0.25`,
		`sessions{class="audio"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// Exceeding the cardinality bound must not grow the map or panic: every
// overflow value lands on the shared "other" series.
func TestLabeledCardinalityCap(t *testing.T) {
	r := NewRegistry()
	lc := r.LabeledCounter("hits", "peer")
	lc.fam.limit = 4
	for i := 0; i < 100; i++ {
		lc.With(fmt.Sprintf("peer-%d", i)).Inc()
	}
	// 4 real series + the overflow series.
	if got := lc.Series(); got != 5 {
		t.Fatalf("Series after overflow = %d, want 5", got)
	}
	if got := lc.With(OverflowLabel).Value(); got != 96 {
		t.Fatalf("overflow series = %d, want 96", got)
	}
	// Known values still resolve to their own series.
	if got := lc.With("peer-0").Value(); got != 1 {
		t.Fatalf("peer-0 = %d, want 1", got)
	}
	// A fresh unseen value after the cap still lands on overflow.
	lc.With("late-arrival").Inc()
	if got := lc.Series(); got != 5 {
		t.Fatalf("Series grew to %d after cap", got)
	}
}

func TestLabeledCardinalityCapConcurrent(t *testing.T) {
	r := NewRegistry()
	lg := r.LabeledGauge("util", "device")
	lg.fam.limit = 8
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				lg.With(fmt.Sprintf("dev-%d-%d", i, j)).Set(1)
			}
		}(i)
	}
	wg.Wait()
	if got := lg.Series(); got > 9 {
		t.Fatalf("Series after concurrent overflow = %d, want ≤ 9", got)
	}
}

// TestHotPathSeriesAllocationFree: resolving a labeled series per
// operation — including the overflow series a label past the cardinality
// cap collapses into — and marking a meter allocate nothing once the
// series exists, so labels cost no more than the unlabeled registry.
func TestHotPathSeriesAllocationFree(t *testing.T) {
	r := NewRegistry()
	ctr := r.LabeledCounter("requests", "device")
	gauge := r.LabeledGauge("headroom", "device")
	full := r.LabeledCounter("bombed", "device")
	for i := 0; i <= DefaultLabelCardinality; i++ {
		full.With(fmt.Sprintf("dev%d", i)).Inc()
	}
	meter := r.Meter("arrivals")
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"labeled counter inc", func() { ctr.With("desktop1").Inc() }},
		{"labeled gauge set", func() { gauge.With("desktop1").Set(0.5) }},
		{"overflow label inc", func() { full.With("one-past-the-cap").Inc() }},
		{"meter mark", func() { meter.Mark(1) }},
	} {
		tc.fn() // create the series
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", tc.name, allocs)
		}
	}
}
