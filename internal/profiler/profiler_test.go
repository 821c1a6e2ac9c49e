package profiler

import (
	"math"
	"sync"
	"testing"

	"ubiqos/internal/resource"
)

func TestNewValidation(t *testing.T) {
	for _, alpha := range []float64{0, -0.5, 1.5} {
		if _, err := New(alpha); err == nil {
			t.Errorf("alpha %g should fail", alpha)
		}
	}
	if _, err := New(1); err != nil {
		t.Errorf("alpha 1 should be allowed: %v", err)
	}
}

func TestObserveValidation(t *testing.T) {
	p := MustNew(DefaultAlpha)
	if err := p.Observe("", resource.MB(1, 1)); err == nil {
		t.Error("empty key should fail")
	}
	if err := p.Observe("c", resource.Vector{-1}); err == nil {
		t.Error("invalid sample should fail")
	}
	if err := p.Observe("c", resource.MB(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Observe("c", resource.Vector{1}); err == nil {
		t.Error("dimension change should fail")
	}
}

func TestEWMAConverges(t *testing.T) {
	p := MustNew(0.5)
	if err := p.Observe("c", resource.MB(10, 20)); err != nil {
		t.Fatal(err)
	}
	est, ok := p.Estimate("c")
	if !ok || !est.Equal(resource.MB(10, 20)) {
		t.Fatalf("first sample initializes: %v", est)
	}
	if err := p.Observe("c", resource.MB(20, 40)); err != nil {
		t.Fatal(err)
	}
	est, _ = p.Estimate("c")
	if math.Abs(est[0]-15) > 1e-12 || math.Abs(est[1]-30) > 1e-12 {
		t.Errorf("EWMA = %v, want [15, 30]", est)
	}
	// Converges toward a steady signal.
	for i := 0; i < 50; i++ {
		if err := p.Observe("c", resource.MB(20, 40)); err != nil {
			t.Fatal(err)
		}
	}
	est, _ = p.Estimate("c")
	if math.Abs(est[0]-20) > 0.01 || math.Abs(est[1]-40) > 0.01 {
		t.Errorf("EWMA after convergence = %v", est)
	}
	if p.Samples("c") != 52 {
		t.Errorf("Samples = %d", p.Samples("c"))
	}
	if p.Samples("ghost") != 0 {
		t.Error("unknown key should have 0 samples")
	}
}

func TestEstimateIsolation(t *testing.T) {
	p := MustNew(DefaultAlpha)
	if err := p.Observe("c", resource.MB(10, 10)); err != nil {
		t.Fatal(err)
	}
	est, _ := p.Estimate("c")
	est[0] = 999
	again, _ := p.Estimate("c")
	if again[0] != 10 {
		t.Error("Estimate must return a copy")
	}
}

func TestEstimateOr(t *testing.T) {
	p := MustNew(DefaultAlpha)
	declared := resource.MB(64, 50)
	if got := p.EstimateOr("c", declared); !got.Equal(declared) {
		t.Errorf("fallback = %v", got)
	}
	if err := p.Observe("c", resource.MB(8, 5)); err != nil {
		t.Fatal(err)
	}
	if got := p.EstimateOr("c", declared); !got.Equal(resource.MB(8, 5)) {
		t.Errorf("profiled = %v", got)
	}
	// Dimension mismatch falls back to declared.
	if err := p.Observe("d", resource.Vector{1}); err != nil {
		t.Fatal(err)
	}
	if got := p.EstimateOr("d", declared); !got.Equal(declared) {
		t.Errorf("mismatched dims should fall back: %v", got)
	}
}

func TestConcurrentObserve(t *testing.T) {
	p := MustNew(DefaultAlpha)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if err := p.Observe("c", resource.MB(10, 10)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p.Samples("c") != 800 {
		t.Errorf("Samples = %d", p.Samples("c"))
	}
	est, _ := p.Estimate("c")
	if math.Abs(est[0]-10) > 1e-9 {
		t.Errorf("Estimate = %v", est)
	}
}
