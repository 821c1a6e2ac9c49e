// Package profiler implements the online resource profiling service the
// configuration model assumes (paper §3.1, citing QualProbes and
// Abdelzaher's automated profiling): it maintains exponentially weighted
// moving averages of each component's observed end-system resource usage
// and exposes the smoothed vectors as the requirement estimates R the
// service distributor plans with.
package profiler

import (
	"fmt"
	"sync"

	"ubiqos/internal/resource"
)

// DefaultAlpha is the EWMA smoothing factor: the weight of the newest
// sample.
const DefaultAlpha = 0.3

// Profiler aggregates usage samples per component key. All methods are
// safe for concurrent use.
type Profiler struct {
	alpha float64

	mu       sync.Mutex
	profiles map[string]*profile
}

type profile struct {
	estimate resource.Vector
	samples  int
}

// New returns a profiler with the given smoothing factor in (0, 1].
func New(alpha float64) (*Profiler, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("profiler: alpha must be in (0,1], got %g", alpha)
	}
	return &Profiler{alpha: alpha, profiles: make(map[string]*profile)}, nil
}

// MustNew is New that panics on error.
func MustNew(alpha float64) *Profiler {
	p, err := New(alpha)
	if err != nil {
		panic(err)
	}
	return p
}

// Observe records one usage sample for the component key. The first sample
// initializes the estimate; later samples are folded in with EWMA. Samples
// must share a dimensionality per key.
func (p *Profiler) Observe(key string, usage resource.Vector) error {
	if key == "" {
		return fmt.Errorf("profiler: empty key")
	}
	if err := usage.Validate(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	pr, ok := p.profiles[key]
	if !ok {
		p.profiles[key] = &profile{
			estimate: usage.Clone(),
			samples:  1,
		}
		return nil
	}
	if len(pr.estimate) != len(usage) {
		return fmt.Errorf("profiler: %s: sample dimension %d, profile has %d", key, len(usage), len(pr.estimate))
	}
	for i := range pr.estimate {
		pr.estimate[i] = p.alpha*usage[i] + (1-p.alpha)*pr.estimate[i]
	}
	pr.samples++
	return nil
}

// Estimate returns the smoothed requirement vector for the key.
func (p *Profiler) Estimate(key string) (resource.Vector, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pr, ok := p.profiles[key]
	if !ok {
		return nil, false
	}
	return pr.estimate.Clone(), true
}

// Samples returns how many observations the key has accumulated.
func (p *Profiler) Samples(key string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pr, ok := p.profiles[key]; ok {
		return pr.samples
	}
	return 0
}

// EstimateOr returns the smoothed estimate when the key has been profiled,
// falling back to the supplied declared requirement otherwise — how the
// distributor consumes profiles. The fallback is declared itself, not a
// copy: a composed node's declared vector is its registry instance's,
// which no one writes.
func (p *Profiler) EstimateOr(key string, declared resource.Vector) resource.Vector {
	if est, ok := p.Estimate(key); ok && len(est) == len(declared) {
		return est
	}
	return declared
}
