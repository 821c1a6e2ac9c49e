package resource

import "fmt"

// Normalizer converts raw resource vectors measured on a heterogeneous
// device into benchmark-machine units (§3.3 of the paper). Memory-like
// dimensions are unaffected by device heterogeneity (factor 1); CPU-like
// dimensions scale by the speed ratio between the device and the benchmark
// machine. The paper's example: with a laptop benchmark, a PDA's
// [32MB, 100%] becomes [32MB, 40%] and a PC's [256MB, 100%] becomes
// [256MB, 500%].
type Normalizer struct {
	// Factors holds the per-dimension multiplier from device-local units to
	// benchmark units.
	Factors Vector
}

// NewNormalizer builds a normalizer from per-dimension factors. A factor of
// 1 means the dimension is heterogeneity-independent.
func NewNormalizer(factors ...float64) (*Normalizer, error) {
	for i, f := range factors {
		if f <= 0 {
			return nil, fmt.Errorf("resource: normalization factor %d must be positive, got %g", i, f)
		}
	}
	return &Normalizer{Factors: Vector(factors).Clone()}, nil
}

// SpeedNormalizer returns the conventional two-dimensional normalizer for a
// device whose CPU runs at speedRatio times the benchmark machine's speed.
// Memory is unaffected.
func SpeedNormalizer(speedRatio float64) (*Normalizer, error) {
	return NewNormalizer(1, speedRatio)
}

// Availability converts a device-local availability vector RA into
// benchmark units: N(RA)_i = factor_i · RA_i. A faster device exposes more
// benchmark-equivalent CPU.
func (n *Normalizer) Availability(ra Vector) Vector {
	mustSameDim(ra, n.Factors)
	out := make(Vector, len(ra))
	for i := range ra {
		out[i] = ra[i] * n.Factors[i]
	}
	return out
}
