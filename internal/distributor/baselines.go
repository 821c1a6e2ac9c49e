package distributor

import (
	"math/rand"
	"sync"

	"ubiqos/internal/resource"
)

// RandomAdmit is the feasibility-biased random baseline: it visits the
// components in a random order and assigns each uniformly among the
// devices that still have the end-system resources to hold it, then
// verifies the full fit-into constraints (including bandwidth). It rarely
// fails on resource constraints, but it ignores both the cost objective
// and graph locality, so its cuts are large and its cost aggregation high.
func RandomAdmit(p *Problem, rng *rand.Rand) (Assignment, float64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	a, err := p.pinnedAssignment()
	if err != nil {
		return nil, 0, err
	}
	remaining := make([]resource.Vector, len(p.Devices))
	for i, d := range p.Devices {
		remaining[i] = d.Avail.Clone()
	}
	for id, di := range a {
		remaining[di] = remaining[di].Sub(p.Graph.Node(id).Resources)
	}
	nodes := p.Graph.Nodes()
	order := rng.Perm(len(nodes))
	candidates := make([]int, 0, len(p.Devices))
	for _, oi := range order {
		n := nodes[oi]
		if _, ok := a[n.ID]; ok {
			continue
		}
		candidates = candidates[:0]
		for di := range p.Devices {
			if n.Resources.LessEq(remaining[di]) {
				candidates = append(candidates, di)
			}
		}
		if len(candidates) == 0 {
			return nil, 0, ErrInfeasible
		}
		di := candidates[rng.Intn(len(candidates))]
		a[n.ID] = di
		remaining[di] = remaining[di].Sub(n.Resources)
	}
	if err := p.FitInto(a); err != nil {
		return nil, 0, err
	}
	return a, p.CostAggregation(a), nil
}

// FirstFit is an ablation of the heuristic's component-selection rule: it
// walks the components in graph order and places each on the first device
// (in declaration order) with enough remaining resources, ignoring
// neighborhood structure. It shows how much the paper's
// largest-requirement-neighbor rule contributes.
func FirstFit(p *Problem) (Assignment, float64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	a, err := p.pinnedAssignment()
	if err != nil {
		return nil, 0, err
	}
	remaining := make([]resource.Vector, len(p.Devices))
	for i, d := range p.Devices {
		remaining[i] = d.Avail.Clone()
	}
	for id, di := range a {
		remaining[di] = remaining[di].Sub(p.Graph.Node(id).Resources)
	}
	for _, n := range p.Graph.Nodes() {
		if _, ok := a[n.ID]; ok {
			continue
		}
		placed := false
		for di := range p.Devices {
			if n.Resources.LessEq(remaining[di]) {
				a[n.ID] = di
				remaining[di] = remaining[di].Sub(n.Resources)
				placed = true
				break
			}
		}
		if !placed {
			return nil, 0, ErrInfeasible
		}
	}
	if err := p.FitInto(a); err != nil {
		return nil, 0, err
	}
	return a, p.CostAggregation(a), nil
}

// Fixed is the static baseline of the Figure 5 experiment: the placement
// for each application is computed once, against the devices' initial
// (unloaded) availability, and never recomputed — the policy "lacks
// dynamic service distribution considerations". At request time the cached
// placement is only re-checked against the current conditions.
//
// The per-application memo is bounded with the same LRU discipline as the
// PlanCache, so a long chaos drill cycling through many application keys
// cannot grow it without limit; a re-requested evicted key is simply
// recomputed against the initial availability, which is deterministic.
//
// Fixed is safe for concurrent use.
type Fixed struct {
	mu    sync.Mutex
	cache *lruCache[Assignment]
	// Initial are the devices with their initial availability used to
	// precompute placements.
	initial []DeviceInfo
}

// FixedCacheCapacity bounds the static baseline's per-application memo.
const FixedCacheCapacity = 256

// NewFixed returns a fixed policy precomputing against the given initial
// device availability.
func NewFixed(initial []DeviceInfo) *Fixed {
	cloned := make([]DeviceInfo, len(initial))
	for i, d := range initial {
		cloned[i] = DeviceInfo{ID: d.ID, Avail: d.Avail.Clone()}
	}
	return &Fixed{cache: newLRU[Assignment](FixedCacheCapacity), initial: cloned}
}

// Place returns the static placement for the application identified by
// key, computing it on first use with the heuristic against the initial
// availability, then validates it against the current problem (current
// availability and bandwidth). It fails with ErrInfeasible when the static
// placement does not fit the current conditions.
func (f *Fixed) Place(key string, p *Problem) (Assignment, float64, error) {
	f.mu.Lock()
	a, ok := f.cache.get(key)
	f.mu.Unlock()
	if !ok {
		initial := &Problem{
			Graph:     p.Graph,
			Devices:   f.initial,
			Bandwidth: p.Bandwidth,
			Weights:   p.Weights,
		}
		var err error
		a, _, err = Heuristic(initial)
		if err != nil {
			return nil, 0, err
		}
		f.mu.Lock()
		f.cache.put(key, a)
		f.mu.Unlock()
	}
	if err := p.FitInto(a); err != nil {
		return nil, 0, err
	}
	return a.Clone(), p.CostAggregation(a), nil
}
