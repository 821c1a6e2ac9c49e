package distributor

import (
	"sync"

	"ubiqos/internal/device"
	"ubiqos/internal/graph"
	"ubiqos/internal/metrics"
)

// DefaultPlanCacheCapacity bounds the plan cache when the caller does not
// choose a size. Entries are small (one assignment plus a device set),
// but the LRU bound is what keeps long chaos drills from growing the
// cache without limit.
const DefaultPlanCacheCapacity = 256

// planEntry is one memoized solve. The placement is keyed by device
// identity rather than device index: the signature is device-order
// independent, so the problem that hits an entry may list the same
// devices in a different order than the problem that stored it.
type planEntry struct {
	placement map[graph.NodeID]device.ID
	cost      float64
}

// PlanCacheStats is a point-in-time snapshot of the cache counters.
type PlanCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
	Evictions     int64 `json:"evictions"`
	Entries       int   `json:"entries"`
	Capacity      int   `json:"capacity"`
}

// PlanCache memoizes solved placements keyed by the canonical problem
// signature, so re-configuring an unchanged environment costs a hash
// instead of a branch-and-bound search. Nothing invalidates an entry when
// the environment changes: the signature covers everything the solution
// depends on (graph, device availabilities, link bandwidths, weights), so
// a mutated environment looks up a different key, and the FitInto
// re-check on every hit backs that up. The LRU bound ages out the entries
// of environments that do not come back. All methods are safe for
// concurrent use.
type PlanCache struct {
	mu            sync.Mutex
	lru           *lruCache[planEntry]
	hits          int64
	misses        int64
	invalidations int64
	evictions     int64
	reg           *metrics.Registry
}

// NewPlanCache returns a cache bounded to capacity entries
// (capacity ≤ 0 selects DefaultPlanCacheCapacity).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = DefaultPlanCacheCapacity
	}
	return &PlanCache{lru: newLRU[planEntry](capacity)}
}

// Instrument attaches a metrics registry: every hit, miss, invalidation,
// and eviction bumps the plan_cache_* counters and the entry gauge. Pass
// nil to detach.
func (c *PlanCache) Instrument(reg *metrics.Registry) {
	c.mu.Lock()
	c.reg = reg
	c.mu.Unlock()
}

// count applies one outcome to the counters; callers hold c.mu.
func (c *PlanCache) count(name string, n int64) {
	if c.reg == nil || n == 0 {
		return
	}
	c.reg.Counter(name).Add(n)
	c.reg.Gauge(metrics.PlanCacheEntries).Set(float64(c.lru.len()))
}

// Lookup consults the cache for an identical problem. On a hit the
// memoized placement is remapped to the problem's own device indices and
// re-checked against the problem's FitInto as a defensive invariant (a
// mismatch drops the entry and reports a miss); the returned assignment
// is private to the caller. The signature is remembered on the problem
// for Store, so the problem must not change between the two calls.
func (c *PlanCache) Lookup(p *Problem) (Assignment, float64, bool) {
	sig, err := Signature(p)
	if err != nil {
		return nil, 0, false
	}
	p.sig.Store(&sig)
	c.mu.Lock()
	e, ok := c.lru.get(sig)
	if !ok {
		c.misses++
		c.count(metrics.PlanCacheMisses, 1)
		c.mu.Unlock()
		return nil, 0, false
	}
	assign := make(Assignment, len(e.placement))
	valid := true
	for id, dev := range e.placement {
		di := p.deviceIndex(dev)
		if di < 0 { // signature match guarantees the device exists; defensive
			valid = false
			break
		}
		assign[id] = di
	}
	cost := e.cost
	c.mu.Unlock()

	if !valid || p.FitInto(assign) != nil {
		c.mu.Lock()
		if c.lru.delete(sig) {
			c.invalidations++
			c.count(metrics.PlanCacheInvalidations, 1)
		}
		c.misses++
		c.count(metrics.PlanCacheMisses, 1)
		c.mu.Unlock()
		return nil, 0, false
	}
	c.mu.Lock()
	c.hits++
	c.count(metrics.PlanCacheHits, 1)
	c.mu.Unlock()
	return assign, cost, true
}

// Store memoizes a solved assignment under the problem's signature: the
// one a preceding Lookup of the same problem left behind, else a fresh one.
func (c *PlanCache) Store(p *Problem, a Assignment, cost float64) {
	if a == nil {
		return
	}
	sig := p.sig.Load()
	if sig == nil {
		fresh, err := Signature(p)
		if err != nil {
			return
		}
		sig = &fresh
	}
	placement := make(map[graph.NodeID]device.ID, len(a))
	for id, di := range a {
		if di < 0 || di >= len(p.Devices) {
			return // malformed assignment; never cache it
		}
		placement[id] = p.Devices[di].ID
	}
	e := planEntry{placement: placement, cost: cost}
	c.mu.Lock()
	if c.lru.put(*sig, e) {
		c.evictions++
		c.count(metrics.PlanCacheEvictions, 1)
	}
	if c.reg != nil {
		c.reg.Gauge(metrics.PlanCacheEntries).Set(float64(c.lru.len()))
	}
	c.mu.Unlock()
}

// Flush drops every entry and returns how many were held, counting them
// as invalidations; the next configure of every problem solves cold.
func (c *PlanCache) Flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.lru.clear()
	c.invalidations += int64(n)
	c.count(metrics.PlanCacheInvalidations, int64(n))
	return n
}

// Stats snapshots the counters.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
		Evictions:     c.evictions,
		Entries:       c.lru.len(),
		Capacity:      c.lru.cap(),
	}
}
