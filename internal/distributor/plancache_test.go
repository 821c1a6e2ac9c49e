package distributor

import (
	"sync"
	"testing"

	"ubiqos/internal/device"
	"ubiqos/internal/graph"
	"ubiqos/internal/metrics"
	"ubiqos/internal/resource"
)

// cacheProblem builds a small solvable instance whose identity can be
// varied through the salt (distinct salts → distinct signatures).
func cacheProblem(t *testing.T, salt float64) *Problem {
	t.Helper()
	g := graph.New()
	g.MustAddNode(&graph.Node{ID: "src", Type: "component", Resources: resource.MB(8+salt, 12)})
	g.MustAddNode(&graph.Node{ID: "snk", Type: "component", Resources: resource.MB(4, 6)})
	g.MustAddEdge("src", "snk", 1.5)
	w, err := resource.NewWeights(0.3, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{
		Graph: g,
		Devices: []DeviceInfo{
			{ID: "pc", Avail: resource.MB(96, 160)},
			{ID: "pda", Avail: resource.MB(32, 90)},
		},
		Bandwidth: func(a, b device.ID) float64 { return 40 },
		Weights:   w,
	}
}

// TestPlanCacheMissHashesOnce: Lookup leaves the key it computed on the
// problem and Store files the plan under it, where an equal problem built
// separately finds it.
func TestPlanCacheMissHashesOnce(t *testing.T) {
	c := NewPlanCache(8)
	p, twin := cacheProblem(t, 0), cacheProblem(t, 0)
	if _, _, ok := c.Lookup(p); ok {
		t.Fatal("hit on empty cache")
	}
	want, err := Signature(p)
	if err != nil {
		t.Fatal(err)
	}
	if left := p.sig.Load(); left == nil || *left != want {
		t.Fatalf("Lookup left key %v on the problem, want %s", left, want)
	}
	_, cost := solveAndStore(t, c, p)
	if _, got, ok := c.Lookup(twin); !ok || got != cost {
		t.Errorf("equal problem: hit %v cost %v, want a hit at %v", ok, got, cost)
	}
}

func solveAndStore(t *testing.T, c *PlanCache, p *Problem) (Assignment, float64) {
	t.Helper()
	a, cost, err := Optimal(p)
	if err != nil {
		t.Fatal(err)
	}
	c.Store(p, a, cost)
	return a, cost
}

func TestPlanCacheHitAndMiss(t *testing.T) {
	c := NewPlanCache(8)
	p := cacheProblem(t, 0)
	if _, _, ok := c.Lookup(p); ok {
		t.Fatal("lookup on an empty cache hit")
	}
	a, cost := solveAndStore(t, c, p)
	got, gotCost, ok := c.Lookup(p)
	if !ok {
		t.Fatal("lookup after store missed")
	}
	if gotCost != cost {
		t.Fatalf("cached cost %v, want %v", gotCost, cost)
	}
	for id, di := range a {
		if got[id] != di {
			t.Fatalf("cached assignment %v, want %v", got, a)
		}
	}
	// The returned assignment is private: mutating it must not corrupt
	// the cache.
	got["src"] = 99
	again, _, ok := c.Lookup(p)
	if !ok || again["src"] == 99 {
		t.Fatal("cache entry aliased to the caller's copy")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 2 hits / 1 miss / 1 entry", st)
	}
}

// TestPlanCachePermutedDevices: the signature is device-order
// independent, so a problem listing the same devices in another order
// must hit — and the remapped assignment must name the same device
// identities, not the same indices.
func TestPlanCachePermutedDevices(t *testing.T) {
	c := NewPlanCache(8)
	p := cacheProblem(t, 0)
	a, _ := solveAndStore(t, c, p)

	perm := cacheProblem(t, 0)
	perm.Devices = []DeviceInfo{perm.Devices[1], perm.Devices[0]}
	got, _, ok := c.Lookup(perm)
	if !ok {
		t.Fatal("device-order permutation missed the cache")
	}
	for id, di := range a {
		if perm.Devices[got[id]].ID != p.Devices[di].ID {
			t.Fatalf("node %s remapped to %s, want %s", id, perm.Devices[got[id]].ID, p.Devices[di].ID)
		}
	}
	if err := perm.FitInto(got); err != nil {
		t.Fatalf("remapped assignment does not fit: %v", err)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	c := NewPlanCache(2)
	p0, p1, p2 := cacheProblem(t, 0), cacheProblem(t, 1), cacheProblem(t, 2)
	solveAndStore(t, c, p0)
	solveAndStore(t, c, p1)
	if _, _, ok := c.Lookup(p0); !ok { // refresh p0: p1 becomes LRU
		t.Fatal("p0 should be cached")
	}
	solveAndStore(t, c, p2) // evicts p1
	if _, _, ok := c.Lookup(p1); ok {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if _, _, ok := c.Lookup(p0); !ok {
		t.Fatal("recently-used entry was evicted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("stats %+v, want 1 eviction and 2/2 entries", st)
	}
}

// TestPlanCacheFlush: Flush empties the cache, counting each entry as an
// invalidation, and the next lookup misses.
func TestPlanCacheFlush(t *testing.T) {
	c := NewPlanCache(8)
	p := cacheProblem(t, 0)
	solveAndStore(t, c, p)
	if n := c.Flush(); n != 1 {
		t.Fatalf("flushed %d entries, want 1", n)
	}
	if st := c.Stats(); st.Entries != 0 || st.Invalidations != 1 {
		t.Fatalf("stats %+v after flush, want no entries and 1 invalidation", st)
	}
	if _, _, ok := c.Lookup(p); ok {
		t.Fatal("entry survived the flush")
	}
}

// TestPlanCacheRejectsUnfitEntry: the defensive FitInto re-check drops a
// memoized plan that does not fit the problem, reporting a miss.
func TestPlanCacheRejectsUnfitEntry(t *testing.T) {
	c := NewPlanCache(8)
	p := cacheProblem(t, 0)
	bad := Assignment{"src": 1, "snk": 1} // pda cannot hold both
	p.Devices[1].Avail = resource.MB(10, 10)
	c.Store(p, bad, 1.0)
	if _, _, ok := c.Lookup(p); ok {
		t.Fatal("unfit cached plan was served")
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Entries != 0 {
		t.Fatalf("stats %+v, want the unfit entry invalidated", st)
	}
}

// TestPlanCacheConcurrency hammers the cache from lookup/store goroutines
// while another flushes it; run it under -race.
func TestPlanCacheConcurrency(t *testing.T) {
	c := NewPlanCache(4)
	c.Instrument(metrics.NewRegistry())

	problems := make([]*Problem, 6)
	assigns := make([]Assignment, 6)
	costs := make([]float64, 6)
	for i := range problems {
		problems[i] = cacheProblem(t, float64(i))
		a, cost, err := Optimal(problems[i])
		if err != nil {
			t.Fatal(err)
		}
		assigns[i], costs[i] = a, cost
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (w + i) % len(problems)
				if a, cost, ok := c.Lookup(problems[k]); ok {
					if cost != costs[k] || len(a) != len(assigns[k]) {
						t.Errorf("corrupted entry for problem %d", k)
						return
					}
				} else {
					c.Store(problems[k], assigns[k], costs[k])
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			c.Flush()
			c.Stats()
		}
	}()
	wg.Wait()
}

func TestPlanCacheMetricsWiring(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewPlanCache(8)
	c.Instrument(reg)
	p := cacheProblem(t, 0)
	c.Lookup(p) // miss
	solveAndStore(t, c, p)
	c.Lookup(p) // hit
	c.Flush()
	if v := reg.Counter(metrics.PlanCacheHits).Value(); v != 1 {
		t.Errorf("plan_cache_hits_total = %d, want 1", v)
	}
	if v := reg.Counter(metrics.PlanCacheMisses).Value(); v != 1 {
		t.Errorf("plan_cache_misses_total = %d, want 1", v)
	}
	if v := reg.Counter(metrics.PlanCacheInvalidations).Value(); v != 1 {
		t.Errorf("plan_cache_invalidations_total = %d, want 1", v)
	}
	if g, ok := reg.Gauge(metrics.PlanCacheEntries).Value(); !ok || g != 0 {
		t.Errorf("plan_cache_entries = %v (%v), want 0 after flush", g, ok)
	}
}
