package distributor

import (
	"fmt"
	"testing"

	"ubiqos/internal/device"
	"ubiqos/internal/graph"
	"ubiqos/internal/resource"
)

func TestLRUBasics(t *testing.T) {
	c := newLRU[int](2)
	if c.cap() != 2 || c.len() != 0 {
		t.Fatalf("fresh cache: len %d cap %d", c.len(), c.cap())
	}
	if evicted := c.put("a", 1); evicted {
		t.Fatal("first insert evicted")
	}
	c.put("b", 2)
	if _, ok := c.get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	if evicted := c.put("c", 3); !evicted {
		t.Fatal("insert past capacity did not evict")
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Fatalf("a = %d (%v), want 1", v, ok)
	}
	// Re-putting an existing key updates in place without eviction.
	if evicted := c.put("a", 10); evicted {
		t.Fatal("update of existing key evicted")
	}
	if v, _ := c.get("a"); v != 10 {
		t.Fatalf("a = %d after update, want 10", v)
	}
	if !c.delete("c") || c.delete("c") {
		t.Fatal("delete should succeed once")
	}
	if n := c.clear(); n != 1 {
		t.Fatalf("clear dropped %d entries, want 1", n)
	}
}

// TestLRURecencyOrder: a get makes its entry the most recently used, so
// evictions take the others in least-recently-used order.
func TestLRURecencyOrder(t *testing.T) {
	c := newLRU[int](3)
	c.put("a", 1)
	c.put("b", 2)
	c.put("c", 3)
	c.get("a") // a becomes MRU: b, then c, are the eviction order
	for _, step := range []struct{ put, evicted string }{{"d", "b"}, {"e", "c"}} {
		if !c.put(step.put, 0) {
			t.Fatalf("put %s evicted nothing", step.put)
		}
		if _, ok := c.get(step.evicted); ok {
			t.Fatalf("put %s kept %s, want it evicted", step.put, step.evicted)
		}
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("the most recently used entry was evicted")
	}
}

func TestLRUCapacityClamp(t *testing.T) {
	c := newLRU[int](0)
	if c.cap() != 1 {
		t.Fatalf("cap %d, want clamp to 1", c.cap())
	}
	c.put("a", 1)
	c.put("b", 2)
	if c.len() != 1 {
		t.Fatalf("len %d, want 1", c.len())
	}
}

// TestFixedCacheBounded: the static baseline's per-application memo must
// not grow past FixedCacheCapacity no matter how many application keys a
// drill cycles through, and an evicted key recomputes deterministically.
func TestFixedCacheBounded(t *testing.T) {
	g := graph.New()
	g.MustAddNode(&graph.Node{ID: "n", Type: "component", Resources: resource.MB(4, 4)})
	w, err := resource.NewWeights(0.3, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	devices := []DeviceInfo{{ID: "pc", Avail: resource.MB(96, 160)}}
	p := &Problem{
		Graph:     g,
		Devices:   devices,
		Bandwidth: func(a, b device.ID) float64 { return 40 },
		Weights:   w,
	}
	f := NewFixed(devices)
	var first Assignment
	for i := 0; i < FixedCacheCapacity+50; i++ {
		a, _, err := f.Place(fmt.Sprintf("app-%d", i), p)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = a
		}
	}
	f.mu.Lock()
	n := f.cache.len()
	f.mu.Unlock()
	if n != FixedCacheCapacity {
		t.Fatalf("memo holds %d entries, want the %d cap", n, FixedCacheCapacity)
	}
	// app-0 was evicted; re-requesting it recomputes the same placement.
	again, _, err := f.Place("app-0", p)
	if err != nil {
		t.Fatal(err)
	}
	if again["n"] != first["n"] {
		t.Fatalf("recomputed placement %v differs from original %v", again, first)
	}
}
