package domain

import (
	"strings"
	"testing"
	"time"

	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/distributor"
	"ubiqos/internal/eventbus"
	"ubiqos/internal/graph"
	"ubiqos/internal/resource"
)

// waitForCache polls the plan cache until the condition holds; bus
// delivery to the cache subscription is asynchronous.
func waitForCache(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// drainPlanCacheEvents fences the plan cache's lossless bus pump: the
// setup-time device.joined events from newSpace are delivered
// asynchronously and would otherwise invalidate entries stored later.
// The pump is FIFO, so once a sentinel link-change flush is observed
// every earlier event has been applied.
func drainPlanCacheEvents(t *testing.T, d *Domain) {
	t.Helper()
	g := graph.New()
	g.MustAddNode(&graph.Node{ID: "drain", Type: "component", Resources: resource.MB(1, 1)})
	w, err := resource.NewWeights(0.3, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	p := &distributor.Problem{
		Graph:     g,
		Devices:   []distributor.DeviceInfo{{ID: "drain-ghost", Avail: resource.MB(8, 8)}},
		Bandwidth: func(a, b device.ID) float64 { return 1 },
		Weights:   w,
	}
	a, cost, err := distributor.Optimal(p)
	if err != nil {
		t.Fatal(err)
	}
	d.PlanCache.Store(p, a, cost)
	d.Bus.Publish(eventbus.TopicResourceChanged, LinkChanged{A: "drain-ghost", B: "drain-ghost"})
	waitForCache(t, "bus pump drain", func() bool {
		return d.PlanCache.Stats().Entries == 0
	})
}

// TestDomainPlanCacheHit: starting, stopping, and re-starting the same
// application restores the exact pre-session resource state, so the
// second configuration is served from the plan cache without a solve.
func TestDomainPlanCacheHit(t *testing.T) {
	d := newSpace(t)
	if d.PlanCache == nil {
		t.Fatal("domain built without a plan cache")
	}
	drainPlanCacheEvents(t, d)
	first, err := d.StartApp(core.Request{SessionID: "a1", App: audioApp(), ClientDevice: "desktop1"})
	if err != nil {
		t.Fatal(err)
	}
	st := d.PlanCache.Stats()
	if st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("stats after first start %+v, want one miss and one entry", st)
	}
	if err := d.StopApp("a1"); err != nil {
		t.Fatal(err)
	}
	second, err := d.StartApp(core.Request{SessionID: "a2", App: audioApp(), ClientDevice: "desktop1"})
	if err != nil {
		t.Fatal(err)
	}
	if st := d.PlanCache.Stats(); st.Hits != 1 {
		t.Fatalf("stats after identical restart %+v, want a cache hit", st)
	}
	for node, dev := range first.Placement {
		if second.Placement[node] != dev {
			t.Errorf("cached plan placed %s on %s, original on %s", node, second.Placement[node], dev)
		}
	}
	if txt := d.Flight.Explain("a2").Render(); !strings.Contains(txt, "served from plan cache") {
		t.Errorf("explain for the cached session lacks the cache-hit line:\n%s", txt)
	}
}

// TestDomainPlanCacheInvalidatedOnFault: a device failure announced on
// the bus purges every memoized plan that involved the device.
func TestDomainPlanCacheInvalidatedOnFault(t *testing.T) {
	d := newSpace(t)
	drainPlanCacheEvents(t, d)
	s, err := d.StartApp(core.Request{SessionID: "a1", App: audioApp(), ClientDevice: "desktop1"})
	if err != nil {
		t.Fatal(err)
	}
	host := s.Placement["server"]
	if err := d.StopApp("a1"); err != nil {
		t.Fatal(err)
	}
	if st := d.PlanCache.Stats(); st.Entries != 1 {
		t.Fatalf("stats %+v, want the plan memoized", st)
	}
	if err := d.FailDevice(host); err != nil {
		t.Fatal(err)
	}
	waitForCache(t, "invalidation after device failure", func() bool {
		st := d.PlanCache.Stats()
		return st.Entries == 0 && st.Invalidations >= 1
	})
}
