package domain

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/distributor"
	"ubiqos/internal/graph"
	"ubiqos/internal/netsim"
	"ubiqos/internal/resource"
)

// TestDomainPlanCacheHit: starting, stopping, and re-starting the same
// application restores the exact pre-session resource state, so the
// second configuration is served from the plan cache without a solve.
func TestDomainPlanCacheHit(t *testing.T) {
	d := newSpace(t)
	if d.PlanCache == nil {
		t.Fatal("domain built without a plan cache")
	}
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

// TestDomainPlanCacheMatchesUncached: nothing invalidates the plan cache
// when the space changes, and nothing needs to. Across a run of device
// failures, rejoins, link degradations and restores and device resizes,
// every configure — served from the cache or solved — places and costs
// exactly what the same request does in the same state with the cache
// bypassed (a per-request placer skips it). The undo steps bring earlier
// states back, so configures there hit plans stored before the fault.
func TestDomainPlanCacheMatchesUncached(t *testing.T) {
	d := newSpace(t)
	var link netsim.Link
	steps := []struct {
		name string
		do   func() error
	}{
		{"initial", func() error { return nil }},
		{"fail desktop2", func() error { return d.FailDevice("desktop2") }},
		{"rejoin desktop2", func() error { return d.RejoinDevice("desktop2") }},
		{"degrade desktop1-pda1", func() (err error) {
			link, err = d.DegradeLink("desktop1", "pda1", 0.5)
			return err
		}},
		{"restore desktop1-pda1", func() error { return d.RestoreLink("desktop1", "pda1", link) }},
		{"shrink desktop1", func() error {
			_, err := d.Devices.Get("desktop1").Resize(resource.MB(200, 450))
			return err
		}},
		{"fail desktop1", func() error { return d.FailDevice("desktop1") }},
		{"rejoin desktop1", func() error { return d.RejoinDevice("desktop1") }},
		{"regrow desktop1", func() error {
			_, err := d.Devices.Get("desktop1").Resize(resource.MB(256, 500))
			return err
		}},
		{"fail pda1", func() error { return d.FailDevice("pda1") }},
		{"rejoin pda1", func() error { return d.RejoinDevice("pda1") }},
	}
	configure := func(req core.Request) (map[graph.NodeID]device.ID, float64, error) {
		s, err := d.StartApp(req)
		if err != nil {
			return nil, 0, err
		}
		if err := d.StopApp(req.SessionID); err != nil {
			t.Fatal(err)
		}
		return s.Placement, s.Cost, nil
	}
	n := 0
	for _, step := range steps {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		hitsBefore := d.PlanCache.Stats().Hits
		for _, client := range []device.ID{"desktop1", "desktop2", "pda1"} {
			for round := 0; round < 2; round++ {
				n++
				req := core.Request{SessionID: fmt.Sprintf("c%d", n), App: audioApp(), ClientDevice: client}
				placement, cost, err := configure(req)
				req.SessionID, req.Place = fmt.Sprintf("u%d", n), distributor.Heuristic
				wantPlacement, wantCost, wantErr := configure(req)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%s, client %s: with the cache err %v, without %v", step.name, client, err, wantErr)
				}
				if !reflect.DeepEqual(placement, wantPlacement) || cost != wantCost {
					t.Fatalf("%s, client %s, round %d: with the cache %v at cost %v, without %v at cost %v",
						step.name, client, round, placement, cost, wantPlacement, wantCost)
				}
			}
		}
		if d.PlanCache.Stats().Hits == hitsBefore {
			t.Errorf("%s: no configure was served from the cache", step.name)
		}
	}
	if st := d.PlanCache.Stats(); st.Invalidations != 0 {
		t.Errorf("stats %+v: a plan failed its re-check", st)
	}
}
