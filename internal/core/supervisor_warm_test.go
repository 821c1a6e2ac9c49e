package core

import (
	"strings"
	"testing"
	"time"

	"ubiqos/internal/device"
	"ubiqos/internal/distributor"
	"ubiqos/internal/eventbus"
	"ubiqos/internal/explain"
	"ubiqos/internal/flight"
	"ubiqos/internal/graph"
	"ubiqos/internal/ledger"
	"ubiqos/internal/metrics"
)

// TestSupervisorWarmRecovery is the end-to-end warm-start contract: after
// a device crash the supervisor's full-quality rung re-solves from the
// broken session's incumbent, components that did not sit on the dead
// device stay where they were, and the warm path is visible in the
// provenance trail and the metrics registry.
func TestSupervisorWarmRecovery(t *testing.T) {
	f := newSuperFixture(t)
	// The warm rung needs an exact initial solve (so the session carries a
	// real explored-node count for the speedup gauge) and a recorder to
	// audit the decision trail.
	rec := flight.New(ledger.Options{})
	f.cfg.Place = distributor.Optimal
	f.cfg.Observer = &recorder{met: f.met, explain: rec}
	c, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.c = c
	sup, err := NewSupervisor(f.c, fastOpts(f.bus))
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	if _, err := f.c.Configure(pdaRequest("a1")); err != nil {
		t.Fatal(err)
	}
	initial := f.c.Session("a1")
	if initial.SearchExplored == 0 {
		t.Fatal("exact solve reported zero explored nodes")
	}
	before := make(map[graph.NodeID]device.ID, len(initial.Placement))
	for node, dev := range initial.Placement {
		before[node] = dev
	}
	beforeCost := initial.Cost
	serverDev := before["server"]
	if serverDev == "pda1" {
		t.Fatal("server unexpectedly on the PDA")
	}

	f.cfg.Devices.Get(serverDev).SetUp(false)
	f.bus.Publish(eventbus.TopicDeviceLeft, string(serverDev))

	if !sup.AwaitIdle(5 * time.Second) {
		t.Fatal("supervisor did not settle")
	}
	active := f.c.Session("a1")
	if active == nil {
		t.Fatal("session lost; want recovered")
	}
	for node, dev := range active.Placement {
		if dev == serverDev {
			t.Errorf("component %s still bound to dead device %s", node, dev)
		}
	}
	// The O(change) promise: components that were not on the crashed
	// device must not move.
	for node, dev := range before {
		if dev == serverDev {
			continue
		}
		if got := active.Placement[node]; got != dev {
			t.Errorf("unaffected component %s moved %s → %s during recovery", node, dev, got)
		}
	}

	// Provenance: the ladder step and the recover record both carry the
	// warm-start evidence.
	se := rec.Explain("a1")
	if se == nil {
		t.Fatal("no explain state for the session")
	}
	var ladder *explain.LadderStep
	warmSearch := false
	for i := range se.Records {
		r := &se.Records[i]
		if r.Action == explain.ActionRecoveryStep && r.Ladder != nil {
			ladder = r.Ladder
		}
		if r.Search != nil && r.Search.Warm && r.Search.Reused > 0 {
			warmSearch = true
		}
	}
	if ladder == nil {
		t.Fatal("no recovery-step record with a ladder entry")
	}
	if !ladder.Warm || ladder.PlacementFallback != "optimal-warm" || ladder.Outcome != "recovered" {
		t.Errorf("ladder step %+v, want a warm optimal-warm recovery", ladder)
	}
	if ladder.SeedCost != beforeCost {
		t.Errorf("ladder seed cost %v, want the incumbent cost %v", ladder.SeedCost, beforeCost)
	}
	if !warmSearch {
		t.Error("no recover record with a warm search that reused placements")
	}
	if txt := rec.Explain("a1").Render(); !strings.Contains(txt, "warm-started from incumbent cost") {
		t.Errorf("rendered explain lacks the warm-start line:\n%s", txt)
	}

	// Metrics: the warm counter ticked and the speedup gauge compares the
	// incumbent-producing solve with the warm re-solve.
	if v := f.met.Counter(metrics.WarmSolves).Value(); v < 1 {
		t.Errorf("%s = %d, want ≥ 1", metrics.WarmSolves, v)
	}
	if v, ok := f.met.Gauge(metrics.WarmSpeedup).Value(); !ok || v <= 0 {
		t.Errorf("%s = %v (set=%v), want a positive ratio", metrics.WarmSpeedup, v, ok)
	}
}
