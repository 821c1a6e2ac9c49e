package core

import (
	"fmt"
	"sync"
	"testing"

	"ubiqos/internal/composer"
	"ubiqos/internal/profiler"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
)

func TestProfilerOverridesDeclaredRequirements(t *testing.T) {
	// The server instance declares a wildly pessimistic requirement that
	// no device can host; the profiling service has measured its real
	// usage, so the configuration succeeds with the profiled vector.
	f := newFixture(t)
	pessimistic := f.reg.Get("audio-server-1")
	inst := *pessimistic
	inst.Resources = resource.MB(2000, 2000)
	f.reg.MustRegister(&inst)

	prof := profiler.MustNew(profiler.DefaultAlpha)
	f.cfg.Profiler = prof
	c, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Without profiles, the declared vector blocks the configuration.
	if _, err := c.Configure(Request{SessionID: "s", App: audioApp(), ClientDevice: "desktop1"}); err == nil {
		t.Fatal("pessimistic declaration should not fit anywhere")
	}
	// The monitoring service has observed the real footprint.
	for i := 0; i < 5; i++ {
		if err := prof.Observe("audio-server-1", resource.MB(60, 45)); err != nil {
			t.Fatal(err)
		}
	}
	active, err := c.Configure(Request{SessionID: "s", App: audioApp(), ClientDevice: "desktop1"})
	if err != nil {
		t.Fatalf("profiled requirements should fit: %v", err)
	}
	defer c.Stop("s")
	got := active.Graph.Node("server").Resources
	if got[resource.Memory] > 100 {
		t.Errorf("server resources = %v, want profiled ≈[60,45]", got)
	}
}

func TestLinkContentionBetweenSessions(t *testing.T) {
	// Two sessions whose server->player edge must cross the 5 Mbps
	// desktop1-pda1 link: each session reserves 1.5 Mbps... make the edge
	// heavier so the second session cannot fit. The abstract edge carries
	// 3 Mbps; two concurrent sessions need 6 > 5.
	f := newFixture(t)
	heavy := func() *composer.AbstractGraph {
		ag := composer.NewAbstractGraph()
		ag.MustAddNode(&composer.AbstractNode{ID: "server", Spec: registry.Spec{Type: "audio-server"}, Pin: "desktop1"})
		ag.MustAddNode(&composer.AbstractNode{ID: "player", Spec: registry.Spec{Type: "audio-player"}, Pin: ClientRole})
		ag.MustAddEdge("server", "player", 3)
		return ag
	}
	if _, err := f.c.Configure(Request{SessionID: "s1", App: heavy(), ClientDevice: "pda1",
		UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44)))}); err != nil {
		t.Fatal(err)
	}
	defer f.c.Stop("s1")
	// The transcoder lands on a desktop, so the cut desktop->pda carries
	// 3 Mbps; the second identical session needs another 3 on the same
	// 5 Mbps link and must be rejected.
	_, err := f.c.Configure(Request{SessionID: "s2", App: heavy(), ClientDevice: "pda1",
		UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44)))})
	if err == nil {
		t.Fatal("second session should be rejected for bandwidth")
	}
	// Stopping the first frees the link for the second.
	if err := f.c.Stop("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.c.Configure(Request{SessionID: "s2", App: heavy(), ClientDevice: "pda1",
		UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44)))}); err != nil {
		t.Fatalf("after release the session must fit: %v", err)
	}
	if err := f.c.Stop("s2"); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentConfigureStress(t *testing.T) {
	// Many goroutines configure and stop sessions concurrently; admission
	// accounting must end balanced.
	f := newFixture(t)
	before := f.dsk.Available()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("s%d", i)
			for j := 0; j < 5; j++ {
				if _, err := f.c.Configure(Request{SessionID: id, App: audioApp(), ClientDevice: "desktop1"}); err != nil {
					continue // rejected under contention: fine
				}
				if err := f.c.Stop(id); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if f.c.Sessions() != 0 {
		t.Errorf("sessions = %d", f.c.Sessions())
	}
	if !f.dsk.Available().Equal(before) {
		t.Errorf("resource leak: %v vs %v", f.dsk.Available(), before)
	}
}
