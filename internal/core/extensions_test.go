package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ubiqos/internal/composer"
	"ubiqos/internal/profiler"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
)

func TestDegradeVector(t *testing.T) {
	v := qos.V(
		qos.P(qos.DimFrameRate, qos.Range(20, 40)),
		qos.P(qos.DimResolution, qos.Scalar(1600)),
		qos.P(qos.DimFormat, qos.Symbol("MPEG")),
	)
	d := degradeVector(v, 0.5)
	if got, _ := d.Get(qos.DimFrameRate); !got.Equal(qos.Range(10, 20)) {
		t.Errorf("framerate = %v", got)
	}
	if got, _ := d.Get(qos.DimResolution); !got.Equal(qos.Scalar(800)) {
		t.Errorf("resolution = %v", got)
	}
	if got, _ := d.Get(qos.DimFormat); !got.Equal(qos.Symbol("MPEG")) {
		t.Errorf("format must not degrade: %v", got)
	}
	// The input is untouched.
	if got, _ := v.Get(qos.DimResolution); !got.Equal(qos.Scalar(1600)) {
		t.Error("degradeVector mutated its input")
	}
}

func TestDegradationLadderAdmitsLowerQuality(t *testing.T) {
	// The user demands [45,50] fps but every player tops out at 44: the
	// full-quality composition fails, and the 0.75 rung lands the request
	// in [33.75, 37.5], which the environment can serve.
	f := newFixture(t)
	f.cfg.DegradeFactors = []float64{0.75, 0.5}
	c, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	active, err := c.Configure(Request{
		SessionID:    "s",
		App:          audioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(45, 50))),
		ClientDevice: "pda1",
	})
	if err != nil {
		t.Fatalf("degradation ladder should admit the session: %v", err)
	}
	defer c.Stop("s")
	if active.DegradeFactor != 0.75 {
		t.Errorf("DegradeFactor = %g, want 0.75", active.DegradeFactor)
	}
	req, _ := active.Graph.Node("player").In.Get(qos.DimFrameRate)
	if !req.Equal(qos.Range(45*0.75, 50*0.75)) {
		t.Errorf("degraded sink requirement = %v", req)
	}
}

func TestDegradationNotAppliedWhenFullQualityFits(t *testing.T) {
	f := newFixture(t)
	f.cfg.DegradeFactors = []float64{0.5}
	c, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	active, err := c.Configure(Request{
		SessionID:    "s",
		App:          audioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(35, 44))),
		ClientDevice: "desktop1",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop("s")
	if active.DegradeFactor != 1 {
		t.Errorf("DegradeFactor = %g, want 1 (no degradation needed)", active.DegradeFactor)
	}
}

func TestDegradationSkipsMissingServices(t *testing.T) {
	// Missing mandatory services are a discovery problem, not a quality
	// problem: the ladder must not mask the user notification.
	f := newFixture(t)
	f.cfg.DegradeFactors = []float64{0.5}
	c, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	ag := composer.NewAbstractGraph()
	ag.MustAddNode(&composer.AbstractNode{ID: "x", Spec: registry.Spec{Type: "hologram"}})
	_, err = c.Configure(Request{
		SessionID:    "s",
		App:          ag,
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(10, 20))),
		ClientDevice: "desktop1",
	})
	var miss *composer.MissingServiceError
	if !errors.As(err, &miss) {
		t.Errorf("err = %v, want MissingServiceError to surface", err)
	}
}

func TestDegradationIgnoresInvalidFactors(t *testing.T) {
	f := newFixture(t)
	f.cfg.DegradeFactors = []float64{0, 1.5, -2} // all invalid: no rungs
	c, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Configure(Request{
		SessionID:    "s",
		App:          audioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(100, 120))),
		ClientDevice: "desktop1",
	})
	if err == nil {
		t.Error("invalid factors must not admit the impossible request")
	}
}

// TestDegradationSkipsInvalidUserQoS: an inverted range, which a wire
// client can send, fails validation at full quality; the ladder runs no
// rung (degrading it used to panic in qos.Range) and returns that error.
func TestDegradationSkipsInvalidUserQoS(t *testing.T) {
	f := newFixture(t)
	f.cfg.DegradeFactors = []float64{0.5}
	c, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Configure(Request{
		SessionID:    "s",
		App:          audioApp(),
		UserQoS:      qos.Vector{{Name: qos.DimFrameRate, Value: qos.Value{Kind: qos.KindRange, Lo: 40, Hi: 10}}},
		ClientDevice: "desktop1",
	})
	if err == nil || !strings.Contains(err.Error(), "invalid range value") {
		t.Errorf("err = %v, want the full-quality attempt's validation error", err)
	}
	if c.Session("s") != nil {
		t.Error("a session was admitted")
	}
}

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
