package experiments

import (
	"fmt"
	"testing"
	"time"

	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/incident"
)

// quickFlashCrowdConfig shrinks the drill for the test suite: same 5×
// arrival-rate spike, fewer sessions and shorter holds.
func quickFlashCrowdConfig() FlashCrowdConfig {
	cfg := DefaultFlashCrowdConfig(true)
	cfg.Steady = 5
	cfg.Crowd = 30
	cfg.VoiceHold = 500 * time.Millisecond
	cfg.CrowdHold = 250 * time.Millisecond
	return cfg
}

// TestFlashCrowdClosedLoop: the drill's acceptance criterion — a 5×
// spike costs zero sessions to capacity exhaustion and leaves the
// configure-latency SLO unburned, with the pressure absorbed as
// controlled rejections/degradations. Subtest
// "open" is the contrast: the same spike against the paper's open-loop
// configurator loses sessions to capacity and burns the SLO on first-use
// downloads.
func TestFlashCrowdClosedLoop(t *testing.T) {
	res, err := RunFlashCrowd(quickFlashCrowdConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("closed loop: %+v, configure burn %.2f", res.Classes, res.ConfigureBurn)
	if res.LostToCapacity != 0 {
		t.Errorf("lost %d sessions to capacity exhaustion, want 0 (%+v)", res.LostToCapacity, res.Classes)
	}
	if res.ConfigureBurn > 1 {
		t.Errorf("configure SLO burned: %.2f > 1", res.ConfigureBurn)
	}
	if !res.MeetsCriterion {
		t.Errorf("criterion not met: %+v", res)
	}
	offered := 0
	for _, c := range res.Classes {
		if c.Offered != c.Admitted+c.Degraded+c.Rejected+c.LostToCapacity {
			t.Errorf("class %s tally does not add up: %+v", c.Class, c)
		}
		offered += c.Offered
	}
	// Spike interleaving adds one voice arrival per Crowd/Steady crowd
	// arrivals: 30/(30/5) = 5 extras.
	if want := 30 + 5 + 5; offered != want {
		t.Errorf("offered = %d, want %d", offered, want)
	}
	t.Run("score", func(t *testing.T) { scoreFlashCrowd(t, res, quickFlashCrowdConfig().CrowdHold) })

	t.Run("open", func(t *testing.T) {
		cfg := quickFlashCrowdConfig()
		cfg.ClosedLoop = false
		res, err := RunFlashCrowd(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("open loop: lost %d to capacity, configure burn %.2f", res.LostToCapacity, res.ConfigureBurn)
		if res.LostToCapacity == 0 {
			t.Errorf("open loop lost no session to capacity; the spike does not overload the space (%+v)", res.Classes)
		}
		if res.ConfigureBurn <= 1 {
			t.Errorf("open loop left the configure SLO unburned (%.2f); first-use downloads are not being paid", res.ConfigureBurn)
		}
		t.Run("score", func(t *testing.T) { scoreFlashCrowd(t, res, cfg.CrowdHold) })
	})
}

// scoreFlashCrowd holds a run's incidents to its labels. The overload
// window is [first crowd arrival, last crowd arrival + hold]: saturation
// opens inside it, never before, and resolves. The SLO window is the
// whole run when the configure SLO burned (the open loop) and empty
// otherwise: slo-burn opens exactly when it burned. No other rule opens.
func scoreFlashCrowd(t *testing.T, res *FlashCrowdResult, hold time.Duration) {
	overloadEnd := res.SpikeEnd.Add(hold)
	saturation, burn := 0, 0
	for _, inc := range res.Incidents {
		at := inc.OpenedAt.Sub(res.SpikeStart)
		switch inc.Rule {
		case incident.RuleSaturation:
			saturation++
			if inc.OpenedAt.Before(res.SpikeStart) || inc.OpenedAt.After(overloadEnd) {
				t.Errorf("%s saturation opened %s into the spike, outside the overload window [0, %s]",
					inc.ID, at, overloadEnd.Sub(res.SpikeStart))
			}
			if inc.State != incident.StateResolved {
				t.Errorf("%s saturation opened %s into the spike is %s, want resolved", inc.ID, at, inc.State)
			}
		case incident.RuleSLOBurn:
			burn++
		default:
			t.Errorf("%s %s opened %s into the spike; only saturation and slo-burn have a window here", inc.ID, inc.Rule, at)
		}
	}
	if saturation == 0 {
		t.Errorf("no saturation incident detected the overload: %+v", res.Incidents)
	}
	if burned := res.ConfigureBurn > 1; burned != (burn > 0) {
		t.Errorf("configure burn %.2f with %d slo-burn incident(s)", res.ConfigureBurn, burn)
	}
}

// TestCrowdSpaceBaselinePaysDownloads: the open-loop space leaves the
// server package uninstalled, so the first session on a device pays the
// modeled download — the latency the closed loop's pre-installation
// removes.
func TestCrowdSpaceBaselinePaysDownloads(t *testing.T) {
	dom, err := BuildCrowdSpace(0.001, false)
	if err != nil {
		t.Fatal(err)
	}
	defer dom.Close()
	active, err := dom.StartApp(core.Request{
		SessionID: "dl-1", Class: "voice", App: CrowdVoiceApp(), ClientDevice: "portal",
	})
	if err != nil {
		t.Fatal(err)
	}
	if active.Timing.Downloading <= 0 {
		t.Fatalf("baseline session paid no download (timing %+v)", active.Timing)
	}
	if dom.Admission != nil {
		t.Fatal("baseline space must not wire the gate")
	}
}

// TestCrowdSpaceClosedLoopPreInstalls: the closed-loop space registers
// the baseline's instances and installs every package on every device,
// the portal included, so an admitted session of either class pays no
// download wherever it is placed.
func TestCrowdSpaceClosedLoopPreInstalls(t *testing.T) {
	dom, err := BuildCrowdSpace(0.001, true)
	if err != nil {
		t.Fatal(err)
	}
	defer dom.Close()
	for _, in := range crowdInstances() {
		if dom.Registry.Get(in.Name) == nil {
			t.Errorf("instance %s not registered", in.Name)
		}
		for _, dev := range dom.Devices.All() {
			if !dom.Repo.Installed(string(dev.ID), in.Name) {
				t.Errorf("package %s not pre-installed on %s", in.Name, dev.ID)
			}
		}
	}
	for i, app := range []*composer.AbstractGraph{CrowdVoiceApp(), CrowdApp()} {
		active, err := dom.StartApp(core.Request{
			SessionID: fmt.Sprintf("warm-%d", i), Class: "voice", App: app, ClientDevice: "portal",
		})
		if err != nil {
			t.Fatal(err)
		}
		if active.Timing.Downloading != 0 {
			t.Fatalf("pre-installed session %s still downloaded (timing %+v, placement %v)", active.ID, active.Timing, active.Placement)
		}
	}
}
