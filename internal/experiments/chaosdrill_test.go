package experiments

import (
	"reflect"
	"testing"
	"time"

	"ubiqos/internal/distributor"
	"ubiqos/internal/faultinject"
	"ubiqos/internal/incident"
	"ubiqos/internal/ledger"
)

// TestRunChaosDrillAcceptance runs the default chaos drill once and
// checks each view's acceptance shape on the fresh result.
func TestRunChaosDrillAcceptance(t *testing.T) {
	cfg := DefaultChaosDrillConfig()
	res, err := RunChaosDrill(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// With the seeded schedule crashing two of the five desktops
	// mid-stream, every affected session is recovered (possibly
	// degraded), none is lost, and nothing stays bound to a dead device.
	t.Run("fault", func(t *testing.T) {
		if res.Lost != 0 {
			t.Errorf("lost = %d, want 0 (result %+v)", res.Lost, res)
		}
		if res.BoundToDead != 0 {
			t.Errorf("boundToDead = %d, want 0 (placements on %v)", res.BoundToDead, res.DownDevices)
		}
		if len(res.Remaining) != res.Sessions-res.Stopped {
			t.Errorf("remaining = %v, want the %d sessions not stopped", res.Remaining, res.Sessions-res.Stopped)
		}
		// Two desktops crash and are still down; at least one hosted
		// something.
		if len(res.DownDevices) != 2 {
			t.Errorf("down devices = %v, want the 2 crash victims", res.DownDevices)
		}
		if res.Recovered == 0 {
			t.Errorf("recovered = 0; the crashes hit no session (schedule %+v)", res.Schedule)
		}
		if res.FaultsInjected != 4 {
			t.Errorf("faults injected = %d, want 4", res.FaultsInjected)
		}
		if res.RecoveryP50Ms <= 0 || res.RecoveryP95Ms < res.RecoveryP50Ms {
			t.Errorf("latency quantiles p50=%g p95=%g", res.RecoveryP50Ms, res.RecoveryP95Ms)
		}
	})

	// Once the drill settles, the ledger's counts reconcile with the
	// configurator and the supervisor: every session the configurator
	// holds (res.Remaining, read from it at the same quiescent point) is
	// live on a scorecard, and every loss on a scorecard is one the
	// supervisor decided.
	t.Run("reconcile", func(t *testing.T) {
		var live, lost int64
		for _, sc := range res.Scorecards {
			live += sc.Live
			lost += sc.Lost
		}
		if live != int64(len(res.Remaining)) {
			t.Errorf("scorecards hold %d live sessions, the configurator %d (%v)", live, len(res.Remaining), res.Remaining)
		}
		if lost != res.Lost {
			t.Errorf("scorecards count %d lost sessions, the supervisor gave up on %d", lost, res.Lost)
		}
	})

	// A scorecard for each of the three traffic classes with sane ratios
	// and non-empty per-axis deficit quantiles, plus a clean completion
	// recorded per class.
	t.Run("ledger", func(t *testing.T) {
		if err := ValidateLedgerView(res); err != nil {
			t.Fatal(err)
		}
		if res.Sessions != 3*cfg.PerClass || res.Stopped != 3 {
			t.Errorf("sessions=%d stopped=%d, want %d/3", res.Sessions, res.Stopped, 3*cfg.PerClass)
		}
		byClass := map[string]ledger.Scorecard{}
		for _, sc := range res.Scorecards {
			byClass[sc.Class] = sc
		}
		for _, cl := range res.Classes {
			sc := byClass[cl]
			// The clean stop per class must land as a completion, and every
			// scorecard must quantile the framerate axis the classes ask on.
			if sc.Completed < 1 {
				t.Errorf("class %q completed = %d, want >= 1", cl, sc.Completed)
			}
			if q, ok := sc.DeficitPerAxis["framerate"]; !ok || q.Count < int(sc.Completed) {
				t.Errorf("class %q framerate deficit quantiles = %+v", cl, sc.DeficitPerAxis)
			}
		}
		if res.FaultsInjected == 0 {
			t.Error("no faults injected; the drill exercised nothing")
		}
	})

	// An incident opens, cites at least three signal sources, passes
	// through mitigating, and resolves with nonzero impact accounting.
	t.Run("incident", func(t *testing.T) {
		if err := ValidateIncidentView(res); err != nil {
			t.Fatal(err)
		}
		if res.Sessions != 6 {
			t.Errorf("sessions = %d, want 6", res.Sessions)
		}
		if res.FaultsInjected == 0 {
			t.Error("no faults injected; the drill exercised nothing")
		}
		if res.Recovered == 0 {
			t.Error("no recoveries; the crashes hit nothing")
		}
		sc := res.Showcase
		if sc.Rule != incident.RuleFaultStorm {
			t.Logf("showcase rule = %s (fault-storm expected but not required)", sc.Rule)
		}
		if sc.Severity < incident.SevWarning {
			t.Errorf("showcase severity = %s", sc.SeverityStr)
		}
		// The list view must not duplicate the showcase's evidence bundle.
		for _, inc := range res.Incidents {
			if inc.Evidence != nil {
				t.Errorf("incident %s in the log carries an evidence bundle", inc.ID)
			}
		}
	})

	// Every incident is true against the labelled window [first fault,
	// last undo]: it overlaps the window and has resolved, and
	// fault-storm detects the window within 2 s of the first fault.
	t.Run("score", func(t *testing.T) {
		detected := false
		for _, inc := range res.Incidents {
			if inc.State != incident.StateResolved {
				t.Errorf("%s %s is %s, want resolved (opened %s after the first fault)",
					inc.ID, inc.Rule, inc.State, inc.OpenedAt.Sub(res.FirstFaultAt))
				continue
			}
			if inc.OpenedAt.After(res.LastUndoAt) || inc.ResolvedAt.Before(res.FirstFaultAt) {
				t.Errorf("%s %s [%s, %s] after the first fault misses the window [0, %s]", inc.ID, inc.Rule,
					inc.OpenedAt.Sub(res.FirstFaultAt), inc.ResolvedAt.Sub(res.FirstFaultAt), res.LastUndoAt.Sub(res.FirstFaultAt))
			}
			if d := inc.OpenedAt.Sub(res.FirstFaultAt); inc.Rule == incident.RuleFaultStorm && d >= 0 && d <= 2*time.Second {
				detected = true
			}
		}
		if !detected {
			t.Errorf("no fault-storm incident opened within 2 s of the first fault: %+v", res.Incidents)
		}
	})
}

// TestChaosScheduleDeterministic checks that the drill's schedule is pure
// data from the seed: two fresh chaos spaces give the same one.
func TestChaosScheduleDeterministic(t *testing.T) {
	cfg := DefaultChaosDrillConfig()
	var scheds [2]faultinject.Schedule
	for i := range scheds {
		dom, err := BuildChaosSpace(cfg.Scale, distributor.Optimal)
		if err != nil {
			t.Fatal(err)
		}
		scheds[i], err = chaosSchedule(dom, cfg)
		dom.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(scheds[0].Faults) != 8 {
		t.Fatalf("schedule has %d faults, want 4 plus their undos", len(scheds[0].Faults))
	}
	if !reflect.DeepEqual(scheds[0], scheds[1]) {
		t.Errorf("schedules differ:\n%+v\n%+v", scheds[0], scheds[1])
	}
}

// TestRunFaultDrillValidation checks the configs the run rejects before
// any fault view could be taken.
func TestRunFaultDrillValidation(t *testing.T) {
	if _, err := RunChaosDrill(ChaosDrillConfig{}); err == nil {
		t.Error("zero config should fail")
	}
	cfg := DefaultChaosDrillConfig()
	cfg.RecoverAfter = cfg.Window/2 - time.Nanosecond
	if _, err := RunChaosDrill(cfg); err == nil {
		t.Error("RecoverAfter < Window/2 should fail (an undo could precede a fault)")
	}
}

// TestRunLedgerDrillValidation checks the results the ledger view rejects.
func TestRunLedgerDrillValidation(t *testing.T) {
	if err := ValidateLedgerView(nil); err == nil {
		t.Error("nil result should fail the ledger view")
	}
	if err := ValidateLedgerView(&ChaosDrillResult{Classes: []string{"a"}}); err == nil {
		t.Error("too few classes should fail")
	}
	if err := ValidateLedgerView(&ChaosDrillResult{Classes: []string{"a", "b", "c"}}); err == nil {
		t.Error("missing scorecards should fail")
	}
}

// TestRunIncidentDrillValidation checks the config and the results the
// incident view rejects.
func TestRunIncidentDrillValidation(t *testing.T) {
	cfg := DefaultChaosDrillConfig()
	cfg.RecoverAfter = 0
	if _, err := RunChaosDrill(cfg); err == nil {
		t.Error("permanent faults should fail (the storm can never clear)")
	}
	if err := ValidateIncidentView(nil); err == nil {
		t.Error("nil result should fail the incident view")
	}
	if err := ValidateIncidentView(&ChaosDrillResult{}); err == nil {
		t.Error("empty result should fail")
	}
	if err := ValidateIncidentView(&ChaosDrillResult{Opened: 1, Resolved: 1}); err == nil {
		t.Error("missing showcase should fail")
	}
	bad := &ChaosDrillResult{
		Opened: 1, Resolved: 1,
		Showcase: &incident.Incident{
			ID:    "INC-1",
			State: incident.StateResolved,
		},
	}
	if err := ValidateIncidentView(bad); err == nil {
		t.Error("showcase without evidence should fail")
	}
}
