package experiments

import (
	"testing"

	"ubiqos/internal/incident"
)

// TestRunIncidentDrillAcceptance runs the default incident drill and
// checks its acceptance shape on the fresh result: an incident
// opens, cites at least three signal sources, passes through
// mitigating, and resolves with nonzero impact accounting.
func TestRunIncidentDrillAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second chaos drill")
	}
	res, err := RunIncidentDrill(DefaultIncidentDrillConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateIncidentDrill(res); err != nil {
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
}

func TestRunIncidentDrillValidation(t *testing.T) {
	if _, err := RunIncidentDrill(IncidentDrillConfig{}); err == nil {
		t.Error("zero config should fail")
	}
	cfg := DefaultIncidentDrillConfig()
	cfg.RecoverAfter = 0
	if _, err := RunIncidentDrill(cfg); err == nil {
		t.Error("permanent faults should fail (the storm can never clear)")
	}
	if err := ValidateIncidentDrill(nil); err == nil {
		t.Error("nil result should fail")
	}
	if err := ValidateIncidentDrill(&IncidentDrillResult{}); err == nil {
		t.Error("empty result should fail")
	}
	if err := ValidateIncidentDrill(&IncidentDrillResult{Opened: 1, Resolved: 1}); err == nil {
		t.Error("missing showcase should fail")
	}
	bad := &IncidentDrillResult{
		Opened: 1, Resolved: 1,
		Showcase: &incident.Incident{
			ID:    "INC-1",
			State: incident.StateResolved,
		},
	}
	if err := ValidateIncidentDrill(bad); err == nil {
		t.Error("showcase without evidence should fail")
	}
}
