package experiments

import (
	"testing"
	"time"

	"ubiqos/internal/core"
	"ubiqos/internal/ledger"
)

// TestRunLedgerDrillAcceptance runs the default ledger drill and checks
// its acceptance shape on the fresh result: a scorecard for each of
// the three traffic classes with sane ratios and non-empty per-axis
// deficit quantiles, plus a clean completion recorded per class.
func TestRunLedgerDrillAcceptance(t *testing.T) {
	cfg := DefaultLedgerDrillConfig()
	cfg.Supervisor = core.SupervisorOptions{
		BaseBackoff: time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
	}
	res, err := RunLedgerDrill(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateLedgerDrill(res); err != nil {
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
}

func TestRunLedgerDrillValidation(t *testing.T) {
	if _, err := RunLedgerDrill(LedgerDrillConfig{}); err == nil {
		t.Error("zero config should fail")
	}
	if err := ValidateLedgerDrill(nil); err == nil {
		t.Error("nil result should fail")
	}
	if err := ValidateLedgerDrill(&LedgerDrillResult{Classes: []string{"a"}}); err == nil {
		t.Error("too few classes should fail")
	}
	if err := ValidateLedgerDrill(&LedgerDrillResult{Classes: []string{"a", "b", "c"}}); err == nil {
		t.Error("missing scorecards should fail")
	}
}
