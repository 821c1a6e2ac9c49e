package incident

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ubiqos/internal/admission"
	"ubiqos/internal/capacity"
	"ubiqos/internal/flight"
	"ubiqos/internal/ledger"
	"ubiqos/internal/metrics"
)

var testBase = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// obsAt is a benign observation at step i (one per second).
func obsAt(i int) Observation {
	return Observation{Now: testBase.Add(time.Duration(i) * time.Second)}
}

func burnOnlyRules() []RuleConfig {
	for _, r := range defaultRules() {
		if r.Name == RuleSLOBurn {
			return []RuleConfig{r}
		}
	}
	return nil
}

func faultOnlyRules() []RuleConfig {
	for _, r := range defaultRules() {
		if r.Name == RuleFaultStorm {
			return []RuleConfig{r}
		}
	}
	return nil
}

// TestDetectorNoFlap drives a burn rate oscillating around the open
// threshold: hysteresis (EWMA + dwell + lower close threshold) must
// open at most one incident, and it must not flap closed/open.
func TestDetectorNoFlap(t *testing.T) {
	e := newEngine(Options{}, burnOnlyRules())
	for i := 0; i < 40; i++ {
		obs := obsAt(i)
		if i%2 == 0 {
			obs.WorstBurn = 1.4
		} else {
			obs.WorstBurn = 0.9
		}
		e.Observe(obs)
	}
	list := e.List()
	if len(list) != 1 {
		t.Fatalf("oscillating burn opened %d incidents, want exactly 1", len(list))
	}
	if list[0].State == StateResolved {
		t.Fatalf("incident resolved while signal still oscillates above close threshold")
	}

	// Sustained quiet clears it; a genuine second episode opens anew.
	for i := 40; i < 60; i++ {
		obs := obsAt(i)
		obs.WorstBurn = 0.1
		e.Observe(obs)
	}
	if got := e.List(); got[0].State != StateResolved {
		t.Fatalf("state after quiet = %s, want resolved", got[0].State)
	}
	for i := 60; i < 70; i++ {
		obs := obsAt(i)
		obs.WorstBurn = 2.5
		e.Observe(obs)
	}
	list = e.List()
	if len(list) != 2 {
		t.Fatalf("second episode: %d incidents, want 2", len(list))
	}
	if list[0].ID == list[1].ID {
		t.Fatalf("second episode reused incident ID %s", list[0].ID)
	}
}

// TestLifecycleAndImpact walks one incident through
// open → mitigating → resolved and checks the cause attribution and the
// ledger-baseline impact diff.
func TestLifecycleAndImpact(t *testing.T) {
	calls := 0
	src := Sources{
		Scorecards: func() []ledger.Scorecard {
			calls++
			if calls == 1 { // open-time baseline
				return []ledger.Scorecard{{
					Class: "voice", Sessions: 2, BrokenSec: 1, DegradedSec: 0.5,
					DeficitSec: map[string]float64{"framerate": 2}, Availability: 0.9,
				}}
			}
			return []ledger.Scorecard{{
				Class: "voice", Sessions: 2, BrokenSec: 3, DegradedSec: 1.5,
				DeficitSec: map[string]float64{"framerate": 5}, Availability: 0.95,
			}}
		},
		Sessions: func() []flight.SessionInfo {
			return []flight.SessionInfo{{Session: "voice-1", Last: testBase.Add(time.Hour)}}
		},
	}
	e := newEngine(Options{Sources: src}, faultOnlyRules())

	e.Observe(obsAt(0)) // baseline for counter deltas

	obs := obsAt(1)
	obs.DevicesDown = 1
	obs.FaultsTotal = 2
	e.Observe(obs) // fault-storm has OpenDwell 1: opens here

	open, worst := e.Open()
	if open != 1 || worst != SevWarning {
		t.Fatalf("after open: open=%d worst=%s, want 1 warning", open, worst)
	}

	obs = obsAt(2)
	obs.DevicesDown = 1
	obs.FaultsTotal = 2
	obs.Recovered = 1 // recovery supervisor acted
	e.Observe(obs)
	inc := e.List()[0]
	if inc.State != StateMitigating {
		t.Fatalf("state after recovery delta = %s, want mitigating", inc.State)
	}
	if len(inc.MitigatedBy) != 1 || inc.MitigatedBy[0] != "recovery-supervisor" {
		t.Fatalf("mitigatedBy = %v", inc.MitigatedBy)
	}

	for i := 3; i < 10; i++ {
		obs := obsAt(i)
		obs.FaultsTotal = 2
		obs.Recovered = 1
		e.Observe(obs)
	}
	inc = e.List()[0]
	if inc.State != StateResolved {
		t.Fatalf("state after quiet = %s, want resolved", inc.State)
	}
	if !strings.Contains(inc.ResolutionCause, "recovery-supervisor") {
		t.Fatalf("resolution cause %q does not credit the mitigator", inc.ResolutionCause)
	}
	if inc.MitigatingAt.IsZero() || inc.ResolvedAt.IsZero() {
		t.Fatalf("lifecycle stamps missing: %+v", inc)
	}
	im := inc.Impact
	if im == nil {
		t.Fatal("resolved incident has no impact")
	}
	if im.BrokenSec != 2 || im.DegradedSec != 1 {
		t.Fatalf("broken/degraded diff = %.2f/%.2f, want 2/1", im.BrokenSec, im.DegradedSec)
	}
	if im.TotalDeficitSec != 3 || im.DeficitSec["framerate"] != 3 {
		t.Fatalf("deficit diff = %+v, want framerate 3", im.DeficitSec)
	}
	if im.SessionsAffected != 1 {
		t.Fatalf("sessionsAffected = %d, want 1", im.SessionsAffected)
	}
	if im.ClassAvailability["voice"] != 0.95 {
		t.Fatalf("classAvailability = %+v", im.ClassAvailability)
	}
	if tl := inc.Timeline; len(tl) < 3 || tl[0].State != StateOpen || tl[len(tl)-1].State != StateResolved {
		t.Fatalf("timeline = %+v", tl)
	}
}

// TestEvidenceBundle checks the bundle assembly: source citation,
// series/flight caps, trace-ID dedup.
func TestEvidenceBundle(t *testing.T) {
	entries := make([]flight.Entry, 30)
	for i := range entries {
		entries[i] = flight.Entry{
			Time: testBase.Add(time.Duration(i) * time.Millisecond), Kind: flight.KindLog,
			Session: "s1", TraceID: fmt.Sprintf("trace-%d", i%3), Message: fmt.Sprintf("e%d", i),
		}
	}
	samples := make([]capacity.Sample, 200)
	for i := range samples {
		samples[i] = capacity.Sample{T: testBase.Add(time.Duration(i) * time.Second), V: float64(i)}
	}
	src := Sources{
		Saturation: func() *capacity.Report {
			return &capacity.Report{SpaceStr: "ok", Devices: []capacity.DeviceStatus{{ID: "desktop1", Up: false}}}
		},
		SLO: func() []metrics.Status {
			return []metrics.Status{{Name: "configure-p95", State: metrics.StateViolated}}
		},
		Series:      func(metric string, window time.Duration) []capacity.Sample { return samples },
		SeriesNames: []string{metrics.SpaceHeadroom, metrics.SaturationState},
		Sessions: func() []flight.SessionInfo {
			return []flight.SessionInfo{
				{Session: "s1", Last: testBase}, {Session: "s2", Last: testBase},
				{Session: "s3", Last: testBase}, {Session: "s4", Last: testBase},
				{Session: "s5", Last: testBase}, {Session: "s6", Last: testBase},
			}
		},
		Excerpt: func(session string, from, to time.Time, max int) []flight.Entry {
			if len(entries) > max {
				return entries[len(entries)-max:]
			}
			return entries
		},
		Scorecards: func() []ledger.Scorecard {
			return []ledger.Scorecard{{Class: "voice", Sessions: 1, Availability: 0.8}}
		},
	}
	e := newEngine(Options{Sources: src}, faultOnlyRules())
	e.maxSessions, e.maxEntries = 2, 8
	e.Observe(obsAt(0))
	obs := obsAt(1)
	obs.DevicesDown = 1
	obs.FaultsTotal = 3
	obs.SLOViolations = 1
	obs.WorstBurn = 1.2
	e.Observe(obs)

	inc := e.List()[0]
	ev := inc.Evidence
	if ev == nil {
		t.Fatal("no evidence bundle")
	}
	for _, want := range []string{"slo", "saturation", "faults", "ledger", "flight"} {
		found := false
		for _, s := range ev.Sources {
			if s == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("sources %v missing %q", ev.Sources, want)
		}
	}
	if len(ev.Sources) < 3 {
		t.Fatalf("only %d sources cited", len(ev.Sources))
	}
	if len(ev.Series) != 2 {
		t.Fatalf("series excerpts = %d, want 2", len(ev.Series))
	}
	for _, s := range ev.Series {
		if len(s.Samples) != maxSeriesSamples {
			t.Fatalf("series %s has %d samples, want cap %d", s.Metric, len(s.Samples), maxSeriesSamples)
		}
	}
	if len(ev.Sessions) != 2 {
		t.Fatalf("flight excerpts = %d, want MaxSessions 2", len(ev.Sessions))
	}
	for _, fx := range ev.Sessions {
		if len(fx.Entries) != 8 {
			t.Fatalf("flight excerpt %s has %d entries, want MaxEntries 8", fx.Session, len(fx.Entries))
		}
	}
	if len(ev.TraceIDs) != 3 {
		t.Fatalf("traceIDs = %v, want 3 distinct", ev.TraceIDs)
	}
	if len(ev.Scorecards) != 1 || ev.SLO == nil || ev.Saturation == nil {
		t.Fatalf("bundle incomplete: %+v", ev)
	}

	// The rendered forms should cite the evidence too.
	pm := Postmortem(inc)
	for _, want := range []string{"# Postmortem INC-1", "## Timeline", "## Evidence", "## Resolution", "desktop1"} {
		if !strings.Contains(pm, want) {
			t.Fatalf("postmortem missing %q:\n%s", want, pm)
		}
	}
	if txt := RenderIncident(inc); !strings.Contains(txt, "sources:") {
		t.Fatalf("rendered incident missing sources:\n%s", txt)
	}
	if tbl := Render(e.List()); !strings.Contains(tbl, "INC-1") {
		t.Fatalf("rendered list missing incident:\n%s", tbl)
	}
}

// TestSeverityEscalationAndGauges: a warning incident escalates to
// critical when the signal crosses CritAt, and the labeled open gauges
// track the move.
func TestSeverityEscalationAndGauges(t *testing.T) {
	reg := metrics.NewRegistry()
	e := newEngine(Options{Metrics: reg}, burnOnlyRules())
	for i := 0; i < 4; i++ {
		obs := obsAt(i)
		obs.WorstBurn = 1.2
		e.Observe(obs)
	}
	inc := e.List()[0]
	if inc.Severity != SevWarning {
		t.Fatalf("severity = %s, want warning", inc.SeverityStr)
	}
	if v, _ := reg.LabeledGauge(metrics.IncidentsOpen, "severity").With("warning").Value(); v != 1 {
		t.Fatalf("incidents_open{warning} = %.0f, want 1", v)
	}
	for i := 4; i < 8; i++ {
		obs := obsAt(i)
		obs.WorstBurn = 6
		e.Observe(obs)
	}
	inc = e.List()[0]
	if inc.Severity != SevCritical {
		t.Fatalf("severity after spike = %s, want critical", inc.SeverityStr)
	}
	if v, _ := reg.LabeledGauge(metrics.IncidentsOpen, "severity").With("warning").Value(); v != 0 {
		t.Fatalf("incidents_open{warning} after escalation = %.0f, want 0", v)
	}
	if v, _ := reg.LabeledGauge(metrics.IncidentsOpen, "severity").With("critical").Value(); v != 1 {
		t.Fatalf("incidents_open{critical} = %.0f, want 1", v)
	}
	if v := reg.LabeledCounter(metrics.IncidentsTotal, "rule").With(RuleSLOBurn).Value(); v != 1 {
		t.Fatalf("incidents_total{slo-burn} = %d, want 1", v)
	}
}

// TestLogBound: the incident log drops the oldest incidents beyond
// its bound.
func TestLogBound(t *testing.T) {
	e := newEngine(Options{}, faultOnlyRules())
	e.maxIncidents = 3
	e.Observe(obsAt(0))
	step := 1
	for ep := 0; ep < 5; ep++ {
		for i := 0; i < 2; i++ { // open (dwell 1)
			obs := obsAt(step)
			obs.DevicesDown = 2
			step++
			e.Observe(obs)
		}
		for i := 0; i < 4; i++ { // close (dwell 2 + EWMA decay)
			obs := obsAt(step)
			step++
			e.Observe(obs)
		}
	}
	list := e.List()
	if len(list) != 3 {
		t.Fatalf("retained %d incidents, want 3", len(list))
	}
	if list[0].ID != "INC-5" {
		t.Fatalf("newest retained = %s, want INC-5", list[0].ID)
	}
	if _, ok := e.Get("INC-1"); ok {
		t.Fatal("evicted incident still retrievable")
	}
	if got, ok := e.Get("INC-5"); !ok || got.ID != "INC-5" {
		t.Fatalf("Get(INC-5) = %+v, %v", got, ok)
	}
}

// TestLogBoundKeepsOpenIncidents: past the bound the log evicts the
// oldest resolved incident, never an open one — a critical burn incident
// that stays open while three fault storms come and go must stay
// reachable by Get and List.
func TestLogBoundKeepsOpenIncidents(t *testing.T) {
	e := newEngine(Options{}, append(burnOnlyRules(), faultOnlyRules()...))
	e.maxIncidents = 2
	step := 0
	observe := func(down int) {
		obs := obsAt(step)
		obs.WorstBurn, obs.DevicesDown = 3, down
		step++
		e.Observe(obs)
	}
	observe(0)
	observe(0) // burn opens INC-1 critical (dwell 2)
	for ep := 0; ep < 3; ep++ {
		observe(2)
		observe(2) // fault storm opens (dwell 1)
		for i := 0; i < 4; i++ {
			observe(0) // and closes (dwell 2 + EWMA decay)
		}
	}
	if n, sev := e.Open(); n != 1 || sev != SevCritical {
		t.Fatalf("Open() = %d, %v; want 1 critical", n, sev)
	}
	var ids []string
	for _, inc := range e.List() {
		ids = append(ids, inc.ID)
	}
	if strings.Join(ids, ",") != "INC-4,INC-1" {
		t.Fatalf("List() = %v, want [INC-4 INC-1]", ids)
	}
	got, ok := e.Get("INC-1")
	if !ok || got.Rule != RuleSLOBurn || got.State == StateResolved {
		t.Fatalf("Get(INC-1) = %+v, %v; want the open burn incident", got, ok)
	}
	if got, _ := e.Get("INC-4"); got.State != StateResolved {
		t.Fatalf("INC-4 state = %v, want resolved", got.State)
	}
}

// TestNilEngine: every method on a nil engine is a safe no-op.
func TestNilEngine(t *testing.T) {
	var e *Engine
	e.Observe(obsAt(0))
	if e.List() != nil {
		t.Fatal("nil List not nil")
	}
	if _, ok := e.Get("INC-1"); ok {
		t.Fatal("nil Get found something")
	}
	if n, sev := e.Open(); n != 0 || sev != SevNone {
		t.Fatal("nil Open not zero")
	}
}

// TestIdleObserveAllocationFree: with no incident opening or closing,
// Observe must not allocate — it runs once per capacity sample forever.
func TestIdleObserveAllocationFree(t *testing.T) {
	reg := metrics.NewRegistry()
	e := New(Options{Metrics: reg})
	obs := obsAt(0)
	e.Observe(obs)
	e.Observe(obs)
	allocs := testing.AllocsPerRun(1000, func() {
		e.Observe(obs)
	})
	if allocs != 0 {
		t.Fatalf("idle Observe allocates %.1f objects per run, want 0", allocs)
	}
}

// TestEvidenceHookMayObserve is the regression test for the engine
// deadlocking on itself: the domain's admission hook reads the gate's
// status, which samples capacity, which feeds the engine an observation.
// The hooks therefore run with the mutex released; with it held this
// test's Observe never returns.
func TestEvidenceHookMayObserve(t *testing.T) {
	var e *Engine
	reentered := 0
	e = newEngine(Options{Sources: Sources{
		Admission: func() *admission.Status {
			reentered++
			obs := obsAt(1)
			obs.DevicesDown, obs.FaultsTotal = 1, 2
			e.Observe(obs) // the same storm, seen again from inside the hook
			e.List()
			return &admission.Status{}
		},
	}}, faultOnlyRules())
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Observe(obsAt(0))
		obs := obsAt(1)
		obs.DevicesDown, obs.FaultsTotal = 1, 2
		e.Observe(obs) // opens fault-storm and gathers evidence
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Observe did not return: an evidence hook that observes deadlocks the engine")
	}
	if reentered != 1 {
		t.Errorf("admission hook ran %d times, want once", reentered)
	}
	list := e.List()
	if len(list) != 1 || list[0].Evidence == nil || list[0].Evidence.Admission == nil {
		t.Fatalf("want one incident carrying the hook's evidence, got %+v", list)
	}
}
