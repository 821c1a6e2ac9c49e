package experiments

import (
	"fmt"
	"time"

	"ubiqos/internal/core"
	"ubiqos/internal/distributor"
	"ubiqos/internal/faultinject"
	"ubiqos/internal/incident"
	"ubiqos/internal/metrics"
)

// IncidentDrillConfig parameterizes the incident-correlation chaos
// drill: mixed-class audio sessions stream on the chaos space, a seeded
// fault schedule (with paired undos, so the storm clears) hits
// mid-stream, and the incident correlation engine is watched end to end
// — open, mitigating, resolved — while a poller measures how long
// detection takes from the first applied fault.
type IncidentDrillConfig struct {
	// Scale is the emulation time scale. The default is deliberately
	// slower than the ledger drill's: the observatory samples on a
	// real-time cadence, so the fault window must span several passes.
	Scale float64
	// PerClass is how many sessions to start in each traffic class.
	PerClass int
	// Seed drives the fault schedule and the supervisor's retry jitter.
	Seed int64
	// Crashes, Degrades, Stalls count the scheduled faults per kind.
	Crashes  int
	Degrades int
	Stalls   int
	// Window is the modeled span the faults are spread over.
	Window time.Duration
	// RecoverAfter delays each fault's paired undo. It must be positive:
	// the drill needs the storm to clear so incidents resolve.
	RecoverAfter time.Duration
	// DetectTimeout / ResolveTimeout bound (in wall-clock time) how long
	// the drill waits for the first incident to open and for one to
	// resolve.
	DetectTimeout  time.Duration
	ResolveTimeout time.Duration
	// Supervisor overrides the recovery supervisor's tuning; its Bus and
	// Seed are filled in by RunIncidentDrill.
	Supervisor core.SupervisorOptions
}

// DefaultIncidentDrillConfig is the drill's default: two sessions
// per class, two desktop crashes plus a link degradation and a
// transcoder stall, every fault undone after a modeled 20s so the
// fault-storm incident can close.
func DefaultIncidentDrillConfig() IncidentDrillConfig {
	return IncidentDrillConfig{
		Scale:          0.05,
		PerClass:       2,
		Seed:           42,
		Crashes:        2,
		Degrades:       1,
		Stalls:         1,
		Window:         30 * time.Second,
		RecoverAfter:   20 * time.Second,
		DetectTimeout:  20 * time.Second,
		ResolveTimeout: 60 * time.Second,
		// A deliberately damped first recovery attempt: broken episodes
		// must span the observatory's sampling cadence so the incident's
		// impact window (open → resolve) brackets real QoS breakage
		// instead of the supervisor healing everything between passes.
		// Deadline stays above the delay so the attempt is still a
		// full-quality re-placement, not a shed-and-degrade.
		Supervisor: core.SupervisorOptions{
			InitialDelay: 600 * time.Millisecond,
			Deadline:     2 * time.Second,
		},
	}
}

// IncidentDrillResult is the incident log after the storm plus the
// detection-latency measurement.
type IncidentDrillResult struct {
	// Sessions is the total session count started across classes.
	Sessions int
	// FaultsInjected counts successfully applied faults (undos included).
	FaultsInjected int
	// Recovered mirrors the supervisor's tally.
	Recovered int64
	// Opened / Resolved count incidents over the whole drill.
	Opened   int
	Resolved int
	// DetectionMs is the wall-clock latency from the first applied fault
	// to the first incident opening. It includes the observatory's
	// sampling cadence — the real-world floor an operator would see.
	DetectionMs float64
	// Showcase is the drill's acceptance evidence: a resolved incident
	// with its evidence bundle, timeline, and impact accounting.
	Showcase *incident.Incident
	// Incidents is the full incident log, newest first, evidence
	// stripped (the showcase carries the one full bundle).
	Incidents []incident.Incident
}

// RunIncidentDrill builds the chaos space, streams PerClass sessions per
// traffic class, injects the seeded fault schedule while polling the
// incident log for the first open, waits for the supervisor to settle
// and the storm to clear, and returns the incident log with one resolved
// showcase incident in full.
func RunIncidentDrill(cfg IncidentDrillConfig) (*IncidentDrillResult, error) {
	if cfg.Scale <= 0 || cfg.PerClass <= 0 || cfg.Window <= 0 {
		return nil, fmt.Errorf("experiments: invalid incident drill config %+v", cfg)
	}
	if cfg.RecoverAfter <= 0 {
		return nil, fmt.Errorf("experiments: incident drill needs RecoverAfter > 0 (the storm must clear)")
	}
	if cfg.DetectTimeout <= 0 {
		cfg.DetectTimeout = 20 * time.Second
	}
	if cfg.ResolveTimeout <= 0 {
		cfg.ResolveTimeout = 60 * time.Second
	}
	dom, err := BuildChaosSpace(cfg.Scale, distributor.Optimal)
	if err != nil {
		return nil, err
	}
	defer dom.Close()

	supOpts := cfg.Supervisor
	supOpts.Bus = dom.Bus
	if supOpts.Seed == 0 {
		supOpts.Seed = cfg.Seed
	}
	sup, err := core.NewSupervisor(dom.Configurator, supOpts)
	if err != nil {
		return nil, err
	}
	defer sup.Stop()

	res := &IncidentDrillResult{}
	for _, cl := range drillClasses() {
		for i := 0; i < cfg.PerClass; i++ {
			sid := fmt.Sprintf("%s-%d", cl.name, i+1)
			if _, err := dom.StartApp(core.Request{
				SessionID:    sid,
				Class:        cl.name,
				App:          ChaosAudioApp(),
				UserQoS:      cl.req,
				ClientDevice: "jornada",
			}); err != nil {
				return nil, fmt.Errorf("experiments: start %s: %w", sid, err)
			}
			res.Sessions++
		}
		// Complete one session per class as we go: the scorecards the
		// impact accounting diffs must mix clean and fault-exercised
		// sessions, and stopping early keeps concurrency within the PDA
		// portal's CPU budget (four concurrent players).
		if err := dom.StopApp(cl.name + "-1"); err != nil {
			return nil, fmt.Errorf("experiments: stop %s-1: %w", cl.name, err)
		}
	}
	// Settle the engine's counter baselines before the chaos so the
	// first fault registers as a delta, not as startup noise.
	dom.SampleCapacityNow()

	fcfg := FaultDrillConfig{
		Seed: cfg.Seed, Window: cfg.Window,
		Crashes: cfg.Crashes, Degrades: cfg.Degrades, Stalls: cfg.Stalls,
		RecoverAfter: cfg.RecoverAfter,
	}
	sched, err := faultinject.Generate(chaosParams(dom, fcfg))
	if err != nil {
		return nil, err
	}
	if len(sched.Faults) == 0 {
		return nil, fmt.Errorf("experiments: empty fault schedule (need at least one of crashes/degrades/stalls)")
	}
	inj, err := faultinject.NewInjector(dom, sched)
	if err != nil {
		return nil, err
	}

	// Poll for the first open incident while the injector runs: the
	// detection latency is measured against the first applied fault's
	// wall-clock instant.
	scale := dom.Net.Scale()
	t0 := time.Now()
	firstFaultAt := t0.Add(time.Duration(float64(sched.Faults[0].At) * scale))
	detected := make(chan time.Time, 1)
	stopPoll := make(chan struct{})
	go func() {
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
				dom.SampleCapacityNow()
				if len(dom.Incidents.List()) > 0 {
					detected <- time.Now()
					return
				}
			}
		}
	}()
	defer close(stopPoll)

	if err := inj.Run(scale, nil); err != nil {
		return nil, fmt.Errorf("experiments: inject: %w", err)
	}
	if !sup.AwaitIdle(30 * time.Second) {
		return nil, fmt.Errorf("experiments: supervisor did not settle")
	}

	select {
	case at := <-detected:
		res.DetectionMs = float64(at.Sub(firstFaultAt)) / float64(time.Millisecond)
		if res.DetectionMs < 0 {
			res.DetectionMs = 0
		}
	case <-time.After(cfg.DetectTimeout):
		return nil, fmt.Errorf("experiments: no incident opened within %s", cfg.DetectTimeout)
	}

	// The storm has cleared (every fault carries a paired undo); keep
	// sampling until one incident resolves. Rules with cumulative
	// signals (availability-drop) may stay open — the showcase only
	// needs one clean resolution.
	deadline := time.Now().Add(cfg.ResolveTimeout)
	for res.Showcase == nil {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("experiments: no incident resolved within %s", cfg.ResolveTimeout)
		}
		dom.SampleCapacityNow()
		for _, inc := range dom.Incidents.List() {
			if inc.State != incident.StateResolved {
				continue
			}
			full, ok := dom.Incidents.Get(inc.ID)
			if !ok {
				continue
			}
			res.Showcase = &full
			break
		}
		if res.Showcase == nil {
			time.Sleep(50 * time.Millisecond)
		}
	}

	res.FaultsInjected = int(dom.Metrics.Counter(metrics.FaultsInjected).Value())
	res.Recovered = sup.Stats().Recovered
	for _, inc := range dom.Incidents.List() {
		res.Opened++
		if inc.State == incident.StateResolved {
			res.Resolved++
		}
		inc.Evidence = nil
		res.Incidents = append(res.Incidents, inc)
	}
	return res, nil
}

// ValidateIncidentDrill checks a drill result for the acceptance shape:
// at least one incident opened and one resolved, the showcase citing at
// least three distinct signal sources, a mitigating transition, a
// resolution cause, and nonzero impact accounting.
func ValidateIncidentDrill(res *IncidentDrillResult) error {
	if res == nil {
		return fmt.Errorf("experiments: nil incident drill result")
	}
	if res.Opened < 1 {
		return fmt.Errorf("experiments: drill opened no incidents")
	}
	if res.Resolved < 1 {
		return fmt.Errorf("experiments: drill resolved no incidents")
	}
	if res.DetectionMs < 0 {
		return fmt.Errorf("experiments: negative detection latency %.1fms", res.DetectionMs)
	}
	sc := res.Showcase
	if sc == nil {
		return fmt.Errorf("experiments: no showcase incident")
	}
	if sc.State != incident.StateResolved {
		return fmt.Errorf("experiments: showcase %s is %s, want resolved", sc.ID, sc.State)
	}
	if sc.Evidence == nil || len(sc.Evidence.Sources) < 3 {
		return fmt.Errorf("experiments: showcase %s cites %d signal sources, want >= 3", sc.ID, len(sourcesOf(sc)))
	}
	mitigated := false
	for _, tr := range sc.Timeline {
		if tr.State == incident.StateMitigating {
			mitigated = true
		}
	}
	if !mitigated {
		return fmt.Errorf("experiments: showcase %s never passed through mitigating", sc.ID)
	}
	if sc.ResolutionCause == "" {
		return fmt.Errorf("experiments: showcase %s resolved without a cause", sc.ID)
	}
	im := sc.Impact
	if im == nil {
		return fmt.Errorf("experiments: showcase %s carries no impact accounting", sc.ID)
	}
	if im.DurationSec <= 0 {
		return fmt.Errorf("experiments: showcase %s impact duration %.3fs, want > 0", sc.ID, im.DurationSec)
	}
	if im.SessionsAffected < 1 {
		return fmt.Errorf("experiments: showcase %s affected no sessions", sc.ID)
	}
	if im.BrokenSec <= 0 && im.TotalDeficitSec <= 0 {
		return fmt.Errorf("experiments: showcase %s records no QoS loss (broken=%.3f deficit=%.3f)",
			sc.ID, im.BrokenSec, im.TotalDeficitSec)
	}
	return nil
}

func sourcesOf(inc *incident.Incident) []string {
	if inc == nil || inc.Evidence == nil {
		return nil
	}
	return inc.Evidence.Sources
}
