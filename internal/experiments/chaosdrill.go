package experiments

import (
	"fmt"
	"time"

	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/distributor"
	"ubiqos/internal/domain"
	"ubiqos/internal/faultinject"
	"ubiqos/internal/incident"
	"ubiqos/internal/ledger"
	"ubiqos/internal/metrics"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
)

// ChaosDrillConfig parameterizes the seeded chaos drill: mixed-class
// audio sessions stream on the chaos space, a seeded fault schedule with
// paired undos hits mid-stream, and the recovery supervisor, the outcome
// ledger and the incident correlation engine are read off the one run.
type ChaosDrillConfig struct {
	// Scale is the emulation time scale. The observatory samples on a
	// real-time cadence, so the fault window must span several passes.
	Scale float64
	// PerClass is how many sessions to start in each traffic class.
	PerClass int
	// Seed drives the fault schedule and the supervisor's retry jitter,
	// so the run is reproducible end to end.
	Seed int64
	// Crashes, Degrades, Stalls count the scheduled faults per kind
	// (see faultinject.Params).
	Crashes  int
	Degrades int
	Stalls   int
	// Window is the modeled span the faults are spread over.
	Window time.Duration
	// RecoverAfter delays each fault's paired undo. It must be at least
	// Window/2: faults fall in [0.1, 0.6]·Window, so every fault then
	// comes before the first undo, and the fault and ledger views see
	// the storm at its height while the incident view sees it clear.
	RecoverAfter time.Duration
	// DetectTimeout / ResolveTimeout bound (in wall-clock time) how long
	// the run waits for the first incident to open and for one to
	// resolve.
	DetectTimeout  time.Duration
	ResolveTimeout time.Duration
	// Supervisor overrides the recovery supervisor's tuning; its Bus and
	// Seed are filled in by RunChaosDrill.
	Supervisor core.SupervisorOptions
}

// DefaultChaosDrillConfig is the drill's default: two sessions per
// class, two desktop crashes plus a link degradation and a transcoder
// stall, every fault undone after a modeled 20s so the fault-storm
// incident can close.
func DefaultChaosDrillConfig() ChaosDrillConfig {
	return ChaosDrillConfig{
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

// ChaosDrillResult is one chaos run seen three ways. The fault and
// ledger views are taken once every fault has been injected and the
// supervisor has settled, before the first undo; the incident view once
// the undos have cleared the storm.
type ChaosDrillResult struct {
	// Schedule is the injected fault schedule: the run's labels.
	// FirstFaultAt and LastUndoAt are the wall-clock instants of its
	// first fault and last undo, the window incidents are scored against.
	Schedule     faultinject.Schedule
	FirstFaultAt time.Time
	LastUndoAt   time.Time
	// Classes lists the traffic classes driven (one scorecard each).
	Classes []string
	// Sessions is the total session count started across classes;
	// Stopped is how many completed cleanly before the faults.
	Sessions int
	Stopped  int
	// FaultsInjected counts the faults applied before the first undo.
	FaultsInjected int

	// The fault view. Recovered / Lost mirror the supervisor's lifetime
	// counters.
	Recovered int64
	Lost      int64
	// BoundToDead counts components still placed on a down device after
	// the supervisor settled; the acceptance criterion is zero.
	BoundToDead int
	// DownDevices lists the devices down once the faults have hit.
	DownDevices []string
	// Remaining lists the sessions still active then.
	Remaining []string
	// RecoveryP50Ms / RecoveryP95Ms summarize fault-to-healthy latency in
	// wall-clock milliseconds (zero when nothing needed recovery).
	RecoveryP50Ms float64
	RecoveryP95Ms float64

	// The ledger view: the per-class delivered-vs-requested accounting.
	Scorecards []ledger.Scorecard

	// The incident view. Opened / Resolved count incidents over the
	// whole run.
	Opened   int
	Resolved int
	// DetectionMs is the wall-clock latency from the first applied fault
	// to the first incident opening. It includes the observatory's
	// sampling cadence — the real-world floor an operator would see.
	DetectionMs float64
	// Showcase is a resolved incident with its evidence bundle,
	// timeline, and impact accounting.
	Showcase *incident.Incident
	// Incidents is the full incident log, newest first, evidence
	// stripped (the showcase carries the one full bundle).
	Incidents []incident.Incident
}

// drillClass is one traffic class in the mixed workload: distinct QoS
// asks make the delivered-vs-requested accounting diverge per class.
type drillClass struct {
	name string
	req  qos.Vector
}

// drillClasses is the fixed three-class mix; the ledger view must carry
// a scorecard for each.
func drillClasses() []drillClass {
	return []drillClass{
		{"voice", qos.V(qos.P(qos.DimFrameRate, qos.Range(38, 44)))},
		{"media", qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44)))},
		{"background", qos.V(qos.P(qos.DimFrameRate, qos.Range(10, 30)))},
	}
}

// BuildChaosSpace constructs the chaos drill's domain: five desktops and
// the Jornada PDA, full Ethernet mesh between desktops, WLAN to the PDA.
// It registers the audio-on-demand services with everything
// pre-installed, so recovery never waits on downloads. Unlike the Figure
// 3/4 space, nothing pins the audio server to a named desktop — a
// crashed host must be replaceable. The capacity sampler runs every
// 100 ms: the drill waits for an incident to resolve, which takes two
// passes below its threshold.
func BuildChaosSpace(scale float64, place core.PlaceFunc) (*domain.Domain, error) {
	d, err := domain.New("chaos-space", domain.Options{Scale: scale, Place: place, SampleInterval: 100 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	desktops := []device.ID{"desktop1", "desktop2", "desktop3", "desktop4", "desktop5"}
	for _, id := range desktops {
		if _, err := d.AddDevice(id, device.ClassDesktop, resource.MB(512, 200), map[string]string{"platform": "pc"}); err != nil {
			return nil, err
		}
	}
	if _, err := d.AddDevice("jornada", device.ClassPDA, resource.MB(64, 100), map[string]string{"platform": "pda"}); err != nil {
		return nil, err
	}
	for i, a := range desktops {
		for _, b := range desktops[i+1:] {
			if err := d.Connect(a, b, netsim.Ethernet); err != nil {
				return nil, err
			}
		}
		if err := d.Connect(a, "jornada", netsim.WLAN); err != nil {
			return nil, err
		}
	}

	d.Registry.MustRegister(&registry.Instance{
		Name:          "audio-server-1",
		Type:          "audio-server",
		Output:        qos.V(qos.P(qos.DimFormat, qos.Symbol(audioFormatMPEG)), qos.P(qos.DimFrameRate, qos.Scalar(40))),
		OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(5, 60))),
		Adjustable:    map[string]bool{qos.DimFrameRate: true},
		Resources:     resource.MB(64, 50),
		SizeMB:        12,
	})
	d.Registry.MustRegister(&registry.Instance{
		Name:      "audio-player-pda",
		Type:      "audio-player",
		Attrs:     map[string]string{"platform": "pda"},
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(audioFormatWAV)), qos.P(qos.DimFrameRate, qos.Range(10, 44))),
		Resources: resource.MB(8, 10),
		SizeMB:    2,
	})
	d.Registry.MustRegister(&registry.Instance{
		Name:        "mpeg2wav-1",
		Type:        composer.TypeTranscoder,
		Attrs:       map[string]string{"from": audioFormatMPEG, "to": audioFormatWAV},
		Input:       qos.V(qos.P(qos.DimFormat, qos.Symbol(audioFormatMPEG))),
		Output:      qos.V(qos.P(qos.DimFormat, qos.Symbol(audioFormatWAV))),
		PassThrough: map[string]bool{qos.DimFrameRate: true},
		Resources:   resource.MB(12, 25),
		SizeMB:      3,
	})
	for _, dev := range append(desktops, "jornada") {
		for _, comp := range []string{"audio-server-1", "audio-player-pda", "mpeg2wav-1"} {
			d.Repo.MarkInstalled(string(dev), comp)
		}
	}
	return d, nil
}

// ChaosAudioApp is the audio-on-demand graph with an unpinned server:
// the distributor picks the host, so a crashed host is replaceable.
func ChaosAudioApp() *composer.AbstractGraph {
	ag := composer.NewAbstractGraph()
	ag.MustAddNode(&composer.AbstractNode{ID: "server", Spec: registry.Spec{Type: "audio-server"}})
	ag.MustAddNode(&composer.AbstractNode{ID: "player", Spec: registry.Spec{Type: "audio-player"}, Pin: core.ClientRole})
	ag.MustAddEdge("server", "player", 1.5)
	return ag
}

// chaosSchedule generates the run's seeded fault schedule against the
// live domain.
func chaosSchedule(dom *domain.Domain, cfg ChaosDrillConfig) (faultinject.Schedule, error) {
	p := faultinject.Params{
		Seed:         cfg.Seed,
		Duration:     cfg.Window,
		Crashes:      cfg.Crashes,
		Degrades:     cfg.Degrades,
		Stalls:       cfg.Stalls,
		RecoverAfter: cfg.RecoverAfter,
	}
	p.SetTargets(dom)
	return faultinject.Generate(p)
}

// RunChaosDrill builds the chaos space, streams PerClass sessions per
// traffic class and completes one per class, then injects the seeded
// fault schedule while polling the incident log for the first open.
// Once every fault has hit and the supervisor has settled it takes the
// fault and ledger views; it then injects the undos and waits for an
// incident to resolve for the incident view.
func RunChaosDrill(cfg ChaosDrillConfig) (*ChaosDrillResult, error) {
	if cfg.Scale <= 0 || cfg.PerClass <= 0 || cfg.Window <= 0 {
		return nil, fmt.Errorf("experiments: invalid chaos drill config %+v", cfg)
	}
	if cfg.RecoverAfter < cfg.Window/2 {
		return nil, fmt.Errorf("experiments: chaos drill needs RecoverAfter >= Window/2 (every fault must precede the first undo, and the storm must clear)")
	}
	if cfg.DetectTimeout <= 0 {
		cfg.DetectTimeout = 20 * time.Second
	}
	if cfg.ResolveTimeout <= 0 {
		cfg.ResolveTimeout = 60 * time.Second
	}
	// The optimal solver is the drill's primary placement.
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

	res := &ChaosDrillResult{}
	for _, cl := range drillClasses() {
		res.Classes = append(res.Classes, cl.name)
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
		// Complete one session per class as we go: the scorecards must
		// mix clean and fault-exercised sessions, and stopping early
		// keeps concurrency within the PDA portal's CPU budget (four
		// concurrent players).
		if err := dom.StopApp(cl.name + "-1"); err != nil {
			return nil, fmt.Errorf("experiments: stop %s-1: %w", cl.name, err)
		}
		res.Stopped++
	}
	// Settle the engine's counter baselines before the chaos so the
	// first fault registers as a delta, not as startup noise.
	dom.SampleCapacityNow()

	sched, err := chaosSchedule(dom, cfg)
	if err != nil {
		return nil, err
	}
	res.Schedule = sched
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
	res.FirstFaultAt = t0.Add(time.Duration(float64(sched.Faults[0].At) * scale))
	detected := make(chan time.Time, 1)
	stopPoll, pollDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pollDone)
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
	// The poller samples the domain, so it must be gone before the
	// deferred Close.
	defer func() {
		close(stopPoll)
		<-pollDone
	}()

	// Every fault falls at or before 0.6·Window and no undo before
	// 0.1·Window + RecoverAfter, which is no earlier: inject up to there.
	firstUndo := cfg.Window/10 + cfg.RecoverAfter
	if err := inj.Run(scale, firstUndo, nil); err != nil {
		return nil, fmt.Errorf("experiments: inject: %w", err)
	}
	if !sup.AwaitIdle(30 * time.Second) {
		return nil, fmt.Errorf("experiments: supervisor did not settle")
	}
	takeFaultView(res, dom, sup)
	res.Scorecards = dom.Flight.Scorecards(0)

	if err := inj.Run(scale, 0, nil); err != nil {
		return nil, fmt.Errorf("experiments: inject: %w", err)
	}
	res.LastUndoAt = time.Now()
	if !sup.AwaitIdle(30 * time.Second) {
		return nil, fmt.Errorf("experiments: supervisor did not settle")
	}
	if err := takeIncidentView(res, dom, detected, cfg); err != nil {
		return nil, err
	}
	return res, nil
}

// takeFaultView records the fault view: what the faults left down, what
// the supervisor recovered or lost, and how long recovery took.
func takeFaultView(res *ChaosDrillResult, dom *domain.Domain, sup *core.Supervisor) {
	res.FaultsInjected = int(dom.Metrics.Counter(metrics.FaultsInjected).Value())
	stats := sup.Stats()
	res.Recovered, res.Lost = stats.Recovered, stats.Lost
	for _, d := range dom.Devices.All() {
		if !d.Up() {
			res.DownDevices = append(res.DownDevices, string(d.ID))
		}
	}
	for _, sid := range dom.Configurator.SessionIDs() {
		active := dom.Configurator.Session(sid)
		if active == nil {
			continue
		}
		res.Remaining = append(res.Remaining, sid)
		for _, dev := range active.Placement {
			if d := dom.Devices.Get(dev); d == nil || !d.Up() {
				res.BoundToDead++
			}
		}
	}
	if h := dom.Metrics.Histogram(metrics.RecoveryLatency); h.Count() > 0 {
		res.RecoveryP50Ms = float64(h.Quantile(0.5)) / float64(time.Millisecond)
		res.RecoveryP95Ms = float64(h.Quantile(0.95)) / float64(time.Millisecond)
	}
}

// takeIncidentView records the incident view: the detection latency,
// one resolved showcase incident in full, and the incident log.
func takeIncidentView(res *ChaosDrillResult, dom *domain.Domain, detected <-chan time.Time, cfg ChaosDrillConfig) error {
	select {
	case at := <-detected:
		res.DetectionMs = float64(at.Sub(res.FirstFaultAt)) / float64(time.Millisecond)
		if res.DetectionMs < 0 {
			res.DetectionMs = 0
		}
	case <-time.After(cfg.DetectTimeout):
		return fmt.Errorf("experiments: no incident opened within %s", cfg.DetectTimeout)
	}

	// The storm has cleared (every fault carries a paired undo); keep
	// sampling until one incident resolves. The log is read at that
	// instant, so an incident that cannot clear by then shows in it as
	// open (the score sub-test fails on one).
	deadline := time.Now().Add(cfg.ResolveTimeout)
	for res.Showcase == nil {
		if time.Now().After(deadline) {
			return fmt.Errorf("experiments: no incident resolved within %s", cfg.ResolveTimeout)
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

	for _, inc := range dom.Incidents.List() {
		res.Opened++
		if inc.State == incident.StateResolved {
			res.Resolved++
		}
		inc.Evidence = nil
		res.Incidents = append(res.Incidents, inc)
	}
	return nil
}

// ValidateLedgerView checks the ledger view for the acceptance shape: a
// scorecard per driven class, sane availability, and per-axis deficit
// quantiles.
func ValidateLedgerView(res *ChaosDrillResult) error {
	if res == nil {
		return fmt.Errorf("experiments: nil chaos drill result")
	}
	if len(res.Classes) < 3 {
		return fmt.Errorf("experiments: drill drove %d classes, want >= 3", len(res.Classes))
	}
	byClass := make(map[string]ledger.Scorecard, len(res.Scorecards))
	for _, sc := range res.Scorecards {
		byClass[sc.Class] = sc
	}
	for _, cl := range res.Classes {
		sc, ok := byClass[cl]
		if !ok {
			return fmt.Errorf("experiments: no scorecard for class %q", cl)
		}
		if sc.Sessions <= 0 {
			return fmt.Errorf("experiments: class %q scorecard has no sessions", cl)
		}
		if sc.Availability < 0 || sc.Availability > 1 {
			return fmt.Errorf("experiments: class %q availability %.3f out of [0,1]", cl, sc.Availability)
		}
		for _, ratio := range []float64{sc.RecoveredRatio, sc.DegradedRatio, sc.LostRatio, sc.DeficitRatio} {
			if ratio < 0 || ratio > 1 {
				return fmt.Errorf("experiments: class %q ratio %.3f out of [0,1]", cl, ratio)
			}
		}
		if len(sc.DeficitPerAxis) == 0 {
			return fmt.Errorf("experiments: class %q scorecard has no per-axis deficit quantiles", cl)
		}
		for axis, q := range sc.DeficitPerAxis {
			if q.Count <= 0 {
				return fmt.Errorf("experiments: class %q axis %q deficit quantiles are empty", cl, axis)
			}
		}
	}
	return nil
}

// ValidateIncidentView checks the incident view for the acceptance
// shape: at least one incident opened and one resolved, the showcase
// citing at least three distinct signal sources, a mitigating
// transition, a resolution cause, and nonzero impact accounting.
func ValidateIncidentView(res *ChaosDrillResult) error {
	if res == nil {
		return fmt.Errorf("experiments: nil chaos drill result")
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
