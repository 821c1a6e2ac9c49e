// Flash-crowd drill: the closed capacity loop (admission gate +
// pre-installed packages) against an arrival spike. The baseline run is
// the paper's open-loop configurator — every request runs the full
// pipeline, downloads are paid on first use, and overload surfaces as
// placement failures. The closed-loop run puts the saturation-aware gate
// in front of the pipeline and installs every package ahead of demand,
// and the acceptance criterion is that a ≥5× spike costs zero sessions to
// capacity exhaustion while the configure-latency SLO stays unburned —
// pressure is absorbed as controlled degraded admissions and rejections
// with retry-after hints instead of pipeline failures.
package experiments

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ubiqos/internal/admission"
	"ubiqos/internal/capacity"
	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/domain"
	"ubiqos/internal/incident"
	"ubiqos/internal/ledger"
	"ubiqos/internal/metrics"
	"ubiqos/internal/netsim"
	"ubiqos/internal/registry"
	"ubiqos/internal/repository"
	"ubiqos/internal/resource"
)

// Crowd-space tuning. The server component is deliberately heavy (a
// fifth of a desktop's CPU) so the three-desktop space holds ~15
// concurrent sessions — a crowd of 60 is honest 4× overload.
var (
	crowdServerRes   = resource.MB(48, 20)
	crowdEnhancerRes = resource.MB(24, 10)
	crowdPlayerRes   = resource.MB(8, 5)
)

const (
	crowdServerMB   = 12 // ~1s modeled download over 100 Mbps Ethernet
	crowdEnhancerMB = 6
)

// crowdThresholds widens the analyzer's margins for the drill: the gate
// must start rejecting while the distributor can still place a session,
// so "saturated" means ~3 session slots left, not zero.
func crowdThresholds() capacity.Thresholds {
	return capacity.Thresholds{
		ApproachEnter: 0.40,
		ApproachExit:  0.48,
		SaturateEnter: 0.20,
		SaturateExit:  0.28,
		Alpha:         0.5,
		QueueApproach: 4,
		QueueSaturate: 16,
	}
}

// BuildCrowdSpace constructs the flash-crowd domain: three server
// desktops, a generously-provisioned portal the players are pinned to,
// full Ethernet mesh. Both runs register the same instances: the player,
// pre-installed everywhere, two servers and an enhancer, their packages
// published. With closedLoop false the server and enhancer packages are
// NOT installed — the paper's dynamic-downloading path, paid on first use
// per device. With closedLoop true the admission gate is wired in and
// every package is installed on every device, the portal included, since
// placements land there too.
func BuildCrowdSpace(scale float64, closedLoop bool) (*domain.Domain, error) {
	opts := domain.Options{
		Scale:          scale,
		SampleInterval: 10 * time.Millisecond,
	}
	if closedLoop {
		opts.SaturationThresholds = crowdThresholds()
	}
	d, err := domain.New("crowd-space", opts)
	if err != nil {
		return nil, err
	}
	if closedLoop {
		d.EnableAdmissionGate(map[string]admission.ClassPolicy{
			// Voice holds full quality until the space saturates; the crowd
			// class sheds its optional enhancer as soon as pressure shows.
			"voice":      {DegradeAt: admission.Never, RejectAt: capacity.StateSaturated},
			"background": {DegradeAt: capacity.StateApproaching, RejectAt: capacity.StateSaturated},
		})
	}
	desktops := []device.ID{"desktop1", "desktop2", "desktop3"}
	for _, id := range desktops {
		if _, err := d.AddDevice(id, device.ClassDesktop, resource.MB(256, 100), map[string]string{"platform": "pc"}); err != nil {
			return nil, err
		}
	}
	// The portal never binds the space: the players are pinned there, and
	// servers and enhancers may land there too.
	if _, err := d.AddDevice("portal", device.ClassDesktop, resource.MB(2048, 400), map[string]string{"platform": "pc"}); err != nil {
		return nil, err
	}
	all := append(append([]device.ID{}, desktops...), "portal")
	for i, a := range all {
		for _, b := range all[i+1:] {
			if err := d.Connect(a, b, netsim.Ethernet); err != nil {
				return nil, err
			}
		}
		if err := d.ConnectServer(a, netsim.Ethernet); err != nil {
			return nil, err
		}
	}

	d.Registry.MustRegister(&registry.Instance{
		Name:      "crowd-player",
		Type:      "crowd-player",
		Attrs:     map[string]string{"platform": "pc"},
		Resources: crowdPlayerRes,
		SizeMB:    2,
	})
	for _, dev := range all {
		d.Repo.MarkInstalled(string(dev), "crowd-player")
	}

	for _, in := range crowdInstances() {
		d.Registry.MustRegister(in)
		d.Repo.MustPublish(repository.Package{Name: in.Name, SizeMB: in.SizeMB})
		if closedLoop {
			for _, dev := range all {
				d.Repo.MarkInstalled(string(dev), in.Name)
			}
		}
	}
	return d, nil
}

// crowdInstances are the crowd space's downloadable instances: two
// servers and the optional enhancer.
func crowdInstances() []*registry.Instance {
	return []*registry.Instance{
		{Name: "crowd-server-1", Type: "crowd-server", Resources: crowdServerRes, SizeMB: crowdServerMB},
		{Name: "crowd-server-2", Type: "crowd-server", Resources: crowdServerRes, SizeMB: crowdServerMB},
		{Name: "crowd-enhancer-1", Type: "crowd-enhancer", Resources: crowdEnhancerRes, SizeMB: crowdEnhancerMB},
	}
}

// CrowdVoiceApp is the steady class's graph: server → player, nothing
// optional.
func CrowdVoiceApp() *composer.AbstractGraph {
	ag := composer.NewAbstractGraph()
	ag.MustAddNode(&composer.AbstractNode{ID: "server", Spec: registry.Spec{Type: "crowd-server"}})
	ag.MustAddNode(&composer.AbstractNode{ID: "player", Spec: registry.Spec{Type: "crowd-player"}, Pin: core.ClientRole})
	ag.MustAddEdge("server", "player", 1.0)
	return ag
}

// CrowdApp is the crowd class's graph: the mandatory server → player
// path plus an optional enhancer branch — the component degraded
// admission sheds.
func CrowdApp() *composer.AbstractGraph {
	ag := composer.NewAbstractGraph()
	ag.MustAddNode(&composer.AbstractNode{ID: "server", Spec: registry.Spec{Type: "crowd-server"}})
	ag.MustAddNode(&composer.AbstractNode{ID: "enhancer", Spec: registry.Spec{Type: "crowd-enhancer"}, Optional: true})
	ag.MustAddNode(&composer.AbstractNode{ID: "player", Spec: registry.Spec{Type: "crowd-player"}, Pin: core.ClientRole})
	ag.MustAddEdge("server", "player", 1.0)
	ag.MustAddEdge("server", "enhancer", 0.5)
	return ag
}

// FlashCrowdConfig parameterizes one drill run.
type FlashCrowdConfig struct {
	// Scale is the emulation time scale.
	Scale float64
	// Steady is the voice-class session count in the warmup phase;
	// SteadyGap is the wall-clock gap between those arrivals.
	Steady    int
	SteadyGap time.Duration
	// Crowd is the background-class session count in the spike; CrowdGap
	// is the gap between spike arrivals. The spike's arrival rate must be
	// ≥5× the steady rate (SteadyGap ≥ 5×CrowdGap).
	Crowd    int
	CrowdGap time.Duration
	// VoiceHold / CrowdHold are how long each admitted session streams
	// (wall clock) before the driver stops it.
	VoiceHold time.Duration
	CrowdHold time.Duration
	// ClosedLoop turns on the admission gate and pre-installs every
	// package.
	ClosedLoop bool
}

// DefaultFlashCrowdConfig is the full-size drill: 10 steady voice
// sessions at 50/s, then a 60-session crowd at 250/s (5× the steady
// rate) against a space that holds ~15 concurrent sessions.
func DefaultFlashCrowdConfig(closedLoop bool) FlashCrowdConfig {
	return FlashCrowdConfig{
		Scale:      0.02,
		Steady:     10,
		SteadyGap:  20 * time.Millisecond,
		Crowd:      60,
		CrowdGap:   4 * time.Millisecond,
		VoiceHold:  900 * time.Millisecond,
		CrowdHold:  400 * time.Millisecond,
		ClosedLoop: closedLoop,
	}
}

// ClassOutcome is one session class's drill tally, as the driver saw it.
type ClassOutcome struct {
	Class string
	// Offered counts arrivals; Admitted + Degraded + Rejected +
	// LostToCapacity sum to it. Degraded is derived from the gate's own
	// tallies (0 in the baseline, which has no gate).
	Offered  int
	Admitted int
	Degraded int
	// Rejected counts controlled gate rejections (each carried a
	// retry-after hint).
	Rejected int
	// LostToCapacity counts pipeline failures — sessions the open loop
	// turned away with an infeasible-placement or admission-control error
	// after running the expensive pipeline. The closed-loop acceptance
	// criterion is zero, for every class.
	LostToCapacity int
}

// FlashCrowdResult is one drill run's report.
type FlashCrowdResult struct {
	Classes []ClassOutcome
	// LostToCapacity totals the per-class losses.
	LostToCapacity int
	// ConfigureBurn is the configure-p95 objective's burn rate after the
	// drill (>1 = violated).
	ConfigureBurn float64
	// MeetsCriterion reports the closed-loop acceptance bound: no session
	// lost to capacity and the configure SLO unburned. Always false for
	// the baseline (the criterion does not apply to it).
	MeetsCriterion bool
	// SpikeStart and SpikeEnd are the wall-clock instants of the first
	// and the last crowd arrival: the labels incidents are scored
	// against. Incidents is the incident log once the holds have
	// drained, newest first, evidence stripped.
	SpikeStart time.Time
	SpikeEnd   time.Time
	Incidents  []incident.Incident
	// Scorecards, Sessions and Lost are read at the settled point, once the
	// holds have drained: the per-class scorecards, the configurator's
	// session count, and the sessions the recovery supervisor gave up on
	// (its lost steps, as the domain's metrics count them).
	Scorecards []ledger.Scorecard
	Sessions   int
	Lost       int64
}

// RunFlashCrowd builds the crowd space, replays the warmup + spike
// arrival schedule, waits for the holds to drain, and reports the tally.
func RunFlashCrowd(cfg FlashCrowdConfig) (*FlashCrowdResult, error) {
	if cfg.Scale <= 0 || cfg.Steady <= 0 || cfg.Crowd <= 0 {
		return nil, fmt.Errorf("experiments: invalid flash-crowd config %+v", cfg)
	}
	dom, err := BuildCrowdSpace(cfg.Scale, cfg.ClosedLoop)
	if err != nil {
		return nil, err
	}
	defer dom.Close()

	type tally struct{ offered, admitted, rejected, lost int }
	var (
		mu       sync.Mutex
		byClass  = map[string]*tally{}
		holds    sync.WaitGroup
		voiceApp = CrowdVoiceApp()
		crowdApp = CrowdApp()
	)
	classTally := func(class string) *tally {
		if byClass[class] == nil {
			byClass[class] = &tally{}
		}
		return byClass[class]
	}
	launch := func(class string, seq int, app *composer.AbstractGraph, hold time.Duration) {
		defer holds.Done()
		id := fmt.Sprintf("%s-%d", class, seq)
		_, err := dom.StartApp(core.Request{
			SessionID:    id,
			Class:        class,
			App:          app,
			ClientDevice: "portal",
		})
		mu.Lock()
		t := classTally(class)
		t.offered++
		if err != nil {
			var rej *admission.RejectedError
			if errors.As(err, &rej) {
				t.rejected++
			} else {
				t.lost++
			}
			mu.Unlock()
			return
		}
		t.admitted++
		mu.Unlock()
		holds.Add(1)
		time.AfterFunc(hold, func() {
			defer holds.Done()
			dom.StopApp(id)
		})
	}

	// Warmup: the steady voice class trickles in.
	for i := 0; i < cfg.Steady; i++ {
		holds.Add(1)
		go launch("voice", i, voiceApp, cfg.VoiceHold)
		time.Sleep(cfg.SteadyGap)
	}
	// Spike: the crowd arrives at ≥5× the steady rate, with the voice
	// trickle continuing underneath (one voice arrival per Steady-worth
	// of crowd arrivals).
	voiceEvery := cfg.Crowd / cfg.Steady
	if voiceEvery < 1 {
		voiceEvery = 1
	}
	voiceSeq := cfg.Steady
	res := &FlashCrowdResult{SpikeStart: time.Now()}
	for i := 0; i < cfg.Crowd; i++ {
		res.SpikeEnd = time.Now()
		holds.Add(1)
		go launch("background", i, crowdApp, cfg.CrowdHold)
		if i%voiceEvery == voiceEvery-1 {
			holds.Add(1)
			go launch("voice", voiceSeq, voiceApp, cfg.VoiceHold)
			voiceSeq++
		}
		time.Sleep(cfg.CrowdGap)
	}
	holds.Wait()
	res.Scorecards = dom.Flight.Scorecards(0)
	res.Sessions = dom.Configurator.Sessions()
	res.Lost = dom.Metrics.Counter(metrics.SessionsLost).Value()

	for _, inc := range dom.Incidents.List() {
		inc.Evidence = nil
		res.Incidents = append(res.Incidents, inc)
	}
	degraded := map[string]int{}
	if dom.Admission != nil {
		for _, c := range dom.Admission.Status().Classes {
			degraded[c.Class] = int(c.Degraded)
		}
	}
	mu.Lock()
	for class, t := range byClass {
		res.Classes = append(res.Classes, ClassOutcome{
			Class:          class,
			Offered:        t.offered,
			Admitted:       t.admitted - degraded[class],
			Degraded:       degraded[class],
			Rejected:       t.rejected,
			LostToCapacity: t.lost,
		})
		res.LostToCapacity += t.lost
	}
	mu.Unlock()
	sort.Slice(res.Classes, func(i, j int) bool { return res.Classes[i].Class < res.Classes[j].Class })

	for _, st := range dom.SLO.Evaluate() {
		if st.Name == "configure-p95" {
			res.ConfigureBurn = st.BurnRate
		}
	}
	res.MeetsCriterion = cfg.ClosedLoop && res.LostToCapacity == 0 && res.ConfigureBurn <= 1
	return res, nil
}
