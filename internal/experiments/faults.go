package experiments

import (
	"fmt"
	"sort"
	"time"

	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/distributor"
	"ubiqos/internal/domain"
	"ubiqos/internal/faultinject"
	"ubiqos/internal/metrics"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
)

// FaultDrillConfig parameterizes a seeded chaos drill: N audio sessions
// on the chaos smart space, a generated fault schedule injected
// mid-stream, and the recovery supervisor cleaning up after it.
type FaultDrillConfig struct {
	// Scale is the emulation time scale (0.01 = 100× fast-forward; the
	// 30s modeled fault window then takes 300ms of wall time).
	Scale float64
	// Sessions is how many concurrent audio sessions to start before the
	// faults begin. All use the PDA portal.
	Sessions int
	// Seed drives both the fault schedule and the supervisor's retry
	// jitter, so a drill is reproducible end to end.
	Seed int64
	// Crashes, Degrades, Flaps, Stalls count the scheduled faults per
	// kind (see faultinject.Params).
	Crashes  int
	Degrades int
	Flaps    int
	Stalls   int
	// Window is the modeled span the faults are spread over.
	Window time.Duration
	// RecoverAfter delays each fault's paired undo; zero makes every
	// fault permanent, which keeps the end-state dead-device check
	// strict (nothing may remain bound to a device that never rejoins).
	RecoverAfter time.Duration
	// Supervisor overrides the recovery supervisor's tuning; its Bus and
	// Seed are filled in by RunFaultDrill.
	Supervisor core.SupervisorOptions
}

// DefaultFaultDrillConfig is the drill's default: three sessions on
// the six-device space, two of the five desktops crashed mid-stream plus
// a link degradation and a transcoder stall, no undos.
func DefaultFaultDrillConfig() FaultDrillConfig {
	return FaultDrillConfig{
		Scale:    0.01,
		Sessions: 3,
		Seed:     42,
		Crashes:  2,
		Degrades: 1,
		Stalls:   1,
		Window:   30 * time.Second,
	}
}

// FaultDrillResult is what a drill run reports.
type FaultDrillResult struct {
	// FaultsInjected counts successfully applied faults.
	FaultsInjected int
	// Schedule is the injected fault schedule, for reproduction.
	Schedule faultinject.Schedule
	// Recovered / Lost mirror the supervisor's lifetime counters.
	Recovered int64
	Lost      int64
	// BoundToDead counts components still placed on a down device after
	// the supervisor settled — the acceptance criterion is zero.
	BoundToDead int
	// DownDevices lists devices still down at the end of the drill.
	DownDevices []string
	// Remaining lists the sessions still active at the end.
	Remaining []string
	// RecoveryP50Ms / RecoveryP95Ms summarize fault-to-healthy latency in
	// wall-clock milliseconds (zero when nothing needed recovery).
	RecoveryP50Ms float64
	RecoveryP95Ms float64
}

// BuildChaosSpace constructs the fault-drill domain: five desktops and
// the Jornada PDA, full Ethernet mesh between desktops, WLAN to the PDA.
// It registers the audio-on-demand services with everything
// pre-installed, so recovery never waits on downloads. Unlike the Figure
// 3/4 space, nothing pins the audio server to a named desktop — a
// crashed host must be replaceable.
func BuildChaosSpace(scale float64, place core.PlaceFunc) (*domain.Domain, error) {
	d, err := domain.New("chaos-space", domain.Options{Scale: scale, Place: place})
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

// RunFaultDrill builds the chaos space, streams cfg.Sessions audio
// sessions, injects the seeded fault schedule mid-stream, waits for the
// recovery supervisor to settle, and reports what happened.
func RunFaultDrill(cfg FaultDrillConfig) (*FaultDrillResult, error) {
	if cfg.Scale <= 0 || cfg.Sessions <= 0 || cfg.Window <= 0 {
		return nil, fmt.Errorf("experiments: invalid fault drill config %+v", cfg)
	}
	// The optimal solver is the drill's primary placement: recovery then
	// exercises the full degradation ladder, falling back to the greedy
	// heuristic (which cannot backtrack around a degraded link) only past
	// the deadline.
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

	for i := 0; i < cfg.Sessions; i++ {
		sid := fmt.Sprintf("drill-%d", i+1)
		if _, err := dom.StartApp(core.Request{
			SessionID:    sid,
			App:          ChaosAudioApp(),
			UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44))),
			ClientDevice: "jornada",
		}); err != nil {
			return nil, fmt.Errorf("experiments: start %s: %w", sid, err)
		}
	}

	sched, err := faultinject.Generate(chaosParams(dom, cfg))
	if err != nil {
		return nil, err
	}
	inj, err := faultinject.NewInjector(dom, sched)
	if err != nil {
		return nil, err
	}
	if err := inj.Run(dom.Net.Scale(), nil); err != nil {
		return nil, fmt.Errorf("experiments: inject: %w", err)
	}
	if !sup.AwaitIdle(30 * time.Second) {
		return nil, fmt.Errorf("experiments: supervisor did not settle")
	}

	stats := sup.Stats()
	res := &FaultDrillResult{
		FaultsInjected: int(dom.Metrics.Counter(metrics.FaultsInjected).Value()),
		Schedule:       sched,
		Recovered:      stats.Recovered,
		Lost:           stats.Lost,
	}
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
	return res, nil
}

// chaosParams assembles faultinject parameters from the live domain,
// protecting the PDA portal (losing the portal is unrecoverable by
// design) and sorting every candidate list so the schedule depends only
// on the seed.
func chaosParams(dom *domain.Domain, cfg FaultDrillConfig) faultinject.Params {
	p := faultinject.Params{
		Seed:         cfg.Seed,
		Duration:     cfg.Window,
		Crashes:      cfg.Crashes,
		Degrades:     cfg.Degrades,
		Flaps:        cfg.Flaps,
		Stalls:       cfg.Stalls,
		RecoverAfter: cfg.RecoverAfter,
		Protected:    map[device.ID]bool{"jornada": true},
	}
	for _, d := range dom.Devices.All() {
		p.Devices = append(p.Devices, d.ID)
	}
	for pair := range dom.Links.Snapshot() {
		p.Links = append(p.Links, pair)
	}
	sort.Slice(p.Links, func(i, j int) bool {
		if p.Links[i][0] != p.Links[j][0] {
			return p.Links[i][0] < p.Links[j][0]
		}
		return p.Links[i][1] < p.Links[j][1]
	})
	for _, inst := range dom.Registry.All() {
		p.Services = append(p.Services, inst.Name)
	}
	return p
}
