package experiments

import (
	"fmt"
	"time"

	"ubiqos/internal/core"
	"ubiqos/internal/distributor"
	"ubiqos/internal/faultinject"
	"ubiqos/internal/ledger"
	"ubiqos/internal/metrics"
	"ubiqos/internal/qos"
)

// LedgerDrillConfig parameterizes the mixed-class outcome drill: audio
// sessions spread across three traffic classes stream on the chaos
// space, one session per class completes cleanly before the seeded
// faults hit, and the per-class scorecards are read off the outcome
// ledger once the supervisor settles.
type LedgerDrillConfig struct {
	// Scale is the emulation time scale (0.01 = 100x fast-forward).
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
	// RecoverAfter delays each fault's paired undo (zero = permanent).
	RecoverAfter time.Duration
	// Supervisor overrides the recovery supervisor's tuning; its Bus and
	// Seed are filled in by RunLedgerDrill.
	Supervisor core.SupervisorOptions
}

// drillClass is one traffic class in the mixed workload: distinct QoS
// asks make the delivered-vs-requested accounting diverge per class.
type drillClass struct {
	name string
	req  qos.Vector
}

// drillClasses is the fixed three-class mix; the ledger drill's result
// must carry a scorecard for each.
func drillClasses() []drillClass {
	return []drillClass{
		{"voice", qos.V(qos.P(qos.DimFrameRate, qos.Range(38, 44)))},
		{"media", qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44)))},
		{"background", qos.V(qos.P(qos.DimFrameRate, qos.Range(10, 30)))},
	}
}

// DefaultLedgerDrillConfig is the drill's default: two sessions per
// class on the six-device chaos space, two desktop crashes plus a link
// degradation mid-stream, one fault undone so recovery paths differ.
func DefaultLedgerDrillConfig() LedgerDrillConfig {
	return LedgerDrillConfig{
		Scale:    0.01,
		PerClass: 2,
		Seed:     42,
		Crashes:  2,
		Degrades: 1,
		Stalls:   1,
		Window:   30 * time.Second,
	}
}

// LedgerDrillResult is the drill shape plus the outcome ledger's
// per-class scorecards.
type LedgerDrillResult struct {
	// Classes lists the traffic classes driven (one scorecard each).
	Classes []string
	// Sessions is the total session count started across classes.
	Sessions int
	// Stopped is how many sessions completed cleanly before the faults.
	Stopped int
	// FaultsInjected counts successfully applied faults.
	FaultsInjected int
	// Scorecards is the per-class delivered-vs-requested accounting.
	Scorecards []ledger.Scorecard
}

// RunLedgerDrill builds the chaos space, streams PerClass sessions in
// each traffic class, completes one per class, injects the seeded fault
// schedule, waits for recovery to settle, and returns the per-class
// scorecards.
func RunLedgerDrill(cfg LedgerDrillConfig) (*LedgerDrillResult, error) {
	if cfg.Scale <= 0 || cfg.PerClass <= 0 || cfg.Window <= 0 {
		return nil, fmt.Errorf("experiments: invalid ledger drill config %+v", cfg)
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

	classes := drillClasses()
	res := &LedgerDrillResult{}
	for _, cl := range classes {
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
		// One clean completion per class before the chaos: the scorecards
		// must mix completed and fault-exercised sessions. Stopping as we
		// go also keeps concurrency within the PDA portal's CPU budget
		// (four concurrent players).
		if err := dom.StopApp(cl.name + "-1"); err != nil {
			return nil, fmt.Errorf("experiments: stop %s-1: %w", cl.name, err)
		}
		res.Stopped++
	}

	fcfg := FaultDrillConfig{
		Seed: cfg.Seed, Window: cfg.Window,
		Crashes: cfg.Crashes, Degrades: cfg.Degrades, Stalls: cfg.Stalls,
		RecoverAfter: cfg.RecoverAfter,
	}
	sched, err := faultinject.Generate(chaosParams(dom, fcfg))
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

	res.FaultsInjected = int(dom.Metrics.Counter(metrics.FaultsInjected).Value())
	res.Scorecards = dom.Flight.Scorecards(0)
	return res, nil
}

// ValidateLedgerDrill checks a drill result for the acceptance shape:
// a scorecard per driven class, sane availability, and per-axis deficit
// quantiles.
func ValidateLedgerDrill(res *LedgerDrillResult) error {
	if res == nil {
		return fmt.Errorf("experiments: nil ledger drill result")
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
