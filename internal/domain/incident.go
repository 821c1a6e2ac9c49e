// Incident correlation glue: the engine itself (internal/incident)
// stays free of domain knowledge; this file injects the evidence hooks
// (saturation report, SLO statuses, capacity rings, flight excerpts,
// admission snapshots, ledger scorecards) and assembles the
// per-pass Observation the capacity sampler feeds it.
package domain

import (
	"time"

	"ubiqos/internal/admission"
	"ubiqos/internal/capacity"
	"ubiqos/internal/incident"
	"ubiqos/internal/ledger"
	"ubiqos/internal/metrics"
)

// initIncidents constructs the incident correlation engine. Must run
// before the capacity observatory starts: the sampler feeds the engine
// one Observation per pass.
//
// Hook safety: the hooks run inside a sampling pass, but with the
// engine's mutex released: Observe drops it while it gathers evidence
// and impact, so a hook may call back into the engine (a rule that is
// mid-open sits out the re-entrant observation and opens once; see
// incident.TestEvidenceHookMayObserve). Anything a hook calls that forces
// another sampling pass (admission Status → SaturationReport →
// SampleNow) is a no-op, because the observatory rate-limits re-entrant
// passes, and none of the hooks are called with repMu held.
func (d *Domain) initIncidents() {
	d.Incidents = incident.New(incident.Options{
		Metrics: d.Metrics,
		Sources: incident.Sources{
			Saturation: func() *capacity.Report {
				d.repMu.Lock()
				rep := d.lastReport
				d.repMu.Unlock()
				return &rep
			},
			SLO: func() []metrics.Status { return d.SLO.Evaluate() },
			Series: func(metric string, window time.Duration) []capacity.Sample {
				return d.Capacity.Series(metric, window)
			},
			SeriesNames: []string{
				metrics.SpaceHeadroom, metrics.SaturationState,
				metrics.ConfigPending, metrics.ActiveSessions,
			},
			Sessions:   d.Flight.Sessions,
			Excerpt:    d.Flight.Excerpt,
			Scorecards: func() []ledger.Scorecard { return d.Flight.Scorecards(0) },
			Admission: func() *admission.Status {
				if g := d.admissionGate(); g != nil {
					st := g.Status()
					return &st
				}
				return nil
			},
		},
	})
}

// admissionGate reads the late-bound gate pointer under repMu:
// EnableAdmissionGate may run after the sampler goroutine has started.
func (d *Domain) admissionGate() *admission.Gate {
	d.repMu.Lock()
	defer d.repMu.Unlock()
	return d.Admission
}

// observeIncidents builds the per-pass Observation from state the
// sampler already computed plus the cumulative counters, and feeds the
// engine. Called at the end of every sampling pass, after repMu is
// released. The Observation is stamped after every read it carries, not
// with the pass's tick: a fault that lands between the tick and the reads
// is counted here, and the incident it opens must not predate it.
func (d *Domain) observeIncidents(rep capacity.Report, worstBurn float64, violations, devicesDown int) {
	if d.Incidents == nil {
		return
	}
	obs := incident.Observation{
		WorstBurn:      worstBurn,
		SLOViolations:  violations,
		SpaceState:     rep.Space,
		SpaceHeadroom:  rep.SpaceHeadroom,
		DevicesDown:    devicesDown,
		FaultsTotal:    d.Metrics.Counter(metrics.FaultsInjected).Value(),
		Recovered:      d.Metrics.Counter(metrics.SessionsRecovered).Value(),
		Restored:       d.Metrics.Counter(metrics.SessionsRestored).Value(),
		ActiveSessions: d.Configurator.Sessions(),
	}
	obs.Now = time.Now()
	d.Incidents.Observe(obs)
}
