// Observer glue: the configurator reports each finished action and each
// session step once, through core.Observer, and this file fans them out
// to the domain's metrics, outcome ledger, decision provenance, flight
// recorder, and log.
package domain

import (
	"time"

	"ubiqos/internal/core"
	"ubiqos/internal/explain"
	"ubiqos/internal/metrics"
	"ubiqos/internal/obslog"
	"ubiqos/internal/trace"
)

// observer is the domain's core.Observer.
type observer struct{ d *Domain }

// sessionLog derives the named per-session child of the domain logger —
// or nil, deriving nothing and costing nothing, when the logger would
// discard a record at level, the most severe one the caller or the stage
// it hands the child to writes. Callers that build fields test the
// result, so a discarded record's fields are never built either.
func (o observer) sessionLog(level obslog.Level, name, session, traceID string) *obslog.Logger {
	if !o.d.Log.Enabled(level) {
		return nil
	}
	return o.d.Log.Named(name).ForSession(session, traceID)
}

// classMeter returns the named meter of one session class, memoized: a
// labeled name costs allocations to build, and every configure and stop
// marks one.
func (d *Domain) classMeter(name, class string) *metrics.Meter {
	key := [2]string{name, class}
	d.metersMu.Lock()
	defer d.metersMu.Unlock()
	m := d.classMeters[key]
	if m == nil {
		m = d.Metrics.Meter(metrics.WithLabel(name, "class", class))
		d.classMeters[key] = m
	}
	return m
}

// supervisorLog is the recovery supervisor's logger for a session.
func (o observer) supervisorLog(req core.Request) *obslog.Logger {
	return o.d.Log.Named("core.supervisor").ForSession(req.SessionID, req.TraceCtx.TraceID)
}

// Begin implements core.Observer: it opens the action's trace on the
// domain tracer — a "configure" trace, or a "recover" trace for a
// supervisor attempt — and marks the arrival or counts the attempt.
func (o observer) Begin(req core.Request, rec explain.Record) (*trace.Trace, *obslog.Logger, *obslog.Logger) {
	d := o.d
	if step := rec.Ladder; step != nil {
		tr := d.Tracer.StartCtx(req.TraceCtx, "recover", rec.Session,
			trace.Int("attempt", int64(step.Attempt)),
			trace.Bool("degraded", step.Degraded),
			trace.String("reason", step.Reason))
		d.Metrics.Counter(metrics.RecoveryAttempts).Inc()
		o.supervisorLog(req).Info("recovery attempt",
			obslog.Int("attempt", int64(step.Attempt)),
			obslog.Bool("degraded", step.Degraded),
			obslog.String("reason", step.Reason))
		return tr, nil, nil
	}
	d.classMeter(metrics.SessionArrivals, req.Class).Mark(1)
	tr := d.Tracer.StartCtx(req.TraceCtx, "configure", rec.Session, trace.Bool("handoff", rec.Handoff))
	traceID := tr.Context().TraceID
	if log := o.sessionLog(obslog.LevelInfo, "core", rec.Session, traceID); log != nil {
		log.Info("configure started", obslog.Bool("handoff", rec.Handoff))
	}
	return tr, o.sessionLog(obslog.LevelWarn, "composer", rec.Session, traceID),
		o.sessionLog(obslog.LevelDebug, "distributor", rec.Session, traceID)
}

// Finished implements core.Observer: one configure, reconfigure, resume
// or recover lands on the log, the session store — its trace summary, its
// provenance record and its ledger step, in one call — and the metrics
// registry.
func (o observer) Finished(req core.Request, active *core.ActiveSession, rec explain.Record, tr *trace.Trace, err error) {
	if err != nil {
		if log := o.sessionLog(obslog.LevelError, "core", rec.Session, rec.TraceID); log != nil {
			log.Error("configure failed", obslog.Err(err))
		}
	} else if log := o.sessionLog(obslog.LevelInfo, "core", rec.Session, rec.TraceID); log != nil {
		log.Info("configured",
			obslog.Float("cost", active.Cost),
			obslog.Int("components", int64(active.Graph.NodeCount())),
			obslog.Duration("tookMs", active.Timing.Total()))
	}
	var took time.Duration
	if err == nil {
		rec.Cost = active.Cost
		rec.Placement = make(map[string]string, len(active.Placement))
		for id, dev := range active.Placement {
			rec.Placement[string(id)] = string(dev)
		}
		took = active.Timing.Total()
	}
	o.d.Flight.Finished(tr.Summary(), rec, req.Class, req.UserQoS, took)
	o.recordMetrics(req, active, rec, err)
}

// recordMetrics feeds the registry one finished action: the search
// counters when it reached an exact solver, then the outcome counters and
// the Figure 4 overhead histograms.
func (o observer) recordMetrics(req core.Request, active *core.ActiveSession, rec explain.Record, err error) {
	m := o.d.Metrics
	if s := rec.Search; s != nil && (s.Algorithm == "optimal" || s.Algorithm == "optimal-warm") {
		m.Counter(metrics.BnBExplored).Add(s.Explored)
		m.Counter(metrics.BnBPruned).Add(s.Pruned)
		m.Counter(metrics.BnBIncumbents).Add(s.Incumbents)
		if s.Warm {
			m.Counter(metrics.WarmSolves).Inc()
		} else {
			m.Counter(metrics.ColdSolves).Inc()
		}
	}
	m.Counter(metrics.ConfigsTotal).Inc()
	if err != nil {
		m.Counter(metrics.ConfigsFailed).Inc()
		o.d.classMeter(metrics.SessionFailures, req.Class).Mark(1)
		return
	}
	rep := active.Report
	m.Counter(metrics.TranscodersInserted).Add(int64(len(rep.Transcoders)))
	m.Counter(metrics.BuffersInserted).Add(int64(len(rep.Buffers)))
	m.Counter(metrics.Adjustments).Add(int64(len(rep.Adjustments)))
	m.Counter(metrics.DiscoveryAttempts).Add(int64(rep.DiscoveryAttempts))
	m.Counter(metrics.DiscoveryFailures).Add(int64(rep.DiscoveryFailures))
	m.Histogram(metrics.CompositionTime).Observe(active.Timing.Composition)
	m.Histogram(metrics.DistributionTime).Observe(active.Timing.Distribution)
	m.Histogram(metrics.DownloadTime).Observe(active.Timing.Downloading)
	m.Histogram(metrics.HandoffTime).Observe(active.Timing.InitOrHandoff)
	m.Histogram(metrics.ConfigureTime).Observe(active.Timing.Total())
	m.Gauge(metrics.ActiveSessions).Set(float64(o.d.Configurator.Sessions()))
	if rec.Action == explain.ActionReconfigure {
		m.Counter(metrics.Handoffs).Inc()
	}
}

// Step implements core.Observer: every step lands on the session store
// in one call (a stop or suspend completes the session; a supervisor step
// moves its account and, unless broken or healed, lands on the provenance
// timeline), then on the metrics registry and the log.
func (o observer) Step(req core.Request, rec explain.Record, tr *trace.Trace, down time.Duration, st core.SupervisorStats) {
	d, m := o.d, o.d.Metrics
	rec.Session = req.SessionID // a stop's record is empty
	d.Flight.Step(tr.Summary(), rec, down)
	if rec.Ladder == nil {
		m.Gauge(metrics.ActiveSessions).Set(float64(d.Configurator.Sessions()))
		d.classMeter(metrics.SessionCompletions, req.Class).Mark(1)
		if log := o.sessionLog(obslog.LevelInfo, "core", req.SessionID, req.TraceCtx.TraceID); log != nil {
			log.Info("session stopped")
		}
		return
	}
	step := rec.Ladder
	switch step.Outcome {
	case "broken":
		o.supervisorLog(req).Warn("recovery queued",
			obslog.String("reason", step.Reason), obslog.String("device", step.Detail))
	case "recovered":
		m.Counter(metrics.SessionsRecovered).Inc()
		if step.Degraded {
			m.Counter(metrics.RecoveriesDegraded).Inc()
		}
		if step.Restored {
			m.Counter(metrics.SessionsRestored).Inc()
		}
		m.Histogram(metrics.RecoveryLatency).Observe(down)
		if st.WarmSpeedup > 0 {
			m.Gauge(metrics.WarmSpeedup).Set(st.WarmSpeedup)
		}
		log := o.supervisorLog(req)
		log.Info("session recovered",
			obslog.Bool("degraded", step.Degraded),
			obslog.Bool("warm", step.Warm),
			obslog.Duration("downMs", down))
		if step.Restored {
			log.Info("session restored to full QoS")
		}
	case "retry":
		m.Counter(metrics.RecoveryRetries).Inc()
		o.supervisorLog(req).Warn("recovery retry scheduled",
			obslog.Int("attempt", int64(step.Attempt)),
			obslog.Float("backoffMs", step.BackoffMs),
			obslog.String("error", step.Detail))
	case "lost":
		m.Counter(metrics.SessionsLost).Inc()
		o.supervisorLog(req).Error("session lost", obslog.String("reason", step.Detail))
	}
	m.Gauge(metrics.RecoveryBacklog).Set(float64(st.Backlog))
}
