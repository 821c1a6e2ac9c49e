package incident

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"ubiqos/internal/admission"
	"ubiqos/internal/capacity"
	"ubiqos/internal/flight"
	"ubiqos/internal/ledger"
	"ubiqos/internal/metrics"
)

// Observation is one flat sample of every signal family the rules
// watch, gathered by the domain's capacity sampler once per pass. It
// must stay a plain value type (no slices or maps): building and
// ingesting one allocates nothing, which keeps the engine's hot path
// free when no incident is opening or closing. Counter fields are
// cumulative; the engine diffs them against the previous observation.
type Observation struct {
	Now time.Time

	// WorstBurn is the highest SLO burn rate across objectives and
	// SLOViolations the count of objectives currently in "violated".
	WorstBurn     float64
	SLOViolations int

	// SpaceState / SpaceHeadroom mirror the saturation analyzer's space
	// verdict; DevicesDown counts devices currently down.
	SpaceState    capacity.State
	SpaceHeadroom float64
	DevicesDown   int

	// Cumulative counters: injected faults and recovery outcomes.
	FaultsTotal int64
	Recovered   int64
	Restored    int64

	// ActiveSessions sizes the blast radius for titles.
	ActiveSessions int
}

// deltas are the per-observation increments of the cumulative counters
// (zero on the first observation, which only records the baseline).
type deltas struct {
	faults    float64
	recovered float64
	restored  float64
}

// Sources are the evidence-assembly hooks the domain injects. Every
// hook is optional (nil hooks are skipped); they are called only when
// an incident opens or resolves, never on the per-observation fast
// path. Hooks run with the engine mutex released, so one may read the
// engine or even feed it another observation (the admission gate's
// status does, through the capacity sampler).
type Sources struct {
	// Saturation returns the analyzer's latest report.
	Saturation func() *capacity.Report
	// SLO evaluates every objective.
	SLO func() []metrics.Status
	// Series returns a capacity ring excerpt; SeriesNames lists the
	// metrics worth excerpting.
	Series      func(metric string, window time.Duration) []capacity.Sample
	SeriesNames []string
	// Sessions lists recorded sessions (most recent first) and Excerpt
	// returns one session's bounded window of flight entries.
	Sessions func() []flight.SessionInfo
	Excerpt  func(session string, from, to time.Time, max int) []flight.Entry
	// Scorecards returns the ledger's per-class accounting.
	Scorecards func() []ledger.Scorecard
	// Admission snapshots the gate (nil result when it is not enabled).
	Admission func() *admission.Status
}

// Rule names of the default rule set.
const (
	RuleSLOBurn    = "slo-burn"
	RuleSaturation = "saturation"
	RuleFaultStorm = "fault-storm"
)

// RuleConfig is one detection rule: which signal it watches (fixed by
// Name), its thresholds, and its hysteresis dwells. The signal
// convention is "higher is worse".
type RuleConfig struct {
	// Name selects the signal (one of the Rule* constants) and Source
	// names the signal family cited in evidence bundles.
	Name   string
	Source string
	// WarnAt opens a warning incident, CritAt opens (or escalates to) a
	// critical one, CloseBelow resolves it. CloseBelow < WarnAt gives
	// the detector its hysteresis band.
	WarnAt     float64
	CritAt     float64
	CloseBelow float64
	// OpenDwell / CloseDwell are the consecutive observations the
	// signal must hold beyond the threshold before transitioning.
	OpenDwell  int
	CloseDwell int
	// Alpha EWMA-smooths the signal before thresholding (0 = raw).
	Alpha float64
}

// defaultRules is the stock rule set: one rule per signal family, each
// the first true detection of a labelled window in the chaos or the
// flash-crowd drill (EXPERIMENTS.md scores them).
func defaultRules() []RuleConfig {
	return []RuleConfig{
		// Worst SLO burn rate, EWMA-smoothed; 1.0 spends error budget
		// exactly as fast as allowed.
		{
			Name: RuleSLOBurn, Source: "slo",
			WarnAt: 1.0, CritAt: 2.0, CloseBelow: 0.8,
			OpenDwell: 2, CloseDwell: 2, Alpha: 0.5,
		},
		// The analyzer's space verdict (0 ok, 1 approaching, 2
		// saturated), already hysteretic upstream.
		{
			Name: RuleSaturation, Source: "saturation",
			WarnAt: 1.0, CritAt: 2.0, CloseBelow: 0.5,
			OpenDwell: 2, CloseDwell: 2,
		},
		// Devices down plus the EWMA of the injected-fault rate; opens
		// fast (dwell 1) so detection latency stays low.
		{
			Name: RuleFaultStorm, Source: "faults",
			WarnAt: 1.0, CritAt: 2.0, CloseBelow: 0.5,
			OpenDwell: 1, CloseDwell: 2, Alpha: 0.5,
		},
	}
}

// Engine bounds and evidence caps: the incident log keeps maxIncidents
// (the oldest resolved evicted first), the evidence bundle looks back
// evidenceWindow, and caps each series excerpt at maxSeriesSamples, the
// sampled sessions at maxSessions and each session's entries at
// maxEntries.
const (
	maxIncidents     = 64
	evidenceWindow   = 2 * time.Minute
	maxSeriesSamples = 60
	maxSessions      = 4
	maxEntries       = 16
	maxTraceIDs      = 16
	maxMitigators    = 8
)

// Options configures an Engine.
type Options struct {
	// Metrics receives incidents_open{severity} and
	// incidents_total{rule} (nil disables publication).
	Metrics *metrics.Registry
	// Sources are the evidence hooks.
	Sources Sources
}

// rule is a RuleConfig plus its detector state. All fields are scalars
// so the per-observation update allocates nothing.
type rule struct {
	cfg      RuleConfig
	smoothed float64
	seen     bool
	above    int
	below    int
	open     *Incident
	// opening is set between the observation that fires the rule and
	// the incident's creation, while its evidence is being gathered with
	// the mutex released; observations in between leave the rule alone.
	opening bool
	total   *metrics.Counter
}

// Engine ingests Observations, runs the rules, and keeps the bounded
// incident log. All methods are safe for concurrent use and no-ops on
// a nil receiver.
type Engine struct {
	// The bounds the engine runs with: the constants above, or a test's.
	maxIncidents int
	maxSessions  int
	maxEntries   int
	src          Sources

	warnG *metrics.Gauge
	critG *metrics.Gauge

	mu        sync.Mutex
	rules     []*rule
	log       []*Incident // oldest first
	nextID    int
	openCount int
	openWarn  int
	openCrit  int
	prev      Observation
	prevSeen  bool
}

// New builds an engine running the stock rule set. Metric handles are
// resolved once here so the per-observation path never touches the
// label-concatenation slow path.
func New(opts Options) *Engine {
	return newEngine(opts, defaultRules())
}

// newEngine builds an engine running the given rules.
func newEngine(opts Options, cfgs []RuleConfig) *Engine {
	e := &Engine{
		maxIncidents: maxIncidents,
		maxSessions:  maxSessions,
		maxEntries:   maxEntries,
		src:          opts.Sources,
	}
	for _, cfg := range cfgs {
		r := &rule{cfg: cfg}
		if opts.Metrics != nil {
			r.total = opts.Metrics.LabeledCounter(metrics.IncidentsTotal, "rule").With(cfg.Name)
		}
		e.rules = append(e.rules, r)
	}
	if opts.Metrics != nil {
		g := opts.Metrics.LabeledGauge(metrics.IncidentsOpen, "severity")
		e.warnG = g.With(SevWarning.String())
		e.critG = g.With(SevCritical.String())
		e.warnG.Set(0)
		e.critG.Set(0)
	}
	return e
}

// Observe ingests one observation, advancing every rule's detector and
// any open incidents' lifecycles. When nothing transitions the path is
// allocation-free. A transition is decided under the mutex, its evidence
// gathered from the hooks with the mutex released, and the result attached
// under the mutex again.
func (e *Engine) Observe(obs Observation) {
	if e == nil {
		return
	}
	e.mu.Lock()

	var d deltas
	if e.prevSeen {
		d.faults = counterDelta(obs.FaultsTotal, e.prev.FaultsTotal)
		d.recovered = counterDelta(obs.Recovered, e.prev.Recovered)
		d.restored = counterDelta(obs.Restored, e.prev.Restored)
	}
	e.prev = obs
	e.prevSeen = true

	// firing pairs each rule that fires on this observation with its
	// level; resolved lists the incidents this observation closes.
	type fired struct {
		r     *rule
		level float64
	}
	var firing []fired
	var resolved []*Incident
	for _, r := range e.rules {
		if r.opening {
			continue
		}
		level := rawSignal(r.cfg.Name, obs, d)
		if r.cfg.Alpha > 0 {
			if !r.seen {
				r.smoothed = level
				r.seen = true
			} else {
				r.smoothed = r.cfg.Alpha*level + (1-r.cfg.Alpha)*r.smoothed
			}
			level = r.smoothed
		}

		if r.open == nil {
			if level >= r.cfg.WarnAt {
				r.above++
				if r.above >= r.cfg.OpenDwell {
					r.above, r.below = 0, 0
					r.opening = true
					firing = append(firing, fired{r, level})
				}
			} else {
				r.above = 0
			}
			continue
		}

		inc := r.open
		inc.LastSignal = level
		if level > inc.PeakSignal {
			inc.PeakSignal = level
		}
		if level >= r.cfg.CritAt && inc.Severity < SevCritical {
			e.escalate(inc, obs.Now, level)
		}
		if level < r.cfg.CloseBelow {
			r.below++
			if r.below >= r.cfg.CloseDwell {
				r.above, r.below = 0, 0
				e.resolveIncident(r, obs, level)
				resolved = append(resolved, inc)
			}
		} else {
			r.below = 0
		}
	}

	if len(firing) > 0 || len(resolved) > 0 {
		e.mu.Unlock()
		// The bundle depends on the observation alone, so the rules that
		// fire together share one (it is write-once).
		var evidence *Evidence
		if len(firing) > 0 {
			evidence = e.assemble(obs, d)
		}
		var cards []ledger.Scorecard
		var sessions []flight.SessionInfo
		if len(resolved) > 0 {
			if e.src.Scorecards != nil {
				cards = e.src.Scorecards()
			}
			if e.src.Sessions != nil {
				sessions = e.src.Sessions()
			}
		}
		e.mu.Lock()
		for _, f := range firing {
			f.r.opening = false
			e.openIncident(f.r, obs, f.level, evidence)
		}
		for _, inc := range resolved {
			inc.Impact = e.impact(inc, obs, cards, sessions)
		}
	}

	if e.openCount > 0 && (d.recovered > 0 || d.restored > 0) {
		e.markMitigating(obs.Now)
	}
	e.mu.Unlock()
}

// counterDelta is cur−prev clamped at zero (counter resets never go
// negative).
func counterDelta(cur, prev int64) float64 {
	if cur <= prev {
		return 0
	}
	return float64(cur - prev)
}

// rawSignal extracts a rule's unsmoothed signal from the observation.
// Unknown rule names read as 0 and therefore never fire.
func rawSignal(name string, obs Observation, d deltas) float64 {
	switch name {
	case RuleSLOBurn:
		return obs.WorstBurn
	case RuleSaturation:
		return float64(obs.SpaceState)
	case RuleFaultStorm:
		return float64(obs.DevicesDown) + d.faults
	}
	return 0
}

// title composes the one-line operator summary for a new incident.
func title(cfg RuleConfig, obs Observation, level float64) string {
	switch cfg.Name {
	case RuleSLOBurn:
		return fmt.Sprintf("SLO burn rate elevated: worst objective burning %.2fx its error budget", obs.WorstBurn)
	case RuleSaturation:
		return fmt.Sprintf("space %s (headroom %.2f, %d active sessions)", obs.SpaceState, obs.SpaceHeadroom, obs.ActiveSessions)
	case RuleFaultStorm:
		return fmt.Sprintf("fault storm: %d device(s) down, fault signal %.2f", obs.DevicesDown, level)
	}
	return cfg.Name
}

// openIncident fires a rule: allocate the incident with the evidence
// gathered for it, snapshot the ledger baseline, and publish metrics.
func (e *Engine) openIncident(r *rule, obs Observation, level float64, ev *Evidence) {
	e.nextID++
	sev := SevWarning
	if level >= r.cfg.CritAt {
		sev = SevCritical
	}
	inc := &Incident{
		ID:          fmt.Sprintf("INC-%d", e.nextID),
		Rule:        r.cfg.Name,
		Source:      r.cfg.Source,
		Title:       title(r.cfg, obs, level),
		Severity:    sev,
		SeverityStr: sev.String(),
		State:       StateOpen,
		OpenedAt:    obs.Now,
		OpenSignal:  level,
		PeakSignal:  level,
		LastSignal:  level,
	}
	inc.Timeline = append(inc.Timeline, Transition{
		Time: obs.Now, State: StateOpen,
		Note: fmt.Sprintf("%s signal %.2f held >= %.2f for %d observation(s)", r.cfg.Source, level, r.cfg.WarnAt, r.cfg.OpenDwell),
	})
	inc.Evidence = ev
	for _, sc := range inc.Evidence.Scorecards {
		inc.openBroken += sc.BrokenSec
		inc.openDegraded += sc.DegradedSec
		for axis, v := range sc.DeficitSec {
			if inc.openDeficits == nil {
				inc.openDeficits = make(map[string]float64, len(sc.DeficitSec))
			}
			inc.openDeficits[axis] += v
		}
	}
	r.open = inc
	e.log = append(e.log, inc)
	// Past the bound the oldest resolved incidents go; an open or
	// mitigating one stays reachable (List, Get, postmortems) until it
	// resolves.
	if excess := len(e.log) - e.maxIncidents; excess > 0 {
		kept := e.log[:0]
		for _, old := range e.log {
			if excess > 0 && old.State == StateResolved {
				excess--
				continue
			}
			kept = append(kept, old)
		}
		clear(e.log[len(kept):])
		e.log = kept
	}
	e.openCount++
	if r.total != nil {
		r.total.Inc()
	}
	e.bumpOpenGauge(sev, +1)
}

// escalate raises an open incident to critical.
func (e *Engine) escalate(inc *Incident, now time.Time, level float64) {
	e.bumpOpenGauge(inc.Severity, -1)
	inc.Severity = SevCritical
	inc.SeverityStr = SevCritical.String()
	e.bumpOpenGauge(SevCritical, +1)
	inc.Timeline = append(inc.Timeline, Transition{
		Time: now, State: inc.State,
		Note: fmt.Sprintf("escalated to critical: signal %.2f", level),
	})
}

// markMitigating credits the recovery supervisor on every open incident
// and transitions still-open ones to mitigating.
func (e *Engine) markMitigating(now time.Time) {
	const actor = "recovery-supervisor"
	for _, r := range e.rules {
		inc := r.open
		if inc == nil {
			continue
		}
		addUnique(&inc.MitigatedBy, actor, maxMitigators)
		if inc.State == StateOpen {
			inc.State = StateMitigating
			inc.MitigatingAt = now
			inc.Timeline = append(inc.Timeline, Transition{
				Time: now, State: StateMitigating,
				Note: "mitigation under way: " + actor,
			})
		}
	}
}

// resolveIncident closes a rule's open incident and attributes the
// cause; Observe attaches the impact accounting once it has read the
// ledger.
func (e *Engine) resolveIncident(r *rule, obs Observation, level float64) {
	inc := r.open
	r.open = nil
	e.openCount--
	e.bumpOpenGauge(inc.Severity, -1)
	inc.State = StateResolved
	inc.ResolvedAt = obs.Now
	inc.LastSignal = level
	if len(inc.MitigatedBy) > 0 {
		inc.ResolutionCause = fmt.Sprintf("%s signal cleared after %s intervention", r.cfg.Source, strings.Join(inc.MitigatedBy, " + "))
	} else {
		inc.ResolutionCause = r.cfg.Source + " signal cleared without intervention"
	}
	inc.Timeline = append(inc.Timeline, Transition{
		Time: obs.Now, State: StateResolved,
		Note: fmt.Sprintf("signal %.2f held < %.2f for %d observation(s)", level, r.cfg.CloseBelow, r.cfg.CloseDwell),
	})
}

// impact diffs the ledger's accounting (cards, and the flight recorder's
// sessions, as the hooks returned them) against the open-time baseline.
func (e *Engine) impact(inc *Incident, obs Observation, cards []ledger.Scorecard, sessions []flight.SessionInfo) *Impact {
	im := &Impact{DurationSec: obs.Now.Sub(inc.OpenedAt).Seconds()}
	for _, sc := range cards {
		if im.ClassAvailability == nil {
			im.ClassAvailability = make(map[string]float64, len(cards))
		}
		im.ClassAvailability[sc.Class] = sc.Availability
		im.BrokenSec += sc.BrokenSec
		im.DegradedSec += sc.DegradedSec
		for axis, v := range sc.DeficitSec {
			if im.DeficitSec == nil {
				im.DeficitSec = make(map[string]float64)
			}
			im.DeficitSec[axis] += v
		}
	}
	im.BrokenSec = clampPos(im.BrokenSec - inc.openBroken)
	im.DegradedSec = clampPos(im.DegradedSec - inc.openDegraded)
	for axis := range im.DeficitSec {
		im.DeficitSec[axis] = clampPos(im.DeficitSec[axis] - inc.openDeficits[axis])
		im.TotalDeficitSec += im.DeficitSec[axis]
	}
	if e.src.Sessions != nil {
		for _, info := range sessions {
			if !info.Last.Before(inc.OpenedAt) {
				im.SessionsAffected++
			}
		}
	} else if inc.Evidence != nil {
		im.SessionsAffected = len(inc.Evidence.Sessions)
	}
	return im
}

func clampPos(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// assemble captures the evidence bundle from the injected hooks; the
// caller does not hold the mutex.
func (e *Engine) assemble(obs Observation, d deltas) *Evidence {
	ev := &Evidence{From: obs.Now.Add(-evidenceWindow), To: obs.Now}
	if e.src.Saturation != nil {
		ev.Saturation = e.src.Saturation()
	}
	if e.src.SLO != nil {
		ev.SLO = e.src.SLO()
	}
	if e.src.Series != nil {
		for _, m := range e.src.SeriesNames {
			s := e.src.Series(m, evidenceWindow)
			if len(s) == 0 {
				continue
			}
			if len(s) > maxSeriesSamples {
				s = s[len(s)-maxSeriesSamples:]
			}
			ev.Series = append(ev.Series, SeriesExcerpt{Metric: m, Samples: s})
		}
	}
	if e.src.Sessions != nil && e.src.Excerpt != nil {
		for _, info := range e.src.Sessions() {
			if len(ev.Sessions) >= e.maxSessions {
				break
			}
			entries := e.src.Excerpt(info.Session, ev.From, ev.To, e.maxEntries)
			if len(entries) == 0 {
				continue
			}
			ev.Sessions = append(ev.Sessions, FlightExcerpt{Session: info.Session, Entries: entries})
			for _, en := range entries {
				if en.TraceID != "" {
					addUnique(&ev.TraceIDs, en.TraceID, maxTraceIDs)
				}
			}
		}
	}
	if e.src.Admission != nil {
		ev.Admission = e.src.Admission()
	}
	if e.src.Scorecards != nil {
		ev.Scorecards = e.src.Scorecards()
	}
	ev.Sources = citeSources(obs, d, ev)
	return ev
}

// citeSources names the signal families that are abnormal at onset —
// the "≥3 distinct signal sources" an incident correlates.
func citeSources(obs Observation, d deltas, ev *Evidence) []string {
	var src []string
	if obs.WorstBurn > 0.8 || obs.SLOViolations > 0 {
		src = append(src, "slo")
	}
	satAbnormal := obs.SpaceState >= capacity.StateApproaching
	if ev.Saturation != nil {
		for _, dev := range ev.Saturation.Devices {
			if !dev.Up || dev.State >= capacity.StateApproaching {
				satAbnormal = true
				break
			}
		}
	}
	if satAbnormal {
		src = append(src, "saturation")
	}
	if obs.DevicesDown > 0 || d.faults > 0 {
		src = append(src, "faults")
	}
	for _, sc := range ev.Scorecards {
		if sc.Sessions > 0 && sc.Availability < 1 {
			src = append(src, "ledger")
			break
		}
	}
	if len(ev.Sessions) > 0 {
		src = append(src, "flight")
	}
	return src
}

// addUnique appends s to *list unless present or the cap is reached.
func addUnique(list *[]string, s string, limit int) {
	for _, have := range *list {
		if have == s {
			return
		}
	}
	if len(*list) < limit {
		*list = append(*list, s)
	}
}

// bumpOpenGauge maintains the incidents_open{severity} gauges.
func (e *Engine) bumpOpenGauge(sev Severity, delta int) {
	switch sev {
	case SevWarning:
		e.openWarn += delta
		if e.warnG != nil {
			e.warnG.Set(float64(e.openWarn))
		}
	case SevCritical:
		e.openCrit += delta
		if e.critG != nil {
			e.critG.Set(float64(e.openCrit))
		}
	}
}

// List returns snapshots of the retained incidents, newest first. The
// Evidence and Impact pointers are shared (write-once).
func (e *Engine) List() []Incident {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Incident, 0, len(e.log))
	for i := len(e.log) - 1; i >= 0; i-- {
		out = append(out, snapshot(e.log[i]))
	}
	return out
}

// Get returns a snapshot of one incident by ID.
func (e *Engine) Get(id string) (Incident, bool) {
	if e == nil {
		return Incident{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, inc := range e.log {
		if inc.ID == id {
			return snapshot(inc), true
		}
	}
	return Incident{}, false
}

// Open reports the open-incident count and the worst open severity.
func (e *Engine) Open() (int, Severity) {
	if e == nil {
		return 0, SevNone
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	worst := SevNone
	if e.openWarn > 0 {
		worst = SevWarning
	}
	if e.openCrit > 0 {
		worst = SevCritical
	}
	return e.openCount, worst
}

// snapshot copies an incident's mutable slices so callers can retain
// the value across engine updates.
func snapshot(inc *Incident) Incident {
	c := *inc
	c.Timeline = append([]Transition(nil), inc.Timeline...)
	if inc.MitigatedBy != nil {
		c.MitigatedBy = append([]string(nil), inc.MitigatedBy...)
	}
	c.openDeficits = nil
	return c
}
