// Package ledger implements the QoS outcome ledger: event-sourced
// per-session accounting of delivered versus requested QoS. Where the
// flight recorder (internal/flight) answers "what happened to this
// session", the ledger answers "what did this session actually get":
// the requested QoS vector, the admission outcome, every degradation
// episode (ladder-degraded quality, shed optional components, a
// heuristic-fallback placement, outright breakage) with start/end
// timestamps, restorations back to full quality, recovery MTTR, and a
// per-axis QoS-deficit integral (deficit fraction x duration, per
// numeric dimension of the requested vector).
//
// The ledger is a fold. Each session's Account lives in that session's
// slot of the session store (internal/flight), beside its flight
// timeline and decision provenance, and the store applies one step per
// report under its one lock: the admission gate's verdict and the
// configurator observer's configure, failure, breakage, recovery, loss
// and stop reports, each on the goroutine that produced it. Ledger holds
// the per-class aggregates — the scorecards in scorecard.go — under the
// same lock, and a session is folded into its class when it finalizes or
// when the store evicts it, so dropping a slot never loses class-level
// accounting. Bounds follow the repo's observability discipline: the
// per-session episode history is capped, class cardinality is capped at
// the labeled-metrics limit (metrics.DefaultLabelCardinality, overflow
// folding into metrics.OverflowLabel), and latency/deficit distributions
// live in fixed-size rings.
package ledger

import (
	"sort"
	"strings"
	"time"

	"ubiqos/internal/metrics"
	"ubiqos/internal/qos"
)

// EpisodeKind classifies one span of a session's delivered-QoS history.
type EpisodeKind string

// The episode kinds. Degraded/shed/fallback episodes accumulate
// time-in-degraded; broken episodes accumulate unavailability; restored
// is a zero-duration marker stamped when a session returns to full
// quality after any degradation.
const (
	// EpisodeDegraded: the configurator's degradation ladder delivered a
	// scaled-down QoS vector (degrade factor < 1).
	EpisodeDegraded EpisodeKind = "qos-degraded"
	// EpisodeShed: optional components were shed (admission degrade or
	// the recovery ladder's shed rung).
	EpisodeShed EpisodeKind = "shed-optional"
	// EpisodeFallback: placement fell back from the optimal solver to
	// the heuristic (recovery ladder's degraded rung).
	EpisodeFallback EpisodeKind = "heuristic-fallback"
	// EpisodeBroken: the session was broken and under recovery — nothing
	// was being delivered.
	EpisodeBroken EpisodeKind = "broken"
	// EpisodeRestored marks the instant full QoS was restored.
	EpisodeRestored EpisodeKind = "restored"
)

// Episode is one span (or marker) on a session's delivered-QoS history.
type Episode struct {
	Kind   EpisodeKind `json:"kind"`
	Reason string      `json:"reason,omitempty"`
	Start  time.Time   `json:"start"`
	End    time.Time   `json:"end,omitempty"` // zero while open
	// Frac is the per-axis deficit fraction while the episode is open
	// (1 - degradeFactor for qos-degraded, 1 for broken, 0 for shed and
	// fallback episodes, whose cost is structural rather than numeric).
	Frac   float64 `json:"frac,omitempty"`
	DurSec float64 `json:"durSec"` // filled when closed
}

// Session outcomes.
const (
	OutcomeRunning   = "running"
	OutcomeCompleted = "completed"
	OutcomeLost      = "lost"
	OutcomeFailed    = "failed"
	OutcomeRejected  = "rejected"
)

// Bounds.
const (
	// maxEpisodes caps each session's retained closed episodes; older
	// episodes are dropped but their integrals are kept.
	maxEpisodes = 64
	// ringCapacity bounds each class's latency/deficit sample rings.
	ringCapacity = 512
	// maxAxes bounds the per-axis deficit maps, mirroring the labeled
	// metrics cardinality discipline at vector scale.
	maxAxes = 8
)

// Options wire a Ledger.
type Options struct {
	// Metrics, when set, receives the session_deficit_* and
	// class_availability_ratio labeled gauges on PublishMetrics.
	Metrics *metrics.Registry
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Account is one session's delivered-QoS account. The session store
// keeps it in the session's slot and applies the Ledger's steps to it
// under the store's lock.
type Account struct {
	id              string
	class           string
	admission       string
	admissionReason string
	requested       qos.Vector
	axes            []string // numeric axes of the requested vector
	degradeFactor   float64
	outcome         string
	started         time.Time
	ended           time.Time
	configures      int64
	lastConfigMs    float64
	recoveries      int64
	restorations    int64
	mttrMsTotal     float64

	open          map[EpisodeKind]*Episode
	closed        []Episode
	episodesTotal uint64

	// pending remembers degradation kinds that were open when the
	// session broke, so a later full-quality recovery still counts as a
	// restoration even though Broken closed their episodes.
	pending map[EpisodeKind]Episode

	deficitSec  map[string]float64 // axis -> deficit integral (frac x sec)
	brokenSec   float64
	degradedSec float64 // union of degraded/shed/fallback intervals
	degOpen     int     // open degradation episodes (union bookkeeping)
	degSince    time.Time

	folded bool // already folded into its class aggregate
}

// Live reports whether the account is still open: not yet finalized and
// folded into its class. The store evicts finalized sessions first.
func (a *Account) Live() bool { return !a.folded }

// Ledger holds the per-class aggregates and applies each step to a
// session's Account. It does no locking of its own: the session store
// that holds the accounts calls it under its lock.
type Ledger struct {
	reg     *metrics.Registry
	now     func() time.Time
	classes map[string]*classAgg
}

// New returns a ledger with no classes yet.
func New(opts Options) *Ledger {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Ledger{reg: opts.Metrics, now: opts.Now, classes: make(map[string]*classAgg)}
}

// classKey folds empty and over-cap class labels, mirroring the labeled
// metric families' cardinality cap.
func (l *Ledger) classKey(class string) string {
	if class == "" {
		return metrics.OverflowLabel
	}
	if _, ok := l.classes[class]; ok {
		return class
	}
	if len(l.classes) >= metrics.DefaultLabelCardinality {
		return metrics.OverflowLabel
	}
	return class
}

func (l *Ledger) agg(class string) *classAgg {
	key := l.classKey(class)
	a := l.classes[key]
	if a == nil {
		a = newClassAgg()
		l.classes[key] = a
	}
	return a
}

// Open returns the session's account: a new one, counted as a start in
// its class, when a is nil, else a itself — relabeled when a report
// finally names the class of an account opened without one.
func (l *Ledger) Open(a *Account, id, class string) *Account {
	if a == nil {
		a = &Account{
			id:         id,
			class:      l.classKey(class),
			outcome:    OutcomeRunning,
			started:    l.now(),
			open:       make(map[EpisodeKind]*Episode),
			pending:    make(map[EpisodeKind]Episode),
			deficitSec: make(map[string]float64),
		}
		l.agg(a.class).started++
	} else if a.class == metrics.OverflowLabel && class != "" {
		// Keep the first aggregate attribution (counters already
		// placed) but record the label.
		a.class = l.classKey(class)
	}
	return a
}

// Evict folds a live account into its class as lost before the store
// drops its slot, so scorecards never lose a session.
func (l *Ledger) Evict(a *Account) {
	l.finalize(a, OutcomeLost, l.now(), "evicted while live")
}

// numericAxes extracts the scalar/range dimension names of a requested
// vector — the axes a deficit integral is meaningful over.
func numericAxes(v qos.Vector) []string {
	out := make([]string, 0, len(v))
	for _, p := range v {
		if p.Value.Kind == qos.KindScalar || p.Value.Kind == qos.KindRange {
			out = append(out, p.Name)
		}
	}
	sort.Strings(out)
	if len(out) > maxAxes {
		out = out[:maxAxes]
	}
	return out
}

// openEpisode opens an episode of the given kind (no-op when already
// open with the same deficit fraction; a changed fraction closes and
// reopens so the integral stays exact).
func (l *Ledger) openEpisode(s *Account, kind EpisodeKind, reason string, frac float64, now time.Time) {
	if ep := s.open[kind]; ep != nil {
		if ep.Frac == frac {
			return
		}
		l.closeEpisode(s, kind, now)
	}
	if kind != EpisodeBroken {
		if s.degOpen == 0 {
			s.degSince = now
		}
		s.degOpen++
	}
	s.open[kind] = &Episode{Kind: kind, Reason: reason, Start: now, Frac: frac}
}

// closeEpisode closes the open episode of the given kind, accumulating
// its duration into the session's unavailability / time-in-degraded /
// per-axis deficit integrals. Durations clamp at zero so out-of-order
// reports never produce negative accounting.
func (l *Ledger) closeEpisode(s *Account, kind EpisodeKind, now time.Time) {
	ep := s.open[kind]
	if ep == nil {
		return
	}
	delete(s.open, kind)
	dur := now.Sub(ep.Start).Seconds()
	if dur < 0 {
		dur = 0
	}
	ep.End = now
	ep.DurSec = dur
	if kind == EpisodeBroken {
		s.brokenSec += dur
	} else {
		s.degOpen--
		if s.degOpen == 0 {
			d := now.Sub(s.degSince).Seconds()
			if d > 0 {
				s.degradedSec += d
			}
		}
	}
	if ep.Frac > 0 {
		for _, axis := range s.axes {
			s.deficitSec[axis] += ep.Frac * dur
		}
	}
	appendClosed(s, *ep)
}

// appendClosed records a closed episode on the bounded history.
func appendClosed(s *Account, ep Episode) {
	s.episodesTotal++
	s.closed = append(s.closed, ep)
	if len(s.closed) > maxEpisodes {
		s.closed = s.closed[len(s.closed)-maxEpisodes:]
	}
}

// anyDeg reports whether the session is currently (or pending
// re-establishment after breakage) in any degradation episode.
func anyDeg(s *Account) bool {
	return s.degOpen > 0 || len(s.pending) > 0
}

// settleRestoration stamps a restoration marker when a step transitioned
// the session from degraded to fully restored.
func (l *Ledger) settleRestoration(s *Account, wasDegraded bool, now time.Time) {
	if !wasDegraded || anyDeg(s) || s.open[EpisodeBroken] != nil {
		return
	}
	s.restorations++
	l.agg(s.class).restorations++
	appendClosed(s, Episode{Kind: EpisodeRestored, Start: now, End: now})
}

// Admission records the admission gate's decision for a session. A
// reject finalizes the session's account, if it has one, with
// OutcomeRejected, and is counted on the class either way: rejected
// sessions never run, so the store opens no account for them. An
// admit-degraded arms a shed-optional episode that opens when the first
// configuration lands.
func (l *Ledger) Admission(s *Account, class, verdict, reason string) {
	if verdict == "reject" {
		l.agg(l.classKey(class)).rejected++
		if s != nil {
			s.admission, s.admissionReason = verdict, reason
			l.finalize(s, OutcomeRejected, l.now(), reason)
		}
		return
	}
	s.admission, s.admissionReason = verdict, reason
}

// Configured records a successful (re)configuration: the requested
// vector (the original user ask, pre-degradation), the degrade factor
// actually delivered, and the configure latency. action names the
// configurator verb (configure, resume, recover, reconfigure).
func (l *Ledger) Configured(s *Account, requested qos.Vector, degradeFactor float64, took time.Duration, action string) {
	if s.folded {
		return
	}
	now := l.now()
	wasDeg := anyDeg(s)
	s.configures++
	s.lastConfigMs = float64(took) / float64(time.Millisecond)
	a := l.agg(s.class)
	a.configures++
	a.configRing.push(sample{t: now, v: s.lastConfigMs})
	if len(s.requested) == 0 && len(requested) > 0 {
		s.requested = requested.Clone()
		s.axes = numericAxes(s.requested)
	}
	if degradeFactor <= 0 || degradeFactor > 1 {
		degradeFactor = 1
	}
	s.degradeFactor = degradeFactor
	l.closeEpisode(s, EpisodeBroken, now)
	if degradeFactor < 1 {
		l.openEpisode(s, EpisodeDegraded, "ladder factor "+action, 1-degradeFactor, now)
	} else {
		l.closeEpisode(s, EpisodeDegraded, now)
	}
	delete(s.pending, EpisodeDegraded)
	if s.admission == "admit-degraded" && s.configures == 1 {
		l.openEpisode(s, EpisodeShed, "admission shed-optional", 0, now)
	}
	l.settleRestoration(s, wasDeg, now)
}

// ConfigureFailed records a failed configuration attempt. A session that
// never configured successfully finalizes as failed; a running session
// under recovery keeps its broken episode open.
func (l *Ledger) ConfigureFailed(s *Account, reason string) {
	if !s.folded && s.configures == 0 {
		l.finalize(s, OutcomeFailed, l.now(), reason)
	}
}

// Broken records that the session broke (device loss, resource collapse)
// and is under recovery: a broken episode opens, and any open
// degradation episodes close but are remembered so a later full-quality
// recovery still counts as a restoration.
func (l *Ledger) Broken(s *Account, reason string) {
	if s.folded || s.open[EpisodeBroken] != nil {
		return
	}
	now := l.now()
	for _, kind := range []EpisodeKind{EpisodeDegraded, EpisodeShed, EpisodeFallback} {
		if ep := s.open[kind]; ep != nil {
			s.pending[kind] = *ep
			l.closeEpisode(s, kind, now)
		}
	}
	l.openEpisode(s, EpisodeBroken, reason, 1, now)
}

// Recovered records a recovery success. mttr is the time from fault
// detection to reconfiguration. A degraded recovery opens shed-optional
// (with the shed component names) and heuristic-fallback episodes; a
// full recovery closes them — and counts a restoration if the session
// had been degraded.
func (l *Ledger) Recovered(s *Account, mttr time.Duration, degraded bool, shed []string, fallback string) {
	if s.folded {
		return
	}
	now := l.now()
	wasDeg := anyDeg(s)
	s.recoveries++
	ms := float64(mttr) / float64(time.Millisecond)
	s.mttrMsTotal += ms
	a := l.agg(s.class)
	a.recoveries++
	a.mttrMsTotal += ms
	a.recoveryRing.push(sample{t: now, v: ms})
	l.closeEpisode(s, EpisodeBroken, now)
	if degraded {
		reason := "shed optional components"
		if len(shed) > 0 {
			reason = "shed " + strings.Join(shed, ",")
		}
		l.openEpisode(s, EpisodeShed, reason, 0, now)
		if fallback == "" {
			fallback = "heuristic"
		}
		l.openEpisode(s, EpisodeFallback, fallback, 0, now)
		delete(s.pending, EpisodeShed)
		delete(s.pending, EpisodeFallback)
	} else {
		l.closeEpisode(s, EpisodeShed, now)
		l.closeEpisode(s, EpisodeFallback, now)
		clear(s.pending)
	}
	l.settleRestoration(s, wasDeg, now)
}

// Lost records that recovery gave the session up.
func (l *Ledger) Lost(s *Account, reason string) {
	if s.folded {
		return
	}
	now := l.now()
	// A lost session's final state is unavailability: if nothing marked
	// it broken yet, account the loss instant itself.
	if s.open[EpisodeBroken] == nil {
		l.openEpisode(s, EpisodeBroken, reason, 1, now)
	}
	l.finalize(s, OutcomeLost, now, reason)
}

// Stopped records a clean session stop; a session the ledger never heard
// of (nil) has nothing to complete.
func (l *Ledger) Stopped(s *Account) {
	if s != nil {
		l.finalize(s, OutcomeCompleted, l.now(), "")
	}
}

// finalize closes every open episode, stamps the outcome, and folds the
// session into its class aggregate (exactly once).
func (l *Ledger) finalize(s *Account, outcome string, now time.Time, reason string) {
	if s.folded {
		return
	}
	for _, kind := range []EpisodeKind{EpisodeDegraded, EpisodeShed, EpisodeFallback, EpisodeBroken} {
		l.closeEpisode(s, kind, now)
	}
	clear(s.pending)
	s.outcome = outcome
	s.ended = now
	if reason != "" && s.admissionReason == "" && outcome != OutcomeRejected {
		s.admissionReason = reason
	}
	s.folded = true

	a := l.agg(s.class)
	switch outcome {
	case OutcomeCompleted:
		a.completed++
	case OutcomeLost:
		a.lost++
	case OutcomeFailed:
		a.failed++
	case OutcomeRejected:
		a.rejected++
		a.started-- // rejected sessions never ran; keep the ratio base clean
	}
	if outcome == OutcomeRejected {
		return
	}
	life := s.ended.Sub(s.started).Seconds()
	if life < 0 {
		life = 0
	}
	a.lifetimeSec += life
	a.brokenSec += s.brokenSec
	a.degradedSec += s.degradedSec
	if s.recoveries > 0 {
		a.recoveredSessions++
	}
	if s.degradedSec > 0 || s.restorations > 0 {
		a.degradedSessions++
	}
	// Every numeric axis gets a per-session sample — including zeros, so
	// the deficit quantiles are over all finalized sessions, not only the
	// degraded ones.
	for _, axis := range s.axes {
		d := s.deficitSec[axis]
		a.deficitSec[axis] += d
		a.deficitRing(axis).push(sample{t: now, v: d})
	}
}

// PublishMetrics refreshes the ledger's labeled gauges on the metrics
// registry from the store's current scorecards: session_deficit_seconds
// and session_deficit_ratio (normalized deficit fraction) and
// class_availability_ratio, one series per class.
func (l *Ledger) PublishMetrics(cards []Scorecard) {
	if l.reg == nil {
		return
	}
	for _, sc := range cards {
		l.reg.LabeledGauge(metrics.SessionDeficitSeconds, "class").With(sc.Class).Set(sc.TotalDeficitSec)
		l.reg.LabeledGauge(metrics.SessionDeficitRatio, "class").With(sc.Class).Set(sc.DeficitRatio)
		l.reg.LabeledGauge(metrics.ClassAvailability, "class").With(sc.Class).Set(sc.Availability)
	}
}
