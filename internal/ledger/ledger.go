// Package ledger implements the QoS outcome ledger: event-sourced
// per-session accounting of delivered versus requested QoS. Where the
// flight recorder (internal/flight) answers "what happened to this
// session", the ledger answers "what did this session actually get":
// the requested QoS vector, the admission outcome, every degradation
// episode (shed optional components, a heuristic-fallback placement,
// outright breakage) with start/end
// timestamps, restorations back to full quality, recovery MTTR, and a
// per-axis QoS-deficit integral (deficit fraction x duration, per
// numeric dimension of the requested vector).
//
// The ledger is a fold. Each session's Account lives in that session's
// slot of the session store (internal/flight), beside its flight
// timeline and decision provenance, and the store applies one step per
// report under its one lock, on the goroutine that produced it: the
// admission gate's verdict (Admission), and each configurator observer
// report, whose provenance record Fold maps to its step — configured,
// failed, broken, recovered, lost or completed. Ledger holds
// the per-class aggregates — the scorecards in scorecard.go — under the
// same lock, and a session is folded into its class when it finalizes;
// the store drops only finalized slots, so dropping one never loses
// class-level accounting. Bounds follow the repo's observability discipline: the
// per-session episode history is capped, class cardinality is capped at
// the labeled-metrics limit (metrics.DefaultLabelCardinality, overflow
// folding into metrics.OverflowLabel), and latency/deficit distributions
// live in fixed-size rings.
package ledger

import (
	"sort"
	"strings"
	"time"

	"ubiqos/internal/explain"
	"ubiqos/internal/metrics"
	"ubiqos/internal/qos"
)

// EpisodeKind classifies one span of a session's delivered-QoS history.
type EpisodeKind string

// The episode kinds. Shed and fallback episodes accumulate
// time-in-degraded; broken episodes accumulate unavailability; restored
// is a zero-duration marker stamped when a session returns to full
// quality after any degradation.
const (
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
	// (1 for broken, 0 for shed and fallback episodes, whose cost is
	// structural rather than numeric).
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
// folded into its class. The store never evicts a live account.
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

// open returns the session's account: a new one, counted as a start in
// its class, when a is nil, else a itself — relabeled when a report
// finally names the class of an account opened without one.
func (l *Ledger) open(a *Account, id, class string) *Account {
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

// openEpisode opens an episode of the given kind (no-op when one is
// already open: each kind has one fixed deficit fraction).
func (l *Ledger) openEpisode(s *Account, kind EpisodeKind, reason string, frac float64, now time.Time) {
	if s.open[kind] != nil {
		return
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

// Admission records the admission gate's decision for a session whose
// account is a (nil when it has none) and returns the account. An admit
// opens the account when a is nil; an admit-degraded also arms a
// shed-optional episode that opens when the first configuration lands.
// A reject is counted once: it finalizes a live account that never
// configured as rejected, and is counted on the class otherwise — a
// rejected request never runs, so it opens no account, and one that ran
// keeps its own outcome.
func (l *Ledger) Admission(a *Account, id, class, verdict, reason string) *Account {
	if verdict != "reject" {
		a = l.open(a, id, class)
		a.admission, a.admissionReason = verdict, reason
		return a
	}
	if a != nil && !a.folded && a.configures == 0 {
		a.admission, a.admissionReason = verdict, reason
		l.finalize(a, OutcomeRejected, l.now(), reason)
	} else {
		l.agg(class).rejected++
	}
	return a
}

// Fold applies to a session's account the step one observer report maps
// to, and reports whether it maps to one. rec is the report's provenance
// record: a finished configure, reconfigure, resume or recover (Ladder
// nil) configures the session, or fails it when rec.Err is set; a stop or
// suspend (an empty record) completes it; a supervisor step (Ladder set)
// breaks, recovers or loses it by its outcome, and its retry and healed
// steps map to none. a is the session's account, nil when it has none:
// every step but a stop opens one, in class, and Fold returns the account
// the step went to. requested is the user's ask and took the configure's
// latency, for a finished action; took is how long the session was broken,
// for a recovered step. A step on a finalized account is a no-op.
func (l *Ledger) Fold(a *Account, rec explain.Record, class string, requested qos.Vector, took time.Duration) (*Account, bool) {
	step := rec.Ladder
	if step == nil && rec.Action == "" {
		if a != nil {
			l.finalize(a, OutcomeCompleted, l.now(), "")
		}
		return a, true
	}
	if step != nil && step.Outcome != "broken" && step.Outcome != "recovered" && step.Outcome != "lost" {
		return a, false
	}
	if a = l.open(a, rec.Session, class); a.folded {
		return a, true
	}
	now, wasDeg := l.now(), anyDeg(a)
	switch {
	case step == nil && rec.Err != "":
		// A session that never configured fails; one under recovery keeps
		// its broken episode open.
		if a.configures == 0 {
			l.finalize(a, OutcomeFailed, now, rec.Err)
		}
		return a, true
	case step == nil:
		a.configures++
		a.lastConfigMs = float64(took) / float64(time.Millisecond)
		agg := l.agg(a.class)
		agg.configures++
		agg.configRing.push(sample{t: now, v: a.lastConfigMs})
		if len(a.requested) == 0 && len(requested) > 0 {
			a.requested = requested.Clone()
			a.axes = numericAxes(a.requested)
		}
		l.closeEpisode(a, EpisodeBroken, now)
		if a.admission == "admit-degraded" && a.configures == 1 {
			l.openEpisode(a, EpisodeShed, "admission shed-optional", 0, now)
		}
	case step.Outcome == "broken":
		// Open degradation episodes close but are remembered, so a later
		// full-quality recovery still counts as a restoration.
		if a.open[EpisodeBroken] != nil {
			return a, true
		}
		for _, kind := range []EpisodeKind{EpisodeShed, EpisodeFallback} {
			if ep := a.open[kind]; ep != nil {
				a.pending[kind] = *ep
				l.closeEpisode(a, kind, now)
			}
		}
		l.openEpisode(a, EpisodeBroken, step.Reason, 1, now)
		return a, true
	case step.Outcome == "recovered":
		a.recoveries++
		ms := float64(took) / float64(time.Millisecond)
		a.mttrMsTotal += ms
		agg := l.agg(a.class)
		agg.recoveries++
		agg.mttrMsTotal += ms
		agg.recoveryRing.push(sample{t: now, v: ms})
		l.closeEpisode(a, EpisodeBroken, now)
		if step.Degraded {
			reason := "shed optional components"
			if len(step.Shed) > 0 {
				reason = "shed " + strings.Join(step.Shed, ",")
			}
			l.openEpisode(a, EpisodeShed, reason, 0, now)
			fallback := step.PlacementFallback
			if fallback == "" {
				fallback = "heuristic"
			}
			l.openEpisode(a, EpisodeFallback, fallback, 0, now)
			delete(a.pending, EpisodeShed)
			delete(a.pending, EpisodeFallback)
		} else {
			l.closeEpisode(a, EpisodeShed, now)
			l.closeEpisode(a, EpisodeFallback, now)
			clear(a.pending)
		}
	default:
		// A lost session's final state is unavailability: if nothing
		// marked it broken yet, account the loss instant itself.
		if a.open[EpisodeBroken] == nil {
			l.openEpisode(a, EpisodeBroken, step.Detail, 1, now)
		}
		l.finalize(a, OutcomeLost, now, step.Detail)
		return a, true
	}
	if wasDeg && !anyDeg(a) && a.open[EpisodeBroken] == nil {
		// The step brought a degraded session back to full quality.
		a.restorations++
		l.agg(a.class).restorations++
		appendClosed(a, Episode{Kind: EpisodeRestored, Start: now, End: now})
	}
	return a, true
}

// finalize closes every open episode, stamps the outcome, and folds the
// session into its class aggregate (exactly once).
func (l *Ledger) finalize(s *Account, outcome string, now time.Time, reason string) {
	if s.folded {
		return
	}
	for _, kind := range []EpisodeKind{EpisodeShed, EpisodeFallback, EpisodeBroken} {
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
