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
// Sessions are finalized into per-class aggregates — the scorecards in
// scorecard.go — so evicting an old session never loses its class-level
// accounting. Bounds follow the repo's observability discipline:
// per-session episode history is capped, the session table is capped
// with least-recently-touched eviction (like internal/flight), class
// cardinality is capped at the labeled-metrics limit
// (metrics.DefaultLabelCardinality, overflow folding into
// metrics.OverflowLabel), and latency/deficit distributions live in
// fixed-size rings (the internal/capacity ring discipline).
//
// The ledger is fed two ways, and every mutation is idempotent so the
// two feeds never double-count: direct hooks from the domain's admission
// gate and configurator observer (the authoritative source, carrying QoS
// vectors and shed lists the bus events lack), plus a
// lossless eventbus tap (like flight's) that catches lifecycle edges —
// session.stopped, user.notification — even for code paths that bypass
// the hooks.
//
// Like the rest of the observability stack the API is nil-safe: every
// method on a nil *Ledger is a no-op.
package ledger

import (
	"sort"
	"strings"
	"sync"
	"time"

	"ubiqos/internal/eventbus"
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

// Defaults for Options fields left zero.
const (
	DefaultMaxSessions  = 256
	DefaultPerSession   = 64
	DefaultRingCapacity = 512
	// maxAxes bounds the per-axis deficit maps, mirroring the labeled
	// metrics cardinality discipline at vector scale.
	maxAxes = 8
)

// Options bound and wire a Ledger.
type Options struct {
	// MaxSessions caps the session table (default 256); the
	// least-recently-touched finalized session is evicted first.
	MaxSessions int
	// PerSession caps each session's retained closed episodes (default
	// 64); older episodes are dropped but their integrals are kept.
	PerSession int
	// RingCapacity bounds each class's latency/deficit sample rings
	// (default 512).
	RingCapacity int
	// Metrics, when set, receives the session_deficit_* and
	// class_availability_ratio labeled gauges on PublishMetrics.
	Metrics *metrics.Registry
	// Now overrides the clock (tests).
	Now func() time.Time
}

// session is the ledger's internal per-session state.
type session struct {
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
	lastTouch       time.Time
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
	// restoration even though RecordBroken closed their episodes.
	pending map[EpisodeKind]Episode

	deficitSec  map[string]float64 // axis -> deficit integral (frac x sec)
	brokenSec   float64
	degradedSec float64 // union of degraded/shed/fallback intervals
	degOpen     int     // open degradation episodes (union bookkeeping)
	degSince    time.Time

	folded bool // already folded into its class aggregate
}

// Ledger maintains per-session outcome state and per-class aggregates.
// All methods are safe for concurrent use; a nil *Ledger is a valid
// no-op ledger.
type Ledger struct {
	maxSessions int
	perSession  int
	ringCap     int
	reg         *metrics.Registry
	now         func() time.Time

	mu       sync.Mutex
	sessions map[string]*session
	classes  map[string]*classAgg
}

// New returns a ledger with the given bounds.
func New(opts Options) *Ledger {
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = DefaultMaxSessions
	}
	if opts.PerSession <= 0 {
		opts.PerSession = DefaultPerSession
	}
	if opts.RingCapacity <= 0 {
		opts.RingCapacity = DefaultRingCapacity
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Ledger{
		maxSessions: opts.MaxSessions,
		perSession:  opts.PerSession,
		ringCap:     opts.RingCapacity,
		reg:         opts.Metrics,
		now:         opts.Now,
		sessions:    make(map[string]*session),
		classes:     make(map[string]*classAgg),
	}
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

func (l *Ledger) aggLocked(class string) *classAgg {
	key := l.classKey(class)
	a := l.classes[key]
	if a == nil {
		a = newClassAgg(l.ringCap)
		l.classes[key] = a
	}
	return a
}

// getLocked returns the session, creating (and evicting) as needed.
func (l *Ledger) getLocked(sid, class string, now time.Time) *session {
	s := l.sessions[sid]
	if s == nil {
		l.evictLocked()
		s = &session{
			id:         sid,
			class:      l.classKey(class),
			outcome:    OutcomeRunning,
			started:    now,
			open:       make(map[EpisodeKind]*Episode),
			pending:    make(map[EpisodeKind]Episode),
			deficitSec: make(map[string]float64),
		}
		l.sessions[sid] = s
		l.aggLocked(s.class).started++
	} else if s.class == metrics.OverflowLabel && class != "" {
		// A hook finally told us the real class; keep the first agg
		// attribution (counters already placed) but record the label.
		s.class = l.classKey(class)
	}
	s.lastTouch = now
	return s
}

// evictLocked makes room for one more session. Finalized sessions are
// preferred victims (their accounting already lives in the class
// aggregate); a live victim is folded first so nothing is lost.
func (l *Ledger) evictLocked() {
	if len(l.sessions) < l.maxSessions {
		return
	}
	var victim *session
	for _, s := range l.sessions {
		if victim == nil {
			victim = s
			continue
		}
		// Prefer folded (finalized) sessions, then oldest touch.
		if s.folded != victim.folded {
			if s.folded {
				victim = s
			}
			continue
		}
		if s.lastTouch.Before(victim.lastTouch) {
			victim = s
		}
	}
	if victim == nil {
		return
	}
	if !victim.folded {
		l.finalizeLocked(victim, OutcomeLost, l.now(), "evicted while live")
	}
	delete(l.sessions, victim.id)
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

// openLocked opens an episode of the given kind (no-op when already
// open with the same deficit fraction; a changed fraction closes and
// reopens so the integral stays exact).
func (l *Ledger) openLocked(s *session, kind EpisodeKind, reason string, frac float64, now time.Time) {
	if ep := s.open[kind]; ep != nil {
		if ep.Frac == frac {
			return
		}
		l.closeLocked(s, kind, now)
	}
	if kind != EpisodeBroken {
		if s.degOpen == 0 {
			s.degSince = now
		}
		s.degOpen++
	}
	s.open[kind] = &Episode{Kind: kind, Reason: reason, Start: now, Frac: frac}
}

// closeLocked closes the open episode of the given kind, accumulating
// its duration into the session's unavailability / time-in-degraded /
// per-axis deficit integrals. Durations clamp at zero so out-of-order
// event arrival never produces negative accounting.
func (l *Ledger) closeLocked(s *session, kind EpisodeKind, now time.Time) {
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
	l.appendClosedLocked(s, *ep)
}

// appendClosedLocked records a closed episode on the bounded history.
func (l *Ledger) appendClosedLocked(s *session, ep Episode) {
	s.episodesTotal++
	s.closed = append(s.closed, ep)
	if len(s.closed) > l.perSession {
		s.closed = s.closed[len(s.closed)-l.perSession:]
	}
}

// anyDegLocked reports whether the session is currently (or pending
// re-establishment after breakage) in any degradation episode.
func anyDegLocked(s *session) bool {
	return s.degOpen > 0 || len(s.pending) > 0
}

// settleRestorationLocked stamps a restoration marker when a mutation
// transitioned the session from degraded to fully restored.
func (l *Ledger) settleRestorationLocked(s *session, wasDegraded bool, now time.Time) {
	if !wasDegraded || anyDegLocked(s) || s.open[EpisodeBroken] != nil {
		return
	}
	s.restorations++
	l.aggLocked(s.class).restorations++
	l.appendClosedLocked(s, Episode{Kind: EpisodeRestored, Start: now, End: now})
}

// RecordAdmission records the admission gate's decision for a session.
// A reject finalizes the session immediately with OutcomeRejected; an
// admit-degraded arms a shed-optional episode that opens when the first
// configuration lands.
func (l *Ledger) RecordAdmission(sid, class, verdict, reason string) {
	if l == nil || sid == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	if verdict == "reject" {
		// Rejected sessions never run: account them on the class
		// aggregate without occupying (or evicting) a table slot.
		a := l.aggLocked(l.classKey(class))
		a.rejected++
		if s := l.sessions[sid]; s != nil {
			s.admission, s.admissionReason = verdict, reason
			l.finalizeLocked(s, OutcomeRejected, now, reason)
		}
		return
	}
	s := l.getLocked(sid, class, now)
	s.admission, s.admissionReason = verdict, reason
}

// RecordConfigured records a successful (re)configuration: the
// requested vector (the original user ask, pre-degradation), the
// degrade factor actually delivered, and the configure latency. action
// names the configurator verb (configure, resume, recover,
// reconfigure).
func (l *Ledger) RecordConfigured(sid, class string, requested qos.Vector, degradeFactor float64, took time.Duration, action string) {
	if l == nil || sid == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	s := l.getLocked(sid, class, now)
	if s.folded {
		return
	}
	wasDeg := anyDegLocked(s)
	s.configures++
	s.lastConfigMs = float64(took) / float64(time.Millisecond)
	a := l.aggLocked(s.class)
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
	l.closeLocked(s, EpisodeBroken, now)
	if degradeFactor < 1 {
		l.openLocked(s, EpisodeDegraded, "ladder factor "+action, 1-degradeFactor, now)
		delete(s.pending, EpisodeDegraded)
	} else {
		l.closeLocked(s, EpisodeDegraded, now)
		delete(s.pending, EpisodeDegraded)
	}
	if s.admission == "admit-degraded" && s.configures == 1 {
		l.openLocked(s, EpisodeShed, "admission shed-optional", 0, now)
	}
	l.settleRestorationLocked(s, wasDeg, now)
}

// RecordConfigureFailed records a failed configuration attempt. A
// session that never configured successfully finalizes as failed; a
// running session under recovery keeps its broken episode open.
func (l *Ledger) RecordConfigureFailed(sid, class, reason string) {
	if l == nil || sid == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	s := l.getLocked(sid, class, now)
	if s.folded {
		return
	}
	if s.configures == 0 {
		l.finalizeLocked(s, OutcomeFailed, now, reason)
	}
}

// RecordBroken records that the session broke (device loss, resource
// collapse) and is under recovery: a broken episode opens, and any open
// degradation episodes close but are remembered so a later full-quality
// recovery still counts as a restoration.
func (l *Ledger) RecordBroken(sid, reason string) {
	if l == nil || sid == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	s := l.getLocked(sid, "", now)
	if s.folded || s.open[EpisodeBroken] != nil {
		return
	}
	for _, kind := range []EpisodeKind{EpisodeDegraded, EpisodeShed, EpisodeFallback} {
		if ep := s.open[kind]; ep != nil {
			s.pending[kind] = *ep
			l.closeLocked(s, kind, now)
		}
	}
	l.openLocked(s, EpisodeBroken, reason, 1, now)
}

// RecordRecovered records a recovery success. mttr is the time from
// fault detection to reconfiguration. A degraded recovery opens
// shed-optional (with the shed component names) and heuristic-fallback
// episodes; a full recovery closes them — and counts a restoration if
// the session had been degraded.
func (l *Ledger) RecordRecovered(sid string, mttr time.Duration, degraded bool, shed []string, fallback string) {
	if l == nil || sid == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	s := l.getLocked(sid, "", now)
	if s.folded {
		return
	}
	wasDeg := anyDegLocked(s)
	s.recoveries++
	ms := float64(mttr) / float64(time.Millisecond)
	s.mttrMsTotal += ms
	a := l.aggLocked(s.class)
	a.recoveries++
	a.mttrMsTotal += ms
	a.recoveryRing.push(sample{t: now, v: ms})
	l.closeLocked(s, EpisodeBroken, now)
	if degraded {
		reason := "shed optional components"
		if len(shed) > 0 {
			reason = "shed " + strings.Join(shed, ",")
		}
		l.openLocked(s, EpisodeShed, reason, 0, now)
		if fallback == "" {
			fallback = "heuristic"
		}
		l.openLocked(s, EpisodeFallback, fallback, 0, now)
		delete(s.pending, EpisodeShed)
		delete(s.pending, EpisodeFallback)
	} else {
		l.closeLocked(s, EpisodeShed, now)
		l.closeLocked(s, EpisodeFallback, now)
		for k := range s.pending {
			delete(s.pending, k)
		}
	}
	l.settleRestorationLocked(s, wasDeg, now)
}

// RecordLost records that recovery gave the session up.
func (l *Ledger) RecordLost(sid, reason string) {
	if l == nil || sid == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	s := l.getLocked(sid, "", now)
	if s.folded {
		return
	}
	// A lost session's final state is unavailability: if nothing marked
	// it broken yet, account the loss instant itself.
	if s.open[EpisodeBroken] == nil {
		l.openLocked(s, EpisodeBroken, reason, 1, now)
	}
	l.finalizeLocked(s, OutcomeLost, now, reason)
}

// RecordStopped records a clean session stop.
func (l *Ledger) RecordStopped(sid string) {
	if l == nil || sid == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.sessions[sid]
	if s == nil || s.folded {
		return
	}
	l.finalizeLocked(s, OutcomeCompleted, l.now(), "")
}

// finalizeLocked closes every open episode, stamps the outcome, and
// folds the session into its class aggregate (exactly once).
func (l *Ledger) finalizeLocked(s *session, outcome string, now time.Time, reason string) {
	if s.folded {
		return
	}
	for _, kind := range []EpisodeKind{EpisodeDegraded, EpisodeShed, EpisodeFallback, EpisodeBroken} {
		l.closeLocked(s, kind, now)
	}
	for k := range s.pending {
		delete(s.pending, k)
	}
	s.outcome = outcome
	s.ended = now
	s.lastTouch = now
	if reason != "" && s.admissionReason == "" && outcome != OutcomeRejected {
		s.admissionReason = reason
	}
	s.folded = true

	a := l.aggLocked(s.class)
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

// Resolver maps a bus event to the sessions it concerns (the domain
// reuses its flight-recorder resolver).
type Resolver func(eventbus.Event) []string

// TapTopics is the lifecycle topic set a ledger Tap subscribes to.
var TapTopics = []eventbus.Topic{
	eventbus.TopicSessionStarted,
	eventbus.TopicSessionStopped,
	eventbus.TopicSessionRecovered,
	eventbus.TopicSessionRestored,
	eventbus.TopicUserNotification,
}

// Tap subscribes the ledger to the bus's session lifecycle topics
// through a lossless subscription, catching edges that bypass the
// direct hooks (every tap-side mutation is idempotent with them). It
// returns an idempotent cancel function. A nil ledger taps nothing.
func (l *Ledger) Tap(bus *eventbus.Bus, resolve Resolver) (func(), error) {
	if l == nil || bus == nil {
		return func() {}, nil
	}
	sub, err := bus.SubscribeLossless(TapTopics...)
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sub.C() {
			if resolve == nil {
				continue
			}
			for _, sid := range resolve(ev) {
				switch ev.Topic {
				case eventbus.TopicSessionStopped:
					l.RecordStopped(sid)
				case eventbus.TopicUserNotification:
					l.RecordLost(sid, "session lost")
				default:
					// started/recovered/restored arrive after the
					// authoritative hooks; just refresh recency.
					l.touch(sid)
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			sub.Cancel()
			<-done
		})
	}, nil
}

// touch refreshes a known session's eviction recency.
func (l *Ledger) touch(sid string) {
	if l == nil || sid == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.sessions[sid]; s != nil {
		s.lastTouch = l.now()
	}
}

// PublishMetrics refreshes the ledger's labeled gauges on the metrics
// registry: session_deficit_seconds and session_deficit_ratio
// (normalized deficit fraction) and class_availability_ratio, one
// series per class. The domain calls this from its capacity sampler so
// the gauges are fresh on every /metrics scrape.
func (l *Ledger) PublishMetrics() {
	if l == nil || l.reg == nil {
		return
	}
	for _, sc := range l.Scorecards(0) {
		l.reg.LabeledGauge(metrics.SessionDeficitSeconds, "class").With(sc.Class).Set(sc.TotalDeficitSec)
		l.reg.LabeledGauge(metrics.SessionDeficitRatio, "class").With(sc.Class).Set(sc.DeficitRatio)
		l.reg.LabeledGauge(metrics.ClassAvailability, "class").With(sc.Class).Set(sc.Availability)
	}
}
