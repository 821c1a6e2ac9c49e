package ledger

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// sample is one timestamped observation on a class ring (the
// internal/capacity ring discipline, reimplemented here because that
// package keeps its ring unexported).
type sample struct {
	t time.Time
	v float64
}

// ring is a fixed-capacity circular sample buffer.
type ring struct {
	samples []sample
	head    int // next overwrite position once full
	n       int
}

func (r *ring) push(s sample) {
	if r.n < len(r.samples) {
		r.samples[(r.head+r.n)%len(r.samples)] = s
		r.n++
		return
	}
	r.samples[r.head] = s
	r.head = (r.head + 1) % len(r.samples)
}

// values returns the sample values oldest first, within the trailing
// window (all of them when window <= 0).
func (r *ring) values(now time.Time, window time.Duration) []float64 {
	out := make([]float64, 0, r.n)
	cutoff := now.Add(-window)
	for i := 0; i < r.n; i++ {
		if s := r.samples[(r.head+i)%len(r.samples)]; window <= 0 || !s.t.Before(cutoff) {
			out = append(out, s.v)
		}
	}
	return out
}

// classAgg accumulates finalized sessions (plus hook-time latency
// samples) for one traffic class.
type classAgg struct {
	started   int64 // sessions admitted (live + finalized, minus rejected)
	completed int64
	lost      int64
	failed    int64
	rejected  int64

	configures        int64
	recoveries        int64
	restorations      int64
	recoveredSessions int64 // finalized sessions with >= 1 recovery
	degradedSessions  int64 // finalized sessions with any degraded time
	mttrMsTotal       float64

	lifetimeSec float64
	brokenSec   float64
	degradedSec float64
	deficitSec  map[string]float64

	configRing   *ring
	recoveryRing *ring
	deficitRings map[string]*ring // per-axis per-session deficit integrals
}

func newClassAgg() *classAgg {
	return &classAgg{
		deficitSec:   make(map[string]float64),
		configRing:   &ring{samples: make([]sample, ringCapacity)},
		recoveryRing: &ring{samples: make([]sample, ringCapacity)},
		deficitRings: make(map[string]*ring),
	}
}

func (a *classAgg) deficitRing(axis string) *ring {
	r := a.deficitRings[axis]
	if r == nil {
		if len(a.deficitRings) >= maxAxes {
			// Fold overflow axes into a catch-all ring, mirroring the
			// labeled-metrics overflow discipline.
			axis = "other"
			if r = a.deficitRings[axis]; r != nil {
				return r
			}
		}
		r = &ring{samples: make([]sample, ringCapacity)}
		a.deficitRings[axis] = r
	}
	return r
}

// Quantiles summarizes a sample distribution.
type Quantiles struct {
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
	Count int     `json:"count"`
}

// quantiles sorts vals and reads each quantile by nearest rank: the
// ceil(q·n)-th smallest value.
func quantiles(vals []float64) Quantiles {
	if len(vals) == 0 {
		return Quantiles{}
	}
	sort.Float64s(vals)
	at := func(q float64) float64 {
		return vals[int(math.Ceil(q*float64(len(vals))))-1]
	}
	return Quantiles{
		P50:   at(0.50),
		P90:   at(0.90),
		P99:   at(0.99),
		Max:   vals[len(vals)-1],
		Count: len(vals),
	}
}

// Scorecard is the per-class delivered-QoS summary.
type Scorecard struct {
	Class    string `json:"class"`
	Sessions int64  `json:"sessions"` // admitted (live + finalized)
	Live     int64  `json:"live"`

	Completed int64 `json:"completed"`
	Lost      int64 `json:"lost"`
	Failed    int64 `json:"failed"`
	Rejected  int64 `json:"rejected"`

	Recoveries   int64 `json:"recoveries"`
	Restorations int64 `json:"restorations"`

	// Ratios are over admitted sessions (Sessions).
	RecoveredRatio float64 `json:"recoveredRatio"`
	DegradedRatio  float64 `json:"degradedRatio"`
	LostRatio      float64 `json:"lostRatio"`

	// Availability is 1 - broken-time / lifetime; TimeDegradedFrac is
	// the union of degradation episodes over lifetime.
	Availability     float64 `json:"availability"`
	TimeDegradedFrac float64 `json:"timeDegradedFrac"`

	LifetimeSec float64 `json:"lifetimeSec"`
	BrokenSec   float64 `json:"brokenSec"`
	DegradedSec float64 `json:"degradedSec"`

	// TotalDeficitSec sums the per-axis deficit integrals; DeficitRatio
	// normalizes it by lifetime x axis count into a 0..1 deficit
	// fraction ("what share of the asked-for QoS-time was not
	// delivered").
	TotalDeficitSec float64            `json:"totalDeficitSec"`
	DeficitRatio    float64            `json:"deficitRatio"`
	DeficitSec      map[string]float64 `json:"deficitSec,omitempty"`

	// DeficitPerAxis holds quantiles of the per-session deficit
	// integral, per axis, over the requested window.
	DeficitPerAxis map[string]Quantiles `json:"deficitPerAxis,omitempty"`

	ConfigureMs Quantiles `json:"configureMs"`
	RecoveryMs  Quantiles `json:"recoveryMs"`
	MTTRMsAvg   float64   `json:"mttrMsAvg"`
}

// Scorecards computes the per-class scorecards, merging finalized
// aggregates with the live accounts' current contributions (their
// reports, open episodes integrated up to now). window > 0 restricts the
// latency and deficit quantiles to samples within the trailing window;
// counters and ratios are lifetime. Classes sort by name.
func (l *Ledger) Scorecards(live []*Account, window time.Duration) []Scorecard {
	now := l.now()

	type work struct {
		agg  classAgg // shallow copy of counters/accumulators
		def  map[string]float64
		live int64
		// transient per-session deficit samples from live sessions
		liveDef map[string][]float64
	}
	byClass := make(map[string]*work, len(l.classes))
	for class, a := range l.classes {
		w := &work{agg: *a, def: make(map[string]float64, len(a.deficitSec)), liveDef: make(map[string][]float64)}
		for k, v := range a.deficitSec {
			w.def[k] = v
		}
		byClass[class] = w
	}
	for _, s := range live {
		w := byClass[s.class]
		if w == nil {
			continue
		}
		rep := l.report(s, now)
		w.live++
		w.agg.lifetimeSec += max(now.Sub(s.started).Seconds(), 0)
		w.agg.brokenSec += rep.BrokenSec
		w.agg.degradedSec += rep.DegradedSec
		if s.recoveries > 0 {
			w.agg.recoveredSessions++
		}
		if rep.DegradedSec > 0 || s.restorations > 0 {
			w.agg.degradedSessions++
		}
		for _, axis := range s.axes {
			d := rep.DeficitSec[axis]
			w.def[axis] += d
			w.liveDef[axis] = append(w.liveDef[axis], d)
		}
	}

	out := make([]Scorecard, 0, len(byClass))
	for class, w := range byClass {
		a := w.agg
		sc := Scorecard{
			Class:        class,
			Sessions:     a.started,
			Live:         w.live,
			Completed:    a.completed,
			Lost:         a.lost,
			Failed:       a.failed,
			Rejected:     a.rejected,
			Recoveries:   a.recoveries,
			Restorations: a.restorations,
			LifetimeSec:  a.lifetimeSec,
			BrokenSec:    a.brokenSec,
			DegradedSec:  a.degradedSec,
			DeficitSec:   w.def,
			Availability: 1,
		}
		if a.started > 0 {
			sc.RecoveredRatio = float64(a.recoveredSessions) / float64(a.started)
			sc.DegradedRatio = float64(a.degradedSessions) / float64(a.started)
			sc.LostRatio = float64(a.lost) / float64(a.started)
		}
		if a.lifetimeSec > 0 {
			sc.Availability = 1 - a.brokenSec/a.lifetimeSec
			if sc.Availability < 0 {
				sc.Availability = 0
			}
			sc.TimeDegradedFrac = a.degradedSec / a.lifetimeSec
			if sc.TimeDegradedFrac > 1 {
				sc.TimeDegradedFrac = 1
			}
		}
		for _, d := range w.def {
			sc.TotalDeficitSec += d
		}
		if axes := len(w.def); axes > 0 && a.lifetimeSec > 0 {
			sc.DeficitRatio = sc.TotalDeficitSec / (a.lifetimeSec * float64(axes))
			if sc.DeficitRatio > 1 {
				sc.DeficitRatio = 1
			}
		}
		if a.recoveries > 0 {
			sc.MTTRMsAvg = a.mttrMsTotal / float64(a.recoveries)
		}
		sc.ConfigureMs = quantiles(a.configRing.values(now, window))
		sc.RecoveryMs = quantiles(a.recoveryRing.values(now, window))
		if len(a.deficitRings) > 0 || len(w.liveDef) > 0 {
			sc.DeficitPerAxis = make(map[string]Quantiles)
			axes := make(map[string]bool)
			for axis := range a.deficitRings {
				axes[axis] = true
			}
			for axis := range w.liveDef {
				axes[axis] = true
			}
			for axis := range axes {
				var vals []float64
				if r := a.deficitRings[axis]; r != nil {
					vals = r.values(now, window)
				}
				vals = append(vals, w.liveDef[axis]...)
				sc.DeficitPerAxis[axis] = quantiles(vals)
			}
		}
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// SessionReport is the public per-session ledger snapshot.
type SessionReport struct {
	Session         string     `json:"session"`
	Class           string     `json:"class"`
	Outcome         string     `json:"outcome"`
	Admission       string     `json:"admission,omitempty"`
	AdmissionReason string     `json:"admissionReason,omitempty"`
	Requested       []string   `json:"requested,omitempty"` // "dim=value" pairs
	Started         time.Time  `json:"started"`
	Ended           *time.Time `json:"ended,omitempty"`

	Configures      int64   `json:"configures"`
	LastConfigureMs float64 `json:"lastConfigureMs,omitempty"`
	Recoveries      int64   `json:"recoveries"`
	Restorations    int64   `json:"restorations"`
	MTTRMsAvg       float64 `json:"mttrMsAvg,omitempty"`

	BrokenSec   float64            `json:"brokenSec"`
	DegradedSec float64            `json:"degradedSec"`
	DeficitSec  map[string]float64 `json:"deficitSec,omitempty"`

	Episodes      []Episode `json:"episodes,omitempty"` // closed, oldest first
	Open          []Episode `json:"open,omitempty"`     // currently open
	EpisodesTotal uint64    `json:"episodesTotal"`      // lifetime, incl. trimmed
}

// Report snapshots one session's account, integrating open episodes to
// now.
func (l *Ledger) Report(s *Account) SessionReport { return l.report(s, l.now()) }

func (l *Ledger) report(s *Account, now time.Time) SessionReport {
	rep := SessionReport{
		Session:         s.id,
		Class:           s.class,
		Outcome:         s.outcome,
		Admission:       s.admission,
		AdmissionReason: s.admissionReason,
		Started:         s.started,
		Configures:      s.configures,
		LastConfigureMs: s.lastConfigMs,
		Recoveries:      s.recoveries,
		Restorations:    s.restorations,
		BrokenSec:       s.brokenSec,
		DegradedSec:     s.degradedSec,
		EpisodesTotal:   s.episodesTotal,
	}
	if !s.ended.IsZero() {
		t := s.ended
		rep.Ended = &t
	}
	for _, p := range s.requested {
		rep.Requested = append(rep.Requested, p.Name+"="+p.Value.String())
	}
	if s.recoveries > 0 {
		rep.MTTRMsAvg = s.mttrMsTotal / float64(s.recoveries)
	}
	if len(s.deficitSec) > 0 || len(s.open) > 0 {
		rep.DeficitSec = make(map[string]float64, len(s.deficitSec))
		for k, v := range s.deficitSec {
			rep.DeficitSec[k] = v
		}
	}
	rep.Episodes = append(rep.Episodes, s.closed...)
	for _, ep := range s.open {
		e := *ep
		e.DurSec = now.Sub(e.Start).Seconds()
		if e.DurSec < 0 {
			e.DurSec = 0
		}
		if ep.Kind == EpisodeBroken {
			rep.BrokenSec += e.DurSec
		}
		if ep.Frac > 0 {
			for _, axis := range s.axes {
				rep.DeficitSec[axis] += ep.Frac * e.DurSec
			}
		}
		rep.Open = append(rep.Open, e)
	}
	if s.degOpen > 0 {
		if d := now.Sub(s.degSince).Seconds(); d > 0 {
			rep.DegradedSec += d
		}
	}
	sort.Slice(rep.Open, func(i, j int) bool { return rep.Open[i].Start.Before(rep.Open[j].Start) })
	return rep
}

// Render formats the report as text, one episode per line, oldest first.
func (rep SessionReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ledger %s class=%s outcome=%s", rep.Session, rep.Class, rep.Outcome)
	if rep.Admission != "" {
		fmt.Fprintf(&b, " admission=%s", rep.Admission)
	}
	b.WriteByte('\n')
	if len(rep.Requested) > 0 {
		fmt.Fprintf(&b, "  requested: %s\n", strings.Join(rep.Requested, " "))
	}
	fmt.Fprintf(&b, "  configures=%d recoveries=%d restorations=%d broken=%.3fs degraded=%.3fs\n",
		rep.Configures, rep.Recoveries, rep.Restorations, rep.BrokenSec, rep.DegradedSec)
	if len(rep.DeficitSec) > 0 {
		axes := make([]string, 0, len(rep.DeficitSec))
		for a := range rep.DeficitSec {
			axes = append(axes, a)
		}
		sort.Strings(axes)
		parts := make([]string, len(axes))
		for i, a := range axes {
			parts[i] = fmt.Sprintf("%s=%.3f", a, rep.DeficitSec[a])
		}
		fmt.Fprintf(&b, "  deficit-integral (frac*sec): %s\n", strings.Join(parts, " "))
	}
	for _, ep := range rep.Episodes {
		fmt.Fprintf(&b, "  %s %-18s %.3fs", ep.Start.Format("15:04:05.000"), ep.Kind, ep.DurSec)
		if ep.Reason != "" {
			fmt.Fprintf(&b, " (%s)", ep.Reason)
		}
		b.WriteByte('\n')
	}
	for _, ep := range rep.Open {
		fmt.Fprintf(&b, "  %s %-18s %.3fs OPEN", ep.Start.Format("15:04:05.000"), ep.Kind, ep.DurSec)
		if ep.Reason != "" {
			fmt.Fprintf(&b, " (%s)", ep.Reason)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderScorecards formats the scorecards as a fixed-width table, one
// class per row, the shape `qosctl report` prints.
func RenderScorecards(cards []Scorecard) string {
	if len(cards) == 0 {
		return "no sessions recorded\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %5s %5s %5s %5s %5s  %6s %6s %6s  %6s %7s  %9s %9s\n",
		"CLASS", "SESS", "LIVE", "DONE", "LOST", "REJ",
		"REC%", "DEG%", "LOST%", "AVAIL", "DEFICIT", "CFG-P99MS", "REC-P99MS")
	for _, sc := range cards {
		fmt.Fprintf(&b, "%-12s %5d %5d %5d %5d %5d  %6.1f %6.1f %6.1f  %6.3f %7.3f  %9.2f %9.2f\n",
			sc.Class, sc.Sessions, sc.Live, sc.Completed, sc.Lost, sc.Rejected,
			sc.RecoveredRatio*100, sc.DegradedRatio*100, sc.LostRatio*100,
			sc.Availability, sc.DeficitRatio,
			sc.ConfigureMs.P99, sc.RecoveryMs.P99)
	}
	for _, sc := range cards {
		if len(sc.DeficitPerAxis) == 0 {
			continue
		}
		axes := make([]string, 0, len(sc.DeficitPerAxis))
		for a := range sc.DeficitPerAxis {
			axes = append(axes, a)
		}
		sort.Strings(axes)
		for _, a := range axes {
			q := sc.DeficitPerAxis[a]
			fmt.Fprintf(&b, "deficit %s/%s: p50=%.3f p90=%.3f p99=%.3f max=%.3f n=%d\n",
				sc.Class, a, q.P50, q.P90, q.P99, q.Max, q.Count)
		}
	}
	return b.String()
}
