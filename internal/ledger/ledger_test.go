package ledger_test

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"ubiqos/internal/explain"
	"ubiqos/internal/flight"
	"ubiqos/internal/ledger"
	"ubiqos/internal/metrics"
	"ubiqos/internal/qos"
	"ubiqos/internal/trace"
)

// clock is a manually advanced test clock for deterministic integrals.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock {
	return &clock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func askFramerate() qos.Vector {
	return qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44)))
}

// The observer reports each test feeds the store, one per ledger step.

func configured(l *flight.Recorder, sid, class string, ask qos.Vector, took time.Duration, action string) {
	l.Finished(trace.Summary{}, explain.Record{Session: sid, Action: action}, class, ask, took)
}

func configureFailed(l *flight.Recorder, sid, class, reason string) {
	l.Finished(trace.Summary{}, explain.Record{Session: sid, Action: explain.ActionConfigure, Err: reason}, class, nil, 0)
}

func supervised(l *flight.Recorder, sid string, step explain.LadderStep, down time.Duration) {
	l.Step(trace.Summary{}, explain.Record{Session: sid, Action: explain.ActionRecoveryStep, Ladder: &step}, down)
}

func broken(l *flight.Recorder, sid, reason string) {
	supervised(l, sid, explain.LadderStep{Outcome: "broken", Reason: reason}, 0)
}

func recovered(l *flight.Recorder, sid string, mttr time.Duration, degraded bool, shed []string, fallback string) {
	supervised(l, sid, explain.LadderStep{Outcome: "recovered", Degraded: degraded, Shed: shed, PlacementFallback: fallback}, mttr)
}

func lost(l *flight.Recorder, sid, reason string) {
	supervised(l, sid, explain.LadderStep{Outcome: "lost", Detail: reason}, 0)
}

func stop(l *flight.Recorder, sid string) {
	l.Step(trace.Summary{}, explain.Record{Session: sid}, 0)
}

func TestNilLedgerIsNoOp(t *testing.T) {
	var l *flight.Recorder
	l.RecordAdmission("s", "c", "admit", "")
	configured(l, "s", "c", askFramerate(), time.Millisecond, "configure")
	configureFailed(l, "s", "c", "boom")
	broken(l, "s", "device lost")
	recovered(l, "s", time.Millisecond, false, nil, "")
	lost(l, "s", "gone")
	stop(l, "s")
	l.PublishMetrics()
	if got := l.Scorecards(0); got != nil {
		t.Fatalf("nil store Scorecards = %v, want nil", got)
	}
	if got := l.LedgerSessions(); got != nil {
		t.Fatalf("nil store LedgerSessions = %v, want nil", got)
	}
	if _, ok := l.Report("s"); ok {
		t.Fatal("nil store Report reported a session")
	}
}

func TestDeficitIntegralAndRestoration(t *testing.T) {
	ck := newClock()
	l := flight.New(ledger.Options{Now: ck.now})

	l.RecordAdmission("s1", "voice", "admit", "")
	configured(l, "s1", "voice", askFramerate(), 5*time.Millisecond, "configure")
	ck.advance(2 * time.Second)
	// Broken for 2s: full deficit on every requested axis.
	broken(l, "s1", "crash")
	ck.advance(2 * time.Second)
	// The recovery ladder's degraded rung sheds an optional component and
	// falls back to the heuristic: degraded, but no numeric deficit.
	recovered(l, "s1", 2*time.Second, true, []string{"visualizer"}, "heuristic")
	ck.advance(10 * time.Second)
	// Restored to full quality: both episodes close and a restoration is
	// stamped.
	recovered(l, "s1", 0, false, nil, "")

	rep, ok := l.Report("s1")
	if !ok {
		t.Fatal("no report for s1")
	}
	if !near(rep.DeficitSec[qos.DimFrameRate], 2.0) {
		t.Fatalf("deficit = %v, want 2.0 (1.0 x 2s broken)", rep.DeficitSec[qos.DimFrameRate])
	}
	if !near(rep.DegradedSec, 10) || !near(rep.BrokenSec, 2) {
		t.Fatalf("degradedSec = %v brokenSec = %v, want 10 and 2", rep.DegradedSec, rep.BrokenSec)
	}
	if rep.Restorations != 1 {
		t.Fatalf("restorations = %d, want 1", rep.Restorations)
	}
	kinds := map[ledger.EpisodeKind]int{}
	for _, ep := range rep.Episodes {
		kinds[ep.Kind]++
	}
	if kinds[ledger.EpisodeBroken] != 1 || kinds[ledger.EpisodeShed] != 1 ||
		kinds[ledger.EpisodeFallback] != 1 || kinds[ledger.EpisodeRestored] != 1 {
		t.Fatalf("closed episodes = %v, want one broken, shed-optional, heuristic-fallback and restored", kinds)
	}
	if rep.Outcome != ledger.OutcomeRunning {
		t.Fatalf("outcome = %q, want running", rep.Outcome)
	}
	if len(rep.Requested) != 1 || rep.Requested[0] != qos.DimFrameRate+"=[30,44]" {
		t.Fatalf("requested = %v", rep.Requested)
	}

	ck.advance(time.Second)
	stop(l, "s1")
	rep, _ = l.Report("s1")
	if rep.Outcome != ledger.OutcomeCompleted {
		t.Fatalf("outcome = %q, want completed", rep.Outcome)
	}
	cards := l.Scorecards(0)
	if len(cards) != 1 || cards[0].Class != "voice" {
		t.Fatalf("scorecards = %+v", cards)
	}
	sc := cards[0]
	if sc.Sessions != 1 || sc.Completed != 1 || sc.Restorations != 1 {
		t.Fatalf("scorecard = %+v", sc)
	}
	if !near(sc.TotalDeficitSec, 2.0) {
		t.Fatalf("total deficit = %v, want 2.0", sc.TotalDeficitSec)
	}
	// 15s lifetime, 10s degraded, 2s broken.
	if !near(sc.LifetimeSec, 15) || !near(sc.DegradedSec, 10) {
		t.Fatalf("lifetime=%v degraded=%v", sc.LifetimeSec, sc.DegradedSec)
	}
	if !near(sc.Availability, 13.0/15) {
		t.Fatalf("availability = %v, want 13/15", sc.Availability)
	}
	q, ok := sc.DeficitPerAxis[qos.DimFrameRate]
	if !ok || q.Count != 1 || !near(q.Max, 2.0) {
		t.Fatalf("deficit quantiles = %+v", q)
	}
}

func TestBrokenEpisodeAndMTTR(t *testing.T) {
	ck := newClock()
	l := flight.New(ledger.Options{Now: ck.now})

	configured(l, "s1", "media", askFramerate(), time.Millisecond, "configure")
	ck.advance(5 * time.Second)
	broken(l, "s1", "device lost")
	broken(l, "s1", "device lost again") // idempotent: no reopen
	ck.advance(2 * time.Second)
	recovered(l, "s1", 2*time.Second, false, nil, "")

	rep, _ := l.Report("s1")
	if !near(rep.BrokenSec, 2) {
		t.Fatalf("brokenSec = %v, want 2", rep.BrokenSec)
	}
	if rep.Recoveries != 1 || !near(rep.MTTRMsAvg, 2000) {
		t.Fatalf("recoveries=%d mttr=%v", rep.Recoveries, rep.MTTRMsAvg)
	}
	// Broken time is full deficit across the requested axes.
	if !near(rep.DeficitSec[qos.DimFrameRate], 2) {
		t.Fatalf("deficit = %v, want 2 (1.0 x 2s)", rep.DeficitSec[qos.DimFrameRate])
	}
	// A session that was never degraded does not count a restoration.
	if rep.Restorations != 0 {
		t.Fatalf("restorations = %d, want 0", rep.Restorations)
	}

	ck.advance(3 * time.Second)
	stop(l, "s1")
	sc := l.Scorecards(0)[0]
	// 10s lifetime, 2s broken => availability 0.8.
	if !near(sc.Availability, 0.8) {
		t.Fatalf("availability = %v, want 0.8", sc.Availability)
	}
	if sc.RecoveredRatio != 1 {
		t.Fatalf("recoveredRatio = %v, want 1", sc.RecoveredRatio)
	}
}

func TestRestorationSurvivesBreakage(t *testing.T) {
	ck := newClock()
	l := flight.New(ledger.Options{Now: ck.now})

	// An admit-degraded configure sheds optionals; breakage closes the
	// shed episode but remembers it; a degraded recovery keeps the session
	// degraded; the final full recovery counts exactly one restoration.
	l.RecordAdmission("s1", "voice", "admit-degraded", "approaching saturation")
	configured(l, "s1", "voice", askFramerate(), time.Millisecond, "configure")
	ck.advance(time.Second)
	broken(l, "s1", "crash")
	ck.advance(time.Second)
	recovered(l, "s1", time.Second, true, []string{"visualizer"}, "heuristic")
	ck.advance(time.Second)
	broken(l, "s1", "crash again")
	ck.advance(time.Second)
	recovered(l, "s1", time.Second, false, nil, "")

	rep, _ := l.Report("s1")
	if rep.Restorations != 1 {
		t.Fatalf("restorations = %d, want 1", rep.Restorations)
	}
	if !near(rep.BrokenSec, 2) {
		t.Fatalf("brokenSec = %v, want 2", rep.BrokenSec)
	}
	// Degraded union: 1s shed at admission + 1s of overlapping
	// shed/fallback after the degraded recovery; broken time is not
	// degraded time.
	if !near(rep.DegradedSec, 2) {
		t.Fatalf("degradedSec = %v, want 2", rep.DegradedSec)
	}
	if !near(rep.DeficitSec[qos.DimFrameRate], 2) {
		t.Fatalf("deficit = %v, want 2 (1.0 x 2s broken)", rep.DeficitSec[qos.DimFrameRate])
	}
	var restoredMarkers int
	for _, ep := range rep.Episodes {
		if ep.Kind == ledger.EpisodeRestored {
			restoredMarkers++
		}
	}
	if restoredMarkers != 1 {
		t.Fatalf("restored markers = %d, want 1", restoredMarkers)
	}
}

func TestAdmissionOutcomes(t *testing.T) {
	ck := newClock()
	l := flight.New(ledger.Options{Now: ck.now})

	l.RecordAdmission("ok", "voice", "admit", "")
	configured(l, "ok", "voice", askFramerate(), time.Millisecond, "configure")
	l.RecordAdmission("no", "voice", "reject", "space saturated")
	l.RecordAdmission("deg", "voice", "admit-degraded", "approaching saturation")
	configured(l, "deg", "voice", askFramerate(), time.Millisecond, "configure")

	if _, ok := l.Report("no"); ok {
		t.Fatal("rejected session occupies a table slot")
	}
	rep, _ := l.Report("deg")
	if len(rep.Open) != 1 || rep.Open[0].Kind != ledger.EpisodeShed {
		t.Fatalf("admit-degraded open episodes = %+v, want one shed-optional", rep.Open)
	}
	sc := l.Scorecards(0)[0]
	if sc.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", sc.Rejected)
	}
	if sc.Sessions != 2 {
		t.Fatalf("sessions = %d, want 2 (reject does not dilute the base)", sc.Sessions)
	}
}

// TestRejectCountsOnce: a reject that reaches the gate with the ID of a
// session whose account is still open — one a failed recovery tore down,
// so the configurator no longer holds it — is one rejected arrival, and
// the session that ran keeps its start and its outcome. A live account
// that never configured finalizes as rejected, counted once too.
func TestRejectCountsOnce(t *testing.T) {
	l := flight.New(ledger.Options{Now: newClock().now})
	configured(l, "ran", "voice", askFramerate(), time.Millisecond, "configure")
	broken(l, "ran", "device lost")
	l.RecordAdmission("ran", "voice", "reject", "space saturated")
	if rep, _ := l.Report("ran"); rep.Outcome != ledger.OutcomeRunning || rep.Admission != "" {
		t.Fatalf("reject rewrote the account of a session that ran: outcome %q admission %q", rep.Outcome, rep.Admission)
	}
	sc := l.Scorecards(0)[0]
	if sc.Sessions != 1 || sc.Live != 1 || sc.Rejected != 1 {
		t.Fatalf("scorecard = sessions %d live %d rejected %d, want 1/1/1", sc.Sessions, sc.Live, sc.Rejected)
	}

	l.RecordAdmission("fresh", "voice", "admit", "")
	l.RecordAdmission("fresh", "voice", "reject", "space saturated")
	if rep, _ := l.Report("fresh"); rep.Outcome != ledger.OutcomeRejected {
		t.Fatalf("unconfigured account after a reject: outcome %q, want rejected", rep.Outcome)
	}
	sc = l.Scorecards(0)[0]
	if sc.Sessions != 1 || sc.Rejected != 2 {
		t.Fatalf("scorecard = sessions %d rejected %d, want 1/2", sc.Sessions, sc.Rejected)
	}
}

func TestConfigureFailedFinalizesOnlyFreshSessions(t *testing.T) {
	ck := newClock()
	l := flight.New(ledger.Options{Now: ck.now})

	configureFailed(l, "fresh", "voice", "no fit")
	rep, _ := l.Report("fresh")
	if rep.Outcome != ledger.OutcomeFailed {
		t.Fatalf("outcome = %q, want failed", rep.Outcome)
	}

	configured(l, "run", "voice", askFramerate(), time.Millisecond, "configure")
	configureFailed(l, "run", "voice", "transient recovery failure")
	rep, _ = l.Report("run")
	if rep.Outcome != ledger.OutcomeRunning {
		t.Fatalf("outcome = %q, want running (configured sessions survive failed attempts)", rep.Outcome)
	}

	sc := l.Scorecards(0)[0]
	if sc.Failed != 1 {
		t.Fatalf("failed = %d, want 1", sc.Failed)
	}
}

// TestBoundedEpisodeHistory drives table-driven episode loads through
// one session and checks the retained history stays within the ledger's
// per-session cap while the lifetime counter keeps the true total.
func TestBoundedEpisodeHistory(t *testing.T) {
	cases := []struct {
		name   string
		cycles int
	}{
		{"under cap", 4},
		{"at cap", ledger.MaxEpisodes},
		{"over cap", 3 * ledger.MaxEpisodes},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck := newClock()
			l := flight.New(ledger.Options{Now: ck.now})
			for i := 0; i < tc.cycles; i++ {
				broken(l, "s", "crash")
				ck.advance(time.Second)
				recovered(l, "s", time.Second, false, nil, "")
				ck.advance(time.Second)
			}
			rep, _ := l.Report("s")
			if want := min(tc.cycles, ledger.MaxEpisodes); len(rep.Episodes) != want {
				t.Fatalf("retained %d episodes, want %d (cap %d)", len(rep.Episodes), want, ledger.MaxEpisodes)
			}
			// One broken episode closes per cycle.
			if rep.EpisodesTotal != uint64(tc.cycles) {
				t.Fatalf("episodesTotal = %d, want %d", rep.EpisodesTotal, tc.cycles)
			}
			if !near(rep.BrokenSec, float64(tc.cycles)) {
				t.Fatalf("brokenSec = %v, want %d (trimmed episodes keep their integrals)",
					rep.BrokenSec, tc.cycles)
			}
		})
	}
}

// tableCap is the session store's session-table bound.
const tableCap = 128

func TestSessionTableEviction(t *testing.T) {
	ck := newClock()
	l := flight.New(ledger.Options{Now: ck.now})

	const sessions, stopped = 2 * tableCap, 2*tableCap - 2
	for i := 0; i < sessions; i++ {
		sid := fmt.Sprintf("s%d", i)
		configured(l, sid, "voice", askFramerate(), time.Millisecond, "configure")
		ck.advance(time.Second)
		if i < stopped {
			stop(l, sid)
		}
	}
	if got := len(l.LedgerSessions()); got > tableCap {
		t.Fatalf("table holds %d sessions, cap %d", got, tableCap)
	}
	// Eviction must not lose class accounting: every session admitted,
	// the stopped ones completed, the rest still live.
	sc := l.Scorecards(0)[0]
	if sc.Sessions != sessions || sc.Completed != stopped || sc.Live != sessions-stopped {
		t.Fatalf("scorecard after eviction = sessions %d completed %d live %d, want %d/%d/%d",
			sc.Sessions, sc.Completed, sc.Live, sessions, stopped, sessions-stopped)
	}
}

// TestLiveSessionsOutlastTheTableBound: the table bound applies to
// finished sessions only, so a live session past it is kept, not folded
// as lost; once they all stop, the table sheds down to its bound.
func TestLiveSessionsOutlastTheTableBound(t *testing.T) {
	ck := newClock()
	l := flight.New(ledger.Options{Now: ck.now})

	const sessions = tableCap + 3
	for i := 0; i < sessions; i++ {
		configured(l, fmt.Sprintf("s%d", i), "voice", askFramerate(), time.Millisecond, "configure")
		ck.advance(time.Second)
	}
	sc := l.Scorecards(0)[0]
	if sc.Sessions != sessions || sc.Lost != 0 || sc.Live != sessions {
		t.Fatalf("sessions=%d lost=%d live=%d, want %d/0/%d", sc.Sessions, sc.Lost, sc.Live, sessions, sessions)
	}
	if rep, ok := l.Report("s0"); !ok || rep.Outcome != ledger.OutcomeRunning {
		t.Fatalf("the oldest live session: %+v (found %v), want running", rep, ok)
	}
	for i := 0; i < sessions; i++ {
		stop(l, fmt.Sprintf("s%d", i))
	}
	if got := len(l.LedgerSessions()); got > tableCap {
		t.Fatalf("table holds %d sessions after every stop, cap %d", got, tableCap)
	}
	if sc := l.Scorecards(0)[0]; sc.Completed != sessions || sc.Live != 0 || sc.Lost != 0 {
		t.Fatalf("completed=%d live=%d lost=%d, want %d/0/0", sc.Completed, sc.Live, sc.Lost, sessions)
	}
}

// TestOutOfOrderArrival feeds events in scrambled orders; durations must
// clamp at zero and the ledger must not panic or go negative.
func TestOutOfOrderArrival(t *testing.T) {
	cases := []struct {
		name string
		run  func(l *flight.Recorder, ck *clock)
	}{
		{"recover before configure", func(l *flight.Recorder, ck *clock) {
			recovered(l, "s", time.Second, false, nil, "")
			configured(l, "s", "voice", askFramerate(), time.Millisecond, "recover")
		}},
		{"broken after stop", func(l *flight.Recorder, ck *clock) {
			configured(l, "s", "voice", askFramerate(), time.Millisecond, "configure")
			stop(l, "s")
			broken(l, "s", "late event")
			lost(l, "s", "late loss")
		}},
		{"stop unknown session", func(l *flight.Recorder, ck *clock) {
			stop(l, "never-seen")
		}},
		{"lost before configure", func(l *flight.Recorder, ck *clock) {
			lost(l, "s", "immediate loss")
			configured(l, "s", "voice", askFramerate(), time.Millisecond, "configure")
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck := newClock()
			l := flight.New(ledger.Options{Now: ck.now})
			tc.run(l, ck)
			for _, sc := range l.Scorecards(0) {
				if sc.BrokenSec < 0 || sc.DegradedSec < 0 || sc.TotalDeficitSec < 0 {
					t.Fatalf("negative accounting: %+v", sc)
				}
				if sc.Availability < 0 || sc.Availability > 1 {
					t.Fatalf("availability %v out of [0,1]", sc.Availability)
				}
			}
		})
	}

	t.Run("stop wins over late lost", func(t *testing.T) {
		ck := newClock()
		l := flight.New(ledger.Options{Now: ck.now})
		configured(l, "s", "voice", askFramerate(), time.Millisecond, "configure")
		stop(l, "s")
		lost(l, "s", "late")
		rep, _ := l.Report("s")
		if rep.Outcome != ledger.OutcomeCompleted {
			t.Fatalf("outcome = %q, want completed (first finalize wins)", rep.Outcome)
		}
		sc := l.Scorecards(0)[0]
		if sc.Completed != 1 || sc.Lost != 0 {
			t.Fatalf("completed=%d lost=%d, want 1/0", sc.Completed, sc.Lost)
		}
	})
}

func TestClassCardinalityCap(t *testing.T) {
	ck := newClock()
	l := flight.New(ledger.Options{Now: ck.now})
	for i := 0; i < metrics.DefaultLabelCardinality+10; i++ {
		configured(l, fmt.Sprintf("s%d", i), fmt.Sprintf("class%03d", i), askFramerate(), time.Millisecond, "configure")
	}
	cards := l.Scorecards(0)
	if len(cards) > metrics.DefaultLabelCardinality+1 {
		t.Fatalf("%d classes tracked, cap %d + overflow", len(cards), metrics.DefaultLabelCardinality)
	}
	var overflow bool
	for _, sc := range cards {
		if sc.Class == metrics.OverflowLabel {
			overflow = true
			if sc.Sessions < 10 {
				t.Fatalf("overflow class holds %d sessions, want >= 10", sc.Sessions)
			}
		}
	}
	if !overflow {
		t.Fatal("no overflow class despite exceeding the cardinality cap")
	}
}

func TestScorecardWindow(t *testing.T) {
	ck := newClock()
	l := flight.New(ledger.Options{Now: ck.now})

	configured(l, "old", "voice", askFramerate(), 100*time.Millisecond, "configure")
	stop(l, "old")
	ck.advance(time.Hour)
	configured(l, "new", "voice", askFramerate(), 5*time.Millisecond, "configure")
	stop(l, "new")

	all := l.Scorecards(0)[0]
	if all.ConfigureMs.Count != 2 {
		t.Fatalf("unwindowed configure count = %d, want 2", all.ConfigureMs.Count)
	}
	recent := l.Scorecards(time.Minute)[0]
	if recent.ConfigureMs.Count != 1 || !near(recent.ConfigureMs.Max, 5) {
		t.Fatalf("windowed configure quantiles = %+v, want only the 5ms sample", recent.ConfigureMs)
	}
	// Counters are lifetime regardless of window.
	if recent.Completed != 2 {
		t.Fatalf("windowed completed = %d, want 2", recent.Completed)
	}
}

// TestQuantilesNearestRank: scorecard quantiles read the ceil(q·n)-th
// smallest sample, as the metrics histogram and the warm bench do.
func TestQuantilesNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n             int
		p50, p90, p99 float64
	}{
		{5, 3, 5, 5},
		{10, 5, 9, 10},
	} {
		l := flight.New(ledger.Options{Now: newClock().now})
		for i := 1; i <= tc.n; i++ {
			configured(l, fmt.Sprintf("s%d", i), "voice", askFramerate(), time.Duration(i)*time.Millisecond, "configure")
		}
		q := l.Scorecards(0)[0].ConfigureMs
		if q.Count != tc.n || !near(q.P50, tc.p50) || !near(q.P90, tc.p90) || !near(q.P99, tc.p99) || !near(q.Max, float64(tc.n)) {
			t.Errorf("quantiles over 1..%d ms = %+v, want p50 %g p90 %g p99 %g max %d",
				tc.n, q, tc.p50, tc.p90, tc.p99, tc.n)
		}
	}
}

func TestPublishMetrics(t *testing.T) {
	ck := newClock()
	reg := metrics.NewRegistry()
	l := flight.New(ledger.Options{Metrics: reg, Now: ck.now})

	configured(l, "s", "voice", askFramerate(), time.Millisecond, "configure")
	ck.advance(10 * time.Second)
	broken(l, "s", "crash")
	ck.advance(10 * time.Second)
	recovered(l, "s", time.Second, false, nil, "")
	stop(l, "s")
	l.PublishMetrics()

	avail, ok := reg.Gauge(metrics.WithLabel(metrics.ClassAvailability, "class", "voice")).Value()
	if !ok || !near(avail, 0.5) {
		t.Fatalf("class_availability_ratio = %v/%v, want 0.5", avail, ok)
	}
	def, ok := reg.Gauge(metrics.WithLabel(metrics.SessionDeficitSeconds, "class", "voice")).Value()
	if !ok || !near(def, 10) {
		t.Fatalf("session_deficit_seconds = %v/%v, want 10", def, ok)
	}
}

// TestConcurrentEpisodeWrites: many goroutines drive the ledger steps
// of overlapping sessions while reading reports and scorecards, under
// -race.
func TestConcurrentEpisodeWrites(t *testing.T) {
	l := flight.New(ledger.Options{})
	const workers = 8
	const perWorker = 64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sid := fmt.Sprintf("w%d-s%d", w, i%16)
				class := fmt.Sprintf("class%d", w%3)
				l.RecordAdmission(sid, class, "admit", "")
				configured(l, sid, class, askFramerate(), time.Millisecond, "configure")
				broken(l, sid, "crash")
				recovered(l, sid, time.Millisecond, i%2 == 0, []string{"opt"}, "heuristic")
				if i%4 == 0 {
					stop(l, sid)
				}
				_ = l.Scorecards(0)
				_, _ = l.Report(sid)
			}
		}(w)
	}
	wg.Wait()

	for _, sc := range l.Scorecards(0) {
		if sc.BrokenSec < 0 || sc.TotalDeficitSec < 0 || sc.Availability < 0 || sc.Availability > 1 {
			t.Fatalf("inconsistent scorecard after stress: %+v", sc)
		}
	}
}
