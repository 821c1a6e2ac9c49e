package core

import (
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ubiqos/internal/device"
	"ubiqos/internal/eventbus"
	"ubiqos/internal/explain"
	"ubiqos/internal/flight"
	"ubiqos/internal/graph"
	"ubiqos/internal/metrics"
	"ubiqos/internal/obslog"
	"ubiqos/internal/qos"
	"ubiqos/internal/trace"
)

// recorder is a recording Observer. It keeps a snapshot of every finished
// record and session step it receives, taken when it receives it, and
// opens traces on its tracer when it has one. Given a metrics registry or
// a session store it feeds the few instruments the supervisor tests
// read, the way the domain's observer does.
type recorder struct {
	tracer  *trace.Tracer
	met     *metrics.Registry
	explain *flight.Recorder

	mu       sync.Mutex
	finished []finishedRecord
	steps    []stepRecord
}

// finishedRecord is what one Finished call carried, copied on arrival.
type finishedRecord struct {
	session, action, err string
	traced               bool
	cost                 float64
	timing               Timing
	placement            map[graph.NodeID]device.ID
	discoveries          int
	searched             bool
}

// stepRecord is what one Step call carried; outcome is empty for a stop
// or a suspend.
type stepRecord struct {
	session, outcome, detail string
	traced                   bool
	down                     time.Duration
	stats                    SupervisorStats
}

func (r *recorder) Begin(req Request, rec explain.Record) (*trace.Trace, *obslog.Logger, *obslog.Logger) {
	name, attrs := "configure", []trace.Attr{trace.Bool("handoff", rec.Handoff)}
	if rec.Ladder != nil {
		name, attrs = "recover", nil
	}
	return r.tracer.StartCtx(req.TraceCtx, name, rec.Session, attrs...), nil, nil
}

func (r *recorder) Finished(req Request, active *ActiveSession, rec explain.Record, tr *trace.Trace, err error) {
	f := finishedRecord{session: rec.Session, action: rec.Action, err: rec.Err, traced: tr != nil,
		discoveries: len(rec.Discoveries), searched: rec.Search != nil}
	if err == nil {
		f.cost, f.timing = active.Cost, active.Timing
		f.placement = make(map[graph.NodeID]device.ID, len(active.Placement))
		for id, dev := range active.Placement {
			f.placement[id] = dev
		}
	}
	r.mu.Lock()
	r.finished = append(r.finished, f)
	r.mu.Unlock()
	r.explain.RecordExplain(rec)
	if r.met == nil {
		return
	}
	if rec.Search != nil && rec.Search.Warm {
		r.met.Counter(metrics.WarmSolves).Inc()
	}
}

func (r *recorder) Step(req Request, rec explain.Record, tr *trace.Trace, down time.Duration, stats SupervisorStats) {
	s := stepRecord{session: req.SessionID, traced: tr != nil, down: down, stats: stats}
	if rec.Ladder != nil {
		s.outcome, s.detail = rec.Ladder.Outcome, rec.Ladder.Detail
	}
	r.mu.Lock()
	r.steps = append(r.steps, s)
	r.mu.Unlock()
	switch s.outcome {
	case "retry", "lost":
		r.explain.RecordExplain(rec)
	case "recovered":
		r.explain.RecordExplain(rec)
		if r.met == nil {
			return
		}
		r.met.Counter(metrics.SessionsRecovered).Inc()
		r.met.Histogram(metrics.RecoveryLatency).Observe(down)
		if rec.Ladder.Restored {
			r.met.Counter(metrics.SessionsRestored).Inc()
		}
		if stats.WarmSpeedup > 0 {
			r.met.Gauge(metrics.WarmSpeedup).Set(stats.WarmSpeedup)
		}
	}
}

// counts returns how many finished records and steps arrived so far.
func (r *recorder) counts() (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.finished), len(r.steps)
}

// lastFinished returns the most recent finished record.
func (r *recorder) lastFinished() finishedRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.finished[len(r.finished)-1]
}

// outcomes counts the steps by outcome ("" for stops and suspends).
func (r *recorder) outcomes() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int)
	for _, s := range r.steps {
		out[s.outcome]++
	}
	return out
}

// once runs one action and checks it reached the observer as exactly one
// finished record and no step, returning that record.
func (r *recorder) once(t *testing.T, name string, action func()) finishedRecord {
	t.Helper()
	f0, s0 := r.counts()
	action()
	f1, s1 := r.counts()
	if f1-f0 != 1 || s1 != s0 {
		t.Fatalf("%s delivered %d finished records and %d steps, want 1 and 0", name, f1-f0, s1-s0)
	}
	return r.lastFinished()
}

// agrees checks a finished record against what the call returned.
func agrees(t *testing.T, name string, f finishedRecord, active *ActiveSession, err error) {
	t.Helper()
	if err != nil {
		if f.err != err.Error() {
			t.Errorf("%s: record error %q, call returned %q", name, f.err, err)
		}
		return
	}
	if f.err != "" {
		t.Fatalf("%s: record error %q on a call that succeeded", name, f.err)
	}
	if f.cost != active.Cost || f.timing != active.Timing {
		t.Errorf("%s: record cost %v timing %+v, call returned %v %+v",
			name, f.cost, f.timing, active.Cost, active.Timing)
	}
	if f.discoveries == 0 || !f.searched {
		t.Errorf("%s: record carries %d discoveries, search %v; want both tiers' provenance",
			name, f.discoveries, f.searched)
	}
	if fmt.Sprint(f.placement) != fmt.Sprint(active.Placement) {
		t.Errorf("%s: record placement %v, call returned %v", name, f.placement, active.Placement)
	}
}

// TestObserverSeesEachActionOnce drives every configurator action through
// a recording observer: each configure, reconfigure, resume or recover is
// one finished record agreeing with what the call returned, after the
// handoff is folded in, its error included; each stop or suspend is one
// step.
func TestObserverSeesEachActionOnce(t *testing.T) {
	f := newFixture(t)
	obs := &recorder{tracer: trace.NewTracer(16)}
	f.cfg.Observer = obs
	c, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{
		SessionID:    "a",
		App:          audioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(35, 44))),
		ClientDevice: "desktop1",
	}
	var active *ActiveSession
	call := func(name string, run func() (*ActiveSession, error)) (*ActiveSession, error) {
		t.Helper()
		var err error
		rec := obs.once(t, name, func() { active, err = run() })
		agrees(t, name, rec, active, err)
		if !rec.traced {
			t.Errorf("%s: finished record carries no trace", name)
		}
		return active, err
	}

	if _, err := call("configure", func() (*ActiveSession, error) { return c.Configure(req) }); err != nil {
		t.Fatal(err)
	}
	ghost := req
	ghost.SessionID, ghost.ClientDevice = "ghost", "ghost"
	if _, err := call("failed configure", func() (*ActiveSession, error) { return c.Configure(ghost) }); err == nil {
		t.Fatal("configure on an unknown portal succeeded")
	}
	// Every player tops out at 44 fps: composition fails, and the record
	// keeps the discoveries it made on the way.
	conflict := req
	conflict.SessionID, conflict.ClientDevice = "conflict", "pda1"
	conflict.UserQoS = qos.V(qos.P(qos.DimFrameRate, qos.Range(45, 50)))
	if _, err := call("qos-conflict configure", func() (*ActiveSession, error) { return c.Configure(conflict) }); err == nil {
		t.Fatal("configure asking 45-50 fps of a 44 fps player succeeded")
	}
	if rec := obs.lastFinished(); rec.discoveries == 0 || rec.searched {
		t.Errorf("qos-conflict record carries %d discoveries, search %v; want discoveries and no search",
			rec.discoveries, rec.searched)
	}

	toPDA := req
	toPDA.ClientDevice = "pda1"
	a, err := call("reconfigure", func() (*ActiveSession, error) { return c.Reconfigure(toPDA) })
	if err != nil {
		t.Fatal(err)
	}
	if a.Timing.InitOrHandoff <= firstFrameBuffering(a.Graph) {
		t.Errorf("reconfigure timing %+v lacks the state transfer", a.Timing)
	}

	_, s0 := obs.counts()
	st, err := c.Suspend("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, s1 := obs.counts(); s1-s0 != 1 {
		t.Fatalf("suspend delivered %d steps, want 1", s1-s0)
	}
	if _, err := call("resume", func() (*ActiveSession, error) { return c.ResumeFrom(req, st) }); err != nil {
		t.Fatal(err)
	}
	if got := obs.lastFinished().action; got != explain.ActionResume {
		t.Errorf("resume record action = %q", got)
	}

	f0, s0 := obs.counts()
	if err := c.Stop("a"); err != nil {
		t.Fatal(err)
	}
	if f1, s1 := obs.counts(); f1 != f0 || s1-s0 != 1 {
		t.Fatalf("stop delivered %d records and %d steps, want 0 and 1", f1-f0, s1-s0)
	}
	// Recovering a session no longer running configures it afresh.
	if _, err := call("recover", func() (*ActiveSession, error) { return c.Recover(req) }); err != nil {
		t.Fatal(err)
	}
	if got := obs.lastFinished().action; got != explain.ActionRecover {
		t.Errorf("recover record action = %q", got)
	}
	if err := c.Stop("a"); err != nil {
		t.Fatal(err)
	}
	if got := obs.outcomes(); len(got) != 1 || got[""] != 3 {
		t.Errorf("steps = %v, want three stops and suspends", got)
	}
}

// TestObserverSeesSupervisorSteps: a recovery that succeeds is one broken
// and one recovered step, with the recovery's configure as one finished
// record per attempt; one that gives up ends in exactly one lost step.
func TestObserverSeesSupervisorSteps(t *testing.T) {
	f := newSuperFixture(t)
	obs := &recorder{}
	f.cfg.Observer = obs
	c, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.c = c
	sup, err := NewSupervisor(f.c, fastOpts(f.bus))
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	for _, id := range []string{"a1", "a2"} {
		if _, err := f.c.Configure(pdaRequest(id)); err != nil {
			t.Fatal(err)
		}
	}
	serverDev := f.c.Session("a1").Placement["server"]
	f.cfg.Devices.Get(serverDev).SetUp(false)
	f.bus.Publish(eventbus.TopicDeviceLeft, string(serverDev))
	if !sup.AwaitIdle(5 * time.Second) {
		t.Fatal("supervisor did not settle")
	}
	st := sup.Stats()
	if st.Recovered != 2 || st.Backlog != 0 {
		t.Fatalf("stats = %+v, want both sessions recovered", st)
	}
	if got := obs.outcomes(); got["broken"] != 2 || got["recovered"] != 2 || len(got) != 2 {
		t.Errorf("steps after the crash = %v, want two broken and two recovered", got)
	}
	if fin, _ := obs.counts(); int64(fin) != 2+st.Attempts {
		t.Errorf("%d finished records, want the two configures and one per attempt (%d)", fin, st.Attempts)
	}
	obs.mu.Lock()
	for _, s := range obs.steps {
		if s.outcome == "recovered" && (s.down <= 0 || s.stats.Recovered == 0) {
			t.Errorf("recovered step %+v lacks its downtime or counters", s)
		}
	}
	obs.mu.Unlock()

	// Kill every desktop: no placement remains and both sessions are lost.
	for _, id := range []device.ID{"desktop1", "desktop2"} {
		f.cfg.Devices.Get(id).SetUp(false)
	}
	f.bus.Publish(eventbus.TopicDeviceLeft, "desktop1")
	if !sup.AwaitIdle(5 * time.Second) {
		t.Fatal("supervisor did not settle")
	}
	got := obs.outcomes()
	if got["lost"] != 2 || got["recovered"] != 2 || got["retry"] == 0 {
		t.Errorf("steps after the second crash = %v, want retries then two lost", got)
	}
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if last := obs.steps[len(obs.steps)-1]; last.outcome != "lost" || !strings.Contains(last.detail, "no feasible placement") || last.stats.Backlog != 0 {
		t.Errorf("last step = %+v, want a lost step with an empty backlog", last)
	}
}

// TestCoreLayering guards the observer seam: the configurator's non-test
// files import none of the observers it reports to.
func TestCoreLayering(t *testing.T) {
	banned := map[string]bool{
		"ubiqos/internal/admission": true,
		"ubiqos/internal/flight":    true,
		"ubiqos/internal/ledger":    true,
		"ubiqos/internal/metrics":   true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); banned[path] {
				t.Errorf("%s imports %s: report to the Observer instead", name, path)
			}
		}
	}
	// The class cap collapses into the label the metrics registry uses for
	// its own overflow.
	if overflowClass != metrics.OverflowLabel {
		t.Errorf("overflow class %q, metrics overflow label %q", overflowClass, metrics.OverflowLabel)
	}
}
