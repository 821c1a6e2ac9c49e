package domain

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"testing"
	"time"

	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/explain"
	"ubiqos/internal/flight"
	"ubiqos/internal/ledger"
	"ubiqos/internal/metrics"
	"ubiqos/internal/obslog"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
)

// TestSwitchDeviceObservesOneConfigureSample pins the Figure 4 histograms
// to the returned timing: a PC→PDA switch adds one sample to each, equal
// to the session's Timing with the state transfer folded in, and the
// ledger's configure latency is the same total.
func TestSwitchDeviceObservesOneConfigureSample(t *testing.T) {
	d := newSpace(t)
	if _, err := d.StartApp(core.Request{SessionID: "a1", App: audioApp(), ClientDevice: "desktop1"}); err != nil {
		t.Fatal(err)
	}
	handoff := d.Metrics.Histogram(metrics.HandoffTime)
	configure := d.Metrics.Histogram(metrics.ConfigureTime)
	n0, h0, c0 := handoff.Count(), handoff.Sum(), configure.Sum()

	active, err := d.SwitchDevice("a1", "pda1")
	if err != nil {
		t.Fatal(err)
	}
	defer d.StopApp("a1")
	if active.Timing.InitOrHandoff < 100*time.Millisecond {
		t.Fatalf("InitOrHandoff = %v, want the PC→PDA state transfer in it", active.Timing.InitOrHandoff)
	}
	if n := handoff.Count() - n0; n != 1 {
		t.Errorf("%s gained %d samples, want 1", metrics.HandoffTime, n)
	}
	if got := handoff.Sum() - h0; got != active.Timing.InitOrHandoff {
		t.Errorf("%s gained %v, session reports %v", metrics.HandoffTime, got, active.Timing.InitOrHandoff)
	}
	if got := configure.Sum() - c0; got != active.Timing.Total() {
		t.Errorf("%s gained %v, session reports %v", metrics.ConfigureTime, got, active.Timing.Total())
	}
	rep, ok := d.Flight.Report("a1")
	if want := float64(active.Timing.Total()) / float64(time.Millisecond); !ok || rep.LastConfigureMs != want {
		t.Errorf("ledger last configure %vms, session reports %vms", rep.LastConfigureMs, want)
	}
}

// TestSupervisorStepsReachDomain: a recovery driven by the supervisor
// lands on the domain's metrics, ledger, and provenance timeline.
func TestSupervisorStepsReachDomain(t *testing.T) {
	d := newSpace(t)
	sup, err := core.NewSupervisor(d.Configurator, core.SupervisorOptions{Bus: d.Bus, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	if _, err := d.StartApp(core.Request{SessionID: "a1", App: audioApp(), ClientDevice: "pda1",
		UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44)))}); err != nil {
		t.Fatal(err)
	}
	if err := d.FailDevice(d.Configurator.Session("a1").Placement["server"]); err != nil {
		t.Fatal(err)
	}
	if !sup.AwaitIdle(5 * time.Second) {
		t.Fatal("supervisor did not settle")
	}
	m := d.Metrics
	if v := m.Counter(metrics.SessionsRecovered).Value(); v != 1 {
		t.Errorf("%s = %d, want 1", metrics.SessionsRecovered, v)
	}
	if v := m.Counter(metrics.RecoveryAttempts).Value(); v != sup.Stats().Attempts {
		t.Errorf("%s = %d, supervisor counted %d", metrics.RecoveryAttempts, v, sup.Stats().Attempts)
	}
	if n := m.Histogram(metrics.RecoveryLatency).Count(); n != 1 {
		t.Errorf("%s samples = %d, want 1", metrics.RecoveryLatency, n)
	}
	if v, ok := m.Gauge(metrics.RecoveryBacklog).Value(); !ok || v != 0 {
		t.Errorf("%s = %v (set=%v), want 0", metrics.RecoveryBacklog, v, ok)
	}
	if rep, ok := d.Flight.Report("a1"); !ok || rep.Outcome != ledger.OutcomeRunning || rep.Recoveries != 1 {
		t.Errorf("ledger report = %+v, want one recovery of a running session", rep)
	}
	recovered := false
	for _, r := range d.Flight.Explain("a1").Records {
		recovered = recovered || (r.Ladder != nil && r.Ladder.Outcome == "recovered")
	}
	if !recovered {
		t.Error("no recovered ladder step on the provenance timeline")
	}
	if err := d.StopApp("a1"); err != nil {
		t.Fatal(err)
	}
}

// TestDiscardedLoggingAllocatesNothing pins "disabled logging is free"
// where the configurator's log lines are written: a domain logger that
// discards everything below Error must cost a configure+stop exactly what
// no logger costs — no field slice built for a record nobody reads, no
// child logger derived to carry it. (A logger at Warn still derives the
// composer's child, which may warn about missing services.)
//
// testing.AllocsPerRun counts the allocations of every goroutine, and the
// sessions other tests leave streaming would count against either run, so
// the measurement runs in a fresh process of its own.
func TestDiscardedLoggingAllocatesNothing(t *testing.T) {
	const child = "UBIQOS_ALLOC_CHILD"
	if os.Getenv(child) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestDiscardedLoggingAllocatesNothing$", "-test.count=1")
		cmd.Env = append(os.Environ(), child+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		return
	}
	// A real-time space with one desktop: no frame is due, and no sampler
	// pass runs, while a measured configure+stop is in flight.
	d, err := New("quiet", Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Capacity.Stop()
	if _, err := d.AddDevice("desktop1", device.ClassDesktop, resource.MB(256, 100), map[string]string{"platform": "pc"}); err != nil {
		t.Fatal(err)
	}
	catalog := newSpace(t)
	catalog.Capacity.Stop()
	for _, inst := range catalog.Registry.All() {
		d.Registry.MustRegister(inst)
		d.Repo.MarkInstalled("desktop1", inst.Name)
	}
	records := 0
	quiet := obslog.New(obslog.LevelError, obslog.FuncSink(func(obslog.Record) { records++ }))
	req := core.Request{
		SessionID:    "audio-1",
		App:          audioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(35, 45))),
		ClientDevice: "desktop1",
	}
	// The mean allocations of one configure+stop. The provenance and
	// ledger rings reallocate every so many records, so two runs' means
	// differ by a fraction of an allocation even when no record is built;
	// under the race detector, which drops sync.Pool items at random, one
	// configure's count varies by several, so a mean needs this many.
	const runs = 2000
	cost := func(log *obslog.Logger) float64 {
		d.Log = log
		return float64(testing.AllocsPerRun(1, func() {
			for i := 0; i < runs; i++ {
				if _, err := d.Configurator.Configure(req); err != nil {
					t.Fatal(err)
				}
				if err := d.Configurator.Stop(req.SessionID); err != nil {
					t.Fatal(err)
				}
			}
		})) / runs
	}
	cost(nil) // fills the trace and provenance rings, whose growth the first run would pay
	// Each side's least of five runs, taken in turn, so that a run the
	// pool's drops cost more does not decide.
	bare, withLog := math.Inf(1), math.Inf(1)
	for i := 0; i < 5; i++ {
		bare, withLog = min(bare, cost(nil)), min(withLog, cost(quiet))
	}
	if withLog-bare >= 0.5 {
		t.Errorf("configure+stop allocates %.2f times bare and %.2f times under a logger that discards every record", bare, withLog)
	}
	if records != 0 {
		t.Errorf("%d records reached the sink of an Error-level logger on the success path", records)
	}
}

// TestIdleDomainGoroutines: an idle domain runs one goroutine of its own,
// the capacity sampler, and Close stops it. Nothing in a bare domain
// subscribes to its bus, so no subscription pump runs. Other tests leave
// sessions streaming, so the count runs in a fresh process of its own.
func TestIdleDomainGoroutines(t *testing.T) {
	const child = "UBIQOS_GOROUTINE_CHILD"
	if os.Getenv(child) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestIdleDomainGoroutines$", "-test.count=1")
		cmd.Env = append(os.Environ(), child+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		return
	}
	base := runtime.NumGoroutine()
	d, err := New("idle", Options{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine() - base; n != 1 {
		t.Errorf("an idle domain runs %d goroutines, want 1", n)
	}
	d.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() != base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Close", runtime.NumGoroutine()-base)
		}
	}
}

// TestLiveSessionsReconcilePastTheTableBound: 200 audio sessions playing
// at once, more than the session store's table bound of 128, are 200 live
// and none lost in the scorecards, as many as the configurator holds; once
// they all stop, the store keeps at most its bound.
func TestLiveSessionsReconcilePastTheTableBound(t *testing.T) {
	const sessions, tableBound = 200, 128
	d, err := New("hold", Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Capacity.Stop()
	if _, err := d.AddDevice("desktop1", device.ClassDesktop, resource.MB(1<<15, 4000), map[string]string{"platform": "pc"}); err != nil {
		t.Fatal(err)
	}
	catalog := newSpace(t)
	catalog.Capacity.Stop()
	for _, inst := range catalog.Registry.All() {
		d.Registry.MustRegister(inst)
		d.Repo.MarkInstalled("desktop1", inst.Name)
	}
	id := func(i int) string { return fmt.Sprintf("audio-%03d", i) }
	for i := 0; i < sessions; i++ {
		if _, err := d.Configurator.Configure(core.Request{SessionID: id(i), App: audioApp(), ClientDevice: "desktop1",
			UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(35, 45))), MaxFrames: 1}); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	var live, lost int64
	for _, sc := range d.Flight.Scorecards(0) {
		live, lost = live+sc.Live, lost+sc.Lost
	}
	if n := d.Configurator.Sessions(); live != sessions || lost != 0 || n != sessions {
		t.Fatalf("scorecards live=%d lost=%d, configurator %d sessions; want %d/0/%d", live, lost, n, sessions, sessions)
	}
	for i := 0; i < sessions; i++ {
		if d.Flight.Explain(id(i)) == nil || !hasLog(d, id(i), "core: configured") {
			t.Fatalf("live session %s lost its provenance or timeline", id(i))
		}
	}
	for i := 0; i < sessions; i++ {
		if err := d.Configurator.Stop(id(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n, m := len(d.Flight.LedgerSessions()), len(d.Flight.Sessions()); n > tableBound || m > tableBound {
		t.Fatalf("after every stop the store holds %d accounts and %d timelines, bound %d", n, m, tableBound)
	}
}

// lifecycle maps the timeline's lifecycle events to the ledger outcome
// each one leaves a session in.
var lifecycle = map[string]string{
	"session.started":   ledger.OutcomeRunning,
	"session.recovered": ledger.OutcomeRunning,
	"session.restored":  ledger.OutcomeRunning,
	"session.stopped":   ledger.OutcomeCompleted,
	"user.notification": ledger.OutcomeLost,
}

// TestViewsAgree scripts a failed start, then a start, a device switch, a
// crash the supervisor recovers from, and a stop, and checks that the
// store's three views tell one story: each successful configure,
// reconfigure and recover is one ledger configure, one provenance record
// without an error, and one "core: configured" line on the timeline; the
// ledger's outcome is the one the timeline's last lifecycle event leaves;
// the failed start is failed in the ledger with one failed record.
func TestViewsAgree(t *testing.T) {
	d := newSpace(t)
	sup, err := core.NewSupervisor(d.Configurator, core.SupervisorOptions{Bus: d.Bus, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	hologram := composer.NewAbstractGraph()
	hologram.MustAddNode(&composer.AbstractNode{ID: "x", Spec: registry.Spec{Type: "hologram"}})
	if _, err := d.StartApp(core.Request{SessionID: "h1", App: hologram, ClientDevice: "desktop1"}); err == nil {
		t.Fatal("missing service must fail the start")
	}
	if _, err := d.StartApp(core.Request{SessionID: "a1", App: audioApp(), ClientDevice: "desktop1",
		UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44)))}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SwitchDevice("a1", "pda1"); err != nil {
		t.Fatal(err)
	}
	if err := d.FailDevice(d.Configurator.Session("a1").Placement["server"]); err != nil {
		t.Fatal(err)
	}
	if !sup.AwaitIdle(5 * time.Second) {
		t.Fatal("supervisor did not settle")
	}
	if !hasEvent(d, "a1", "session.recovered") {
		t.Error("session.recovered is not on the timeline when the supervisor settles")
	}
	viewsAgree(t, d, "a1", ledger.OutcomeRunning, 3)
	if err := d.StopApp("a1"); err != nil {
		t.Fatal(err)
	}
	viewsAgree(t, d, "a1", ledger.OutcomeCompleted, 3)

	if rep, ok := d.Flight.Report("h1"); !ok || rep.Outcome != ledger.OutcomeFailed {
		t.Errorf("failed start: ledger report %+v (found %v), want outcome failed", rep, ok)
	}
	var failed int
	for _, r := range d.Flight.Explain("h1").Records {
		if r.Err != "" {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("failed start: %d failed provenance records, want 1", failed)
	}
}

func hasLog(d *Domain, session, msg string) bool {
	for _, e := range d.Flight.Timeline(session) {
		if e.Kind == flight.KindLog && e.Message == msg {
			return true
		}
	}
	return false
}

func hasEvent(d *Domain, session, topic string) bool {
	for _, e := range d.Flight.Timeline(session) {
		if e.Kind == flight.KindEvent && e.Message == topic {
			return true
		}
	}
	return false
}

// viewsAgree checks one session's three views against each other and
// against the configures the script made.
func viewsAgree(t *testing.T, d *Domain, session, outcome string, configures int64) {
	t.Helper()
	rep, ok := d.Flight.Report(session)
	if !ok {
		t.Fatalf("%s: no ledger account", session)
	}
	var records int64
	for _, r := range d.Flight.Explain(session).Records {
		switch r.Action {
		case explain.ActionConfigure, explain.ActionReconfigure:
			if r.Err == "" {
				records++
			}
		}
	}
	var configured int64
	last := ""
	for _, e := range d.Flight.Timeline(session) {
		if e.Kind == flight.KindLog && e.Message == "core: configured" {
			configured++
		}
		if o, ok := lifecycle[e.Message]; ok && e.Kind == flight.KindEvent {
			last = o
		}
	}
	if rep.Configures != configures || records != configures || configured != configures {
		t.Errorf("%s: ledger configures %d, provenance records %d, timeline configured lines %d; want %d each",
			session, rep.Configures, records, configured, configures)
	}
	if rep.Outcome != outcome || last != outcome {
		t.Errorf("%s: ledger outcome %q, last lifecycle event on the timeline leaves %q; want %q",
			session, rep.Outcome, last, outcome)
	}
}
