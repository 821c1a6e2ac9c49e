package wire

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/domain"
	"ubiqos/internal/eventbus"
	"ubiqos/internal/experiments"
	"ubiqos/internal/faultinject"
	"ubiqos/internal/flight"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
	"ubiqos/internal/spec"
)

// startChaosServer boots a server over the six-device chaos space so
// device-churn scenarios have spare hosts to fail over to.
func startChaosServer(t *testing.T) (*domain.Domain, string) {
	t.Helper()
	dom, err := experiments.BuildChaosSpace(0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dom.Close)
	srv, err := NewServer(dom)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return dom, addr
}

// startSupervisor runs a recovery supervisor beside the server, as
// qosconfigd does: a crash-device op only marks the device down, and the
// supervisor re-places what the crash broke.
func startSupervisor(t *testing.T, dom *domain.Domain) *core.Supervisor {
	t.Helper()
	sup, err := core.NewSupervisor(dom.Configurator, core.SupervisorOptions{Bus: dom.Bus})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Stop)
	return sup
}

// awaitIdle waits for the supervisor to settle what a crash broke.
func awaitIdle(t *testing.T, sup *core.Supervisor) {
	t.Helper()
	if !sup.AwaitIdle(10 * time.Second) {
		t.Fatalf("supervisor never went idle; stats = %+v", sup.Stats())
	}
}

// TestCrashDeviceReplacesSessionOverWire walks the full protocol path of
// a device crash: start a session over TCP, crash the desktop hosting
// its server component, and verify that the reply names the session
// stranded and that the supervisor's re-placement avoids the dead device.
// Then rejoin the device and confirm it is schedulable again.
func TestCrashDeviceReplacesSessionOverWire(t *testing.T) {
	dom, addr := startChaosServer(t)
	sup := startSupervisor(t, dom)
	c, err := DialWith(addr, Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Call(Request{
		Op:           OpStart,
		SessionID:    "e1",
		App:          experiments.ChaosAudioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44))),
		ClientDevice: "jornada",
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	victim := resp.Session.Placement["server"]
	if victim == "" || victim == "jornada" {
		t.Fatalf("server placed on %q", victim)
	}

	resp, err = c.Call(Request{Op: OpCrashDevice, ToDevice: victim})
	if err != nil {
		t.Fatalf("crash: %v", err)
	}
	if !slices.Equal(resp.Stranded, []string{"e1"}) {
		t.Errorf("stranded = %v, want [e1]", resp.Stranded)
	}
	awaitIdle(t, sup)
	if st := sup.Stats(); st.Recovered != 1 || st.Lost != 0 {
		t.Errorf("supervisor stats = %+v, want one recovery", st)
	}

	resp, err = c.Call(Request{Op: OpSession, SessionID: "e1"})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	for node, dev := range resp.Session.Placement {
		if dev == victim {
			t.Errorf("component %s still on crashed device %s", node, victim)
		}
	}

	// The crashed device is reported down, and rejoining brings it back.
	resp, err = c.Call(Request{Op: OpListDevices})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range resp.Devices {
		if d.ID == victim && d.Up {
			t.Errorf("crashed device %s still reported up", victim)
		}
	}
	if _, err := c.Call(Request{Op: OpRejoinDevice, ToDevice: victim}); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	resp, err = c.Call(Request{Op: OpListDevices})
	if err != nil {
		t.Fatal(err)
	}
	up := false
	for _, d := range resp.Devices {
		if d.ID == victim && d.Up {
			up = true
		}
	}
	if !up {
		t.Errorf("rejoined device %s not reported up", victim)
	}
	if _, err := c.Call(Request{Op: OpRejoinDevice, ToDevice: "ghost"}); err == nil {
		t.Error("rejoining an unknown device should fail")
	}
}

// TestCrashCascadeFiresUserNotification crashes every desktop until no
// feasible placement remains: the supervisor must give the session up,
// tear it down and notify the user through the event service, exactly as
// DESIGN.md's fault model specifies for unrecoverable churn.
func TestCrashCascadeFiresUserNotification(t *testing.T) {
	dom, addr := startChaosServer(t)
	sup := startSupervisor(t, dom)
	notices, err := dom.Bus.SubscribeLossless(eventbus.TopicUserNotification)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialWith(addr, Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Call(Request{
		Op:           OpStart,
		SessionID:    "e2",
		App:          experiments.ChaosAudioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44))),
		ClientDevice: "jornada",
	}); err != nil {
		t.Fatalf("start: %v", err)
	}

	// The PDA cannot host the audio server, so once the last desktop goes
	// the session has nowhere left to run. Each crash succeeds; the
	// supervisor moves the session on until no desktop is left, then
	// gives it up.
	for _, victim := range []string{"desktop1", "desktop2", "desktop3", "desktop4", "desktop5"} {
		if _, err := c.Call(Request{Op: OpCrashDevice, ToDevice: victim}); err != nil {
			t.Fatalf("crash %s: %v", victim, err)
		}
		awaitIdle(t, sup)
	}
	if st := sup.Stats(); st.Lost != 1 {
		t.Errorf("supervisor stats = %+v, want the session lost", st)
	}

	// Every desktop is down.
	resp, err := c.Call(Request{Op: OpListDevices})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range resp.Devices {
		if d.ID != "jornada" && d.Up {
			t.Errorf("crashed device %s still reported up", d.ID)
		}
	}

	resp, err = c.Call(Request{Op: OpSessions})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Sessions) != 0 {
		t.Errorf("sessions = %v, want none after losing every host", resp.Sessions)
	}
	select {
	case ev := <-notices.C():
		notice, ok := ev.Payload.(core.SessionLostNotice)
		if !ok || notice.SessionID != "e2" {
			t.Errorf("notice = %+v", ev.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no user notification for the unplaceable session")
	}
}

// TestCrashShedsOptionalOverWire: a crash over the wire goes through the
// supervisor's ladder like any other. The lab space's session, portal on
// desktop1, streams through an optional 200 MB equalizer; crashing the
// equalizer's host leaves only desktop1, where the full graph does not
// fit. The supervisor's full-quality attempts fail, its degraded rung
// sheds the equalizer, and the session stays live: nothing is lost and
// no user is told to intervene.
func TestCrashShedsOptionalOverWire(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "lab.json"))
	if err != nil {
		t.Fatal(err)
	}
	dom, err := spec.LoadSpace(data, domain.Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dom.Close)
	srv, err := NewServer(dom)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	sup := startSupervisor(t, dom)
	notices, err := dom.Bus.SubscribeLossless(eventbus.TopicUserNotification)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialWith(addr, Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mpeg := qos.V(qos.P(qos.DimFormat, qos.Symbol("MPEG")))
	rates := qos.V(qos.P(qos.DimFrameRate, qos.Range(5, 60)))
	if _, err := c.Call(Request{Op: OpRegister, InstalledOn: []string{"*"}, Instance: &registry.Instance{
		Name: "equalizer-1", Type: "equalizer", Input: mpeg, Output: mpeg, OutCapability: rates,
		Adjustable:  map[string]bool{qos.DimFrameRate: true},
		PassThrough: map[string]bool{qos.DimFrameRate: true},
		Resources:   resource.MB(200, 20), SizeMB: 2,
	}}); err != nil {
		t.Fatalf("register: %v", err)
	}
	app := composer.NewAbstractGraph()
	app.MustAddNode(&composer.AbstractNode{ID: "server", Spec: registry.Spec{Type: "audio-server"}})
	app.MustAddNode(&composer.AbstractNode{ID: "eq", Spec: registry.Spec{Type: "equalizer"}, Optional: true})
	app.MustAddNode(&composer.AbstractNode{ID: "player", Spec: registry.Spec{Type: "audio-player"}, Pin: core.ClientRole})
	app.MustAddEdge("server", "eq", 1.5)
	app.MustAddEdge("eq", "player", 1.5)
	resp, err := c.Call(Request{
		Op:           OpStart,
		SessionID:    "eq-1",
		App:          app,
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44))),
		ClientDevice: "desktop1",
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	victim := resp.Session.Placement["eq"]
	if victim == "" || victim == "desktop1" {
		t.Fatalf("equalizer placed on %q, want a device other than the portal", victim)
	}

	resp, err = c.Call(Request{Op: OpCrashDevice, ToDevice: victim})
	if err != nil {
		t.Fatalf("crash: %v", err)
	}
	if !slices.Equal(resp.Stranded, []string{"eq-1"}) {
		t.Errorf("stranded = %v, want [eq-1]", resp.Stranded)
	}
	awaitIdle(t, sup)
	if st := sup.Stats(); st.Recovered != 1 || st.Degraded != 1 || st.Lost != 0 {
		t.Errorf("supervisor stats = %+v, want one degraded recovery", st)
	}

	resp, err = c.Call(Request{Op: OpSession, SessionID: "eq-1"})
	if err != nil {
		t.Fatalf("session after the crash: %v", err)
	}
	if _, ok := resp.Session.Placement["eq"]; ok {
		t.Errorf("placement %v keeps the optional equalizer", resp.Session.Placement)
	}
	for node, dev := range resp.Session.Placement {
		if dev == victim {
			t.Errorf("component %s still on crashed device %s", node, victim)
		}
	}
	resp, err = c.Call(Request{Op: OpScorecard})
	if err != nil {
		t.Fatalf("scorecard: %v", err)
	}
	for _, card := range resp.Scorecards {
		if card.Lost != 0 {
			t.Errorf("scorecard %s: lost = %d, want 0", card.Class, card.Lost)
		}
	}
	select {
	case ev := <-notices.C():
		if notice, ok := ev.Payload.(core.SessionLostNotice); ok {
			t.Errorf("session lost notice raised: %+v", notice)
		}
	case <-time.After(100 * time.Millisecond):
	}
}

// TestFlightTimelineOverWire is the observability acceptance path: a
// session is started over the wire with client-originated trace context,
// a chaos fault crashes the device hosting its server component, the
// supervisor recovers it, and the flight op then returns one fused
// timeline containing — in sequence order — the client's trace ID, the
// injected fault marker, the recovery attempts, and the final outcome.
func TestFlightTimelineOverWire(t *testing.T) {
	dom, addr := startChaosServer(t)
	sup, err := core.NewSupervisor(dom.Configurator, core.SupervisorOptions{
		Bus:         dom.Bus,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Stop)

	c, err := DialWith(addr, Options{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const traceID = "cafec0dedeadbeef"
	resp, err := c.Call(Request{
		Op:           OpStart,
		SessionID:    "f1",
		TraceID:      traceID,
		App:          experiments.ChaosAudioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44))),
		ClientDevice: "jornada",
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	victim := resp.Session.Placement["server"]

	// Crash the hosting device through the fault injector so the timeline
	// gains a fault marker, then let the supervisor heal the session.
	inj, err := faultinject.NewInjector(dom, faultinject.Schedule{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Apply(faultinject.Fault{Kind: faultinject.DeviceCrash, Device: device.ID(victim)}); err != nil {
		t.Fatalf("inject crash: %v", err)
	}
	if !sup.AwaitIdle(10 * time.Second) {
		t.Fatal("supervisor never went idle after the crash")
	}
	if got := sup.Stats().Recovered; got == 0 {
		t.Fatalf("session not recovered; stats = %+v", sup.Stats())
	}

	resp, err = c.Call(Request{Op: OpFlight, SessionID: "f1"})
	if err != nil {
		t.Fatalf("flight: %v", err)
	}
	if len(resp.Flight) == 0 {
		t.Fatal("empty flight timeline")
	}

	var sawTrace, sawFault, sawAttempt, sawOutcome bool
	var faultSeq, outcomeSeq uint64
	lastSeq := uint64(0)
	for i, e := range resp.Flight {
		if i > 0 && e.Seq <= lastSeq {
			t.Errorf("entry %d out of sequence: %d after %d", i, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.TraceID == traceID {
			sawTrace = true
		}
		switch {
		case e.Kind == flight.KindFault:
			sawFault, faultSeq = true, e.Seq
		case strings.Contains(e.Message, "recovery attempt"):
			sawAttempt = true
		case strings.Contains(e.Message, "session recovered"):
			sawOutcome, outcomeSeq = true, e.Seq
		}
	}
	if !sawTrace {
		t.Errorf("no entry carries the client trace ID %s", traceID)
	}
	if !sawFault {
		t.Error("no injected-fault marker in the timeline")
	}
	if !sawAttempt {
		t.Error("no recovery attempt in the timeline")
	}
	if !sawOutcome {
		t.Error("no final recovery outcome in the timeline")
	}
	if sawFault && sawOutcome && outcomeSeq <= faultSeq {
		t.Errorf("outcome (seq %d) does not follow fault (seq %d)", outcomeSeq, faultSeq)
	}

	// The sessionless flight op indexes recorded sessions.
	resp, err = c.Call(Request{Op: OpFlight})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range resp.FlightSessions {
		if s.Session == "f1" {
			found = true
		}
	}
	if !found {
		t.Errorf("flight index %+v missing f1", resp.FlightSessions)
	}
	if _, err := c.Call(Request{Op: OpFlight, SessionID: "ghost"}); err == nil {
		t.Error("flight for an unknown session should fail")
	}

	// The slo op reports the declared objectives with burn-rate states.
	resp, err = c.Call(Request{Op: OpSlo})
	if err != nil {
		t.Fatalf("slo: %v", err)
	}
	if len(resp.SLO) < 3 {
		t.Fatalf("slo reported %d objectives, want at least 3", len(resp.SLO))
	}
	for _, st := range resp.SLO {
		if st.State == "" {
			t.Errorf("objective %s has no state", st.Name)
		}
	}
}
