package wire

import (
	"strings"
	"testing"
	"time"

	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/domain"
	"ubiqos/internal/eventbus"
	"ubiqos/internal/experiments"
	"ubiqos/internal/faultinject"
	"ubiqos/internal/flight"
	"ubiqos/internal/qos"
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

// TestCrashDeviceReplacesSessionOverWire walks the full protocol path of
// a device crash: start a session over TCP, crash the desktop hosting
// its server component, and verify the reconfigured placement avoids the
// dead device. Then rejoin the device and confirm it is schedulable
// again.
func TestCrashDeviceReplacesSessionOverWire(t *testing.T) {
	_, addr := startChaosServer(t)
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
	moved := false
	for _, sid := range resp.Moved {
		if sid == "e1" {
			moved = true
		}
	}
	if !moved {
		t.Errorf("moved = %v, want e1", resp.Moved)
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
// feasible placement remains: the session must be torn down and the user
// notified through the event service, exactly as DESIGN.md's fault model
// specifies for unrecoverable churn.
func TestCrashCascadeFiresUserNotification(t *testing.T) {
	dom, addr := startChaosServer(t)
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
	// the session has nowhere left to run. The final crash reports that
	// casualty as a server error (nothing could be moved), which the
	// client surfaces without retrying.
	var lastErr error
	for _, victim := range []string{"desktop1", "desktop2", "desktop3", "desktop4", "desktop5"} {
		if _, err := c.Call(Request{Op: OpCrashDevice, ToDevice: victim}); err != nil {
			lastErr = err
		}
	}
	if lastErr == nil {
		t.Error("losing the last feasible host should surface a reconfigure error")
	}

	// Every desktop is down regardless of how its crash was reported.
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
