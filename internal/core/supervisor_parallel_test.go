package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ubiqos/internal/device"
	"ubiqos/internal/eventbus"
	"ubiqos/internal/explain"
	"ubiqos/internal/netsim"
	"ubiqos/internal/obslog"
	"ubiqos/internal/resource"
	"ubiqos/internal/trace"
)

// withProcs sets GOMAXPROCS for the rest of the test, so the supervisor's
// width does not depend on the machine the test runs on.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// faultSpace is a smart space in which one fault breaks many sessions:
// n PDA portals, each the client of one audio session, and two desktops.
// A PDA cannot hold an audio server, so every server sits on a desktop;
// the sessions start while desktop2 is down, so all of them land on
// desktop1, and crash() then strands them all.
type faultSpace struct {
	*fixture
	bus     *eventbus.Bus
	ends    *eventbus.Subscription
	rec     *recorder
	devices []*device.Device
	ids     []string
}

// newFaultSpace builds the space with desktop2 at the given capacity and
// configures the n sessions. obs wraps the space's recorder, or is nil.
func newFaultSpace(t *testing.T, n int, desktop2 resource.Vector, obs func(*recorder) Observer) *faultSpace {
	t.Helper()
	f := newFixture(t)
	rec := &recorder{}
	f.cfg.Observer = rec
	if obs != nil {
		f.cfg.Observer = obs(rec)
	}
	f.cfg.Devices = device.NewTable()
	f.cfg.Links = device.NewLinks()
	dsk1 := device.MustNew("desktop1", device.ClassDesktop, resource.MB(1024, 1000), map[string]string{"platform": "pc"})
	dsk2 := device.MustNew("desktop2", device.ClassDesktop, desktop2, map[string]string{"platform": "pc"})
	s := &faultSpace{fixture: f, rec: rec, devices: []*device.Device{dsk1, dsk2}}
	f.net.MustSetLink("desktop1", "desktop2", netsim.Ethernet)
	f.net.MustSetLink("repo-host", "desktop2", netsim.Ethernet)
	f.cfg.Links.MustSet("desktop1", "desktop2", 100)
	for i := 0; i < n; i++ {
		pda := device.ID(fmt.Sprintf("pda%d", i+1))
		s.devices = append(s.devices, device.MustNew(pda, device.ClassPDA, resource.MB(32, 40), map[string]string{"platform": "pda"}))
		for _, dsk := range []device.ID{"desktop1", "desktop2"} {
			f.net.MustSetLink(string(dsk), string(pda), netsim.WLAN)
			f.cfg.Links.MustSet(dsk, pda, 5)
		}
		f.net.MustSetLink("repo-host", string(pda), netsim.WLAN)
	}
	for _, d := range s.devices {
		if err := f.cfg.Devices.Add(d); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.c = c
	s.bus = eventbus.New()
	t.Cleanup(s.bus.Close)
	if s.ends, err = s.bus.SubscribeLossless(eventbus.TopicSessionRecovered, eventbus.TopicUserNotification); err != nil {
		t.Fatal(err)
	}

	dsk2.SetUp(false)
	for i := 0; i < n; i++ {
		req := pdaRequest(fmt.Sprintf("s%d", i+1))
		req.ClientDevice = device.ID(fmt.Sprintf("pda%d", i+1))
		if _, err := c.Configure(req); err != nil {
			t.Fatalf("configure %s: %v", req.SessionID, err)
		}
		if got := c.Session(req.SessionID).Placement["server"]; got != "desktop1" {
			t.Fatalf("%s: server on %s, want desktop1", req.SessionID, got)
		}
		s.ids = append(s.ids, req.SessionID)
	}
	dsk2.SetUp(true)
	// Sessions left streaming would load the tests that run after this one.
	t.Cleanup(func() { s.stopAll(t) })
	return s
}

// stopAll stops every session still running.
func (s *faultSpace) stopAll(t *testing.T) {
	t.Helper()
	for _, id := range s.ids {
		if s.c.Session(id) != nil {
			if err := s.c.Stop(id); err != nil {
				t.Errorf("stop %s: %v", id, err)
			}
		}
	}
}

// crash takes desktop1 down and announces it, as the fault injector does.
func (s *faultSpace) crash() {
	s.devices[0].SetUp(false)
	s.bus.Publish(eventbus.TopicDeviceLeft, "desktop1")
}

// settle waits until each session has been reported recovered or lost,
// then until the supervisor is idle.
func (s *faultSpace) settle(t *testing.T, sup *Supervisor) {
	t.Helper()
	timeout := time.After(15 * time.Second)
	for range s.ids {
		select {
		case <-s.ends.C():
		case <-timeout:
			t.Fatal("sessions neither recovered nor lost")
		}
	}
	if !sup.AwaitIdle(15 * time.Second) {
		t.Fatal("supervisor did not settle")
	}
}

// terminal counts each session's recovered and lost steps.
func (s *faultSpace) terminal() (recovered, lost map[string]int) {
	recovered, lost = map[string]int{}, map[string]int{}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	for _, st := range s.rec.steps {
		switch st.outcome {
		case "recovered":
			recovered[st.session]++
		case "lost":
			lost[st.session]++
		}
	}
	return recovered, lost
}

// beginGate is an observer whose Begin holds every recovery attempt until
// the test closes release; two is closed once two attempts are inside
// Begin at once.
type beginGate struct {
	*recorder
	mu      sync.Mutex
	inside  int
	entered int
	twoOnce sync.Once
	two     chan struct{}
	release chan struct{}
}

func newBeginGate(rec *recorder) *beginGate {
	return &beginGate{recorder: rec, two: make(chan struct{}), release: make(chan struct{})}
}

func (g *beginGate) Begin(req Request, rec explain.Record) (*trace.Trace, *obslog.Logger, *obslog.Logger) {
	if rec.Ladder != nil {
		g.mu.Lock()
		g.inside++
		g.entered++
		if g.inside == 2 {
			g.twoOnce.Do(func() { close(g.two) })
		}
		g.mu.Unlock()
		<-g.release
		g.mu.Lock()
		g.inside--
		g.mu.Unlock()
	}
	return g.recorder.Begin(req, rec)
}

// begun returns how many recovery attempts have entered Begin.
func (g *beginGate) begun() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.entered
}

// TestSupervisorRecoversInParallel: the sessions one fault breaks recover
// concurrently. Begin lets no recovery attempt through until two are
// inside it at once, which one worker never achieves.
func TestSupervisorRecoversInParallel(t *testing.T) {
	withProcs(t, 2)
	var gate *beginGate
	s := newFaultSpace(t, 4, resource.MB(1024, 1000), func(rec *recorder) Observer {
		gate = newBeginGate(rec)
		return gate
	})
	sup, err := NewSupervisor(s.c, fastOpts(s.bus))
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	go func() {
		select {
		case <-gate.two:
		case <-time.After(10 * time.Second):
			t.Error("two recovery attempts never ran at once")
		}
		close(gate.release)
	}()

	s.crash()
	s.settle(t, sup)
	if st := sup.Stats(); st.Recovered != 4 || st.Lost != 0 {
		t.Errorf("stats = %+v, want 4 recovered", st)
	}
}

// TestSupervisorStopAbandonsPendingTasks: Stop lets the attempts already
// running finish and starts no other.
func TestSupervisorStopAbandonsPendingTasks(t *testing.T) {
	withProcs(t, 2)
	var gate *beginGate
	s := newFaultSpace(t, 6, resource.MB(1024, 1000), func(rec *recorder) Observer {
		gate = newBeginGate(rec)
		return gate
	})
	sup, err := NewSupervisor(s.c, fastOpts(s.bus))
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	s.crash()
	// Once both workers are held in Begin, neither is between tasks.
	select {
	case <-gate.two:
	case <-time.After(10 * time.Second):
		close(gate.release)
		t.Fatalf("%d recovery attempts began, want 2 at once", gate.begun())
	}
	stopped := make(chan struct{})
	go func() {
		sup.Stop()
		close(stopped)
	}()
	<-sup.stopped
	begun := gate.begun()
	close(gate.release)
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return")
	}
	if st := sup.Stats(); st.Attempts != int64(begun) {
		t.Errorf("Attempts = %d, want the %d begun before Stop (stats %+v)", st.Attempts, begun, st)
	}
	if got := gate.begun(); got != begun {
		t.Errorf("%d attempts began after Stop", got-begun)
	}
}

// TestSupervisorBackoffKeyedBySessionAndAttempt: the jitter of a retry
// depends on the seed, the session and the attempt, not on the order the
// retries are computed in.
func TestSupervisorBackoffKeyedBySessionAndAttempt(t *testing.T) {
	newSup := func() *Supervisor {
		opts := SupervisorOptions{Seed: 42}
		opts.defaults()
		return &Supervisor{opts: opts}
	}
	type key struct {
		sid     string
		attempt int
	}
	keys := []key{{"a1", 1}, {"a2", 1}, {"a1", 2}, {"a2", 2}, {"a1", 3}}
	forward, backward := newSup(), newSup()
	got := map[key]time.Duration{}
	for _, k := range keys {
		got[k] = forward.backoff(k.sid, k.attempt)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		k := keys[i]
		if b := backward.backoff(k.sid, k.attempt); b != got[k] {
			t.Errorf("backoff(%s, %d) = %v in reverse order, %v in forward order", k.sid, k.attempt, b, got[k])
		}
	}
	for _, k := range keys {
		base := 10 * time.Millisecond << (k.attempt - 1)
		if b := got[k]; b < base || b > base+base/2 {
			t.Errorf("backoff(%s, %d) = %v, want in [%v, %v]", k.sid, k.attempt, b, base, base+base/2)
		}
	}
	if got[key{"a1", 1}] == got[key{"a2", 1}] {
		t.Errorf("sessions a1 and a2 share the backoff %v", got[key{"a1", 1}])
	}
}

// TestSupervisorConservesUnderConcurrentRecovery: concurrent recoveries
// neither leak nor double-book a reservation. With room for every
// broken session each recovers at its first attempt; with room for only
// some, each ends recovered or lost, exactly once. Either way, once every
// session stops, every device and link is back at its baseline.
func TestSupervisorConservesUnderConcurrentRecovery(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name  string
		space resource.Vector
		ample bool
	}{
		{"ample", resource.MB(1024, 1000), true},
		// Four audio servers fit; the other four collide with them.
		{"tight", resource.MB(256, 300), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			withProcs(t, 2)
			s := newFaultSpace(t, n, tc.space, nil)
			sup, err := NewSupervisor(s.c, fastOpts(s.bus))
			if err != nil {
				t.Fatal(err)
			}
			defer sup.Stop()

			s.crash()
			s.settle(t, sup)
			st := sup.Stats()
			recovered, lost := s.terminal()
			for _, id := range s.ids {
				if recovered[id]+lost[id] != 1 {
					t.Errorf("%s: recovered %d times and lost %d times, want one of the two once", id, recovered[id], lost[id])
				}
				if active := s.c.Session(id); active != nil {
					for node, dev := range active.Placement {
						if dev == "desktop1" {
							t.Errorf("%s: %s still on the failed desktop1", id, node)
						}
					}
				}
			}
			if st.Recovered+st.Lost != n {
				t.Errorf("Recovered %d + Lost %d, want %d broken", st.Recovered, st.Lost, n)
			}
			if tc.ample {
				if st.Recovered != n || st.Retries != 0 {
					t.Errorf("stats = %+v, want all %d recovered without a retry", st, n)
				}
			} else if st.Recovered == 0 || st.Lost == 0 {
				t.Errorf("stats = %+v, want some recovered and some lost", st)
			}
			s.stopAll(t)
			s.checkBaseline(t)
		})
	}
}
