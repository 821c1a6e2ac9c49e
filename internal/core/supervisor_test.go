package core

import (
	"testing"
	"time"

	"ubiqos/internal/composer"
	"ubiqos/internal/device"
	"ubiqos/internal/eventbus"
	"ubiqos/internal/metrics"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/repository"
	"ubiqos/internal/resource"
)

// superFixture is the configurator fixture plus an event bus, a metrics
// registry, and a second desktop so a crashed host has somewhere to fail
// over to.
type superFixture struct {
	*fixture
	bus  *eventbus.Bus
	met  *metrics.Registry
	dsk2 *device.Device
}

func newSuperFixture(t *testing.T) *superFixture {
	t.Helper()
	f := newFixture(t)
	met := metrics.NewRegistry()
	f.cfg.Observer = &recorder{met: met}
	c, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.c = c

	dsk2 := device.MustNew("desktop2", device.ClassDesktop, resource.MB(256, 300), map[string]string{"platform": "pc"})
	if err := f.cfg.Devices.Add(dsk2); err != nil {
		t.Fatal(err)
	}
	f.net.MustSetLink("desktop1", "desktop2", netsim.Ethernet)
	f.net.MustSetLink("desktop2", "pda1", netsim.WLAN)
	f.net.MustSetLink("repo-host", "desktop2", netsim.Ethernet)
	f.cfg.Links.MustSet("desktop1", "desktop2", 100)
	f.cfg.Links.MustSet("desktop2", "pda1", 5)

	bus := eventbus.New()
	t.Cleanup(bus.Close)
	return &superFixture{fixture: f, bus: bus, met: met, dsk2: dsk2}
}

// fastOpts keeps supervisor tests quick: millisecond backoffs, a few
// attempts.
func fastOpts(bus *eventbus.Bus) SupervisorOptions {
	return SupervisorOptions{
		Bus:         bus,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Deadline:    300 * time.Millisecond,
		MaxAttempts: 4,
		Seed:        42,
	}
}

// pdaRequest is the transcoded audio session used throughout: player
// pinned to the PDA, server and transcoder on a desktop.
func pdaRequest(id string) Request {
	return Request{
		SessionID:    id,
		App:          audioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44))),
		ClientDevice: "pda1",
	}
}

func TestSupervisorRecoversAfterDeviceCrash(t *testing.T) {
	f := newSuperFixture(t)
	sup, err := NewSupervisor(f.c, fastOpts(f.bus))
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	if _, err := f.c.Configure(pdaRequest("a1")); err != nil {
		t.Fatal(err)
	}
	serverDev := f.c.Session("a1").Placement["server"]
	if serverDev == "pda1" {
		t.Fatal("server unexpectedly on the PDA")
	}

	// Crash the hosting desktop: publish-only, as the fault injector does.
	f.cfg.Devices.Get(serverDev).SetUp(false)
	f.bus.Publish(eventbus.TopicDeviceLeft, string(serverDev))

	if !sup.AwaitIdle(5 * time.Second) {
		t.Fatal("supervisor did not settle")
	}
	active := f.c.Session("a1")
	if active == nil {
		t.Fatal("session lost; want recovered")
	}
	for node, dev := range active.Placement {
		if dev == serverDev {
			t.Errorf("component %s still bound to dead device %s", node, dev)
		}
	}
	st := sup.Stats()
	if st.Recovered != 1 || st.Lost != 0 {
		t.Errorf("stats = %+v", st)
	}
	if v := f.met.Counter(metrics.SessionsRecovered).Value(); v != 1 {
		t.Errorf("%s = %d", metrics.SessionsRecovered, v)
	}
	if n := f.met.Histogram(metrics.RecoveryLatency).Count(); n != 1 {
		t.Errorf("recovery latency observations = %d", n)
	}
}

func TestSupervisorRecoveredEventFires(t *testing.T) {
	f := newSuperFixture(t)
	sub, err := f.bus.SubscribeLossless(eventbus.TopicSessionRecovered)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(f.c, fastOpts(f.bus))
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	if _, err := f.c.Configure(pdaRequest("a1")); err != nil {
		t.Fatal(err)
	}
	serverDev := f.c.Session("a1").Placement["server"]
	f.cfg.Devices.Get(serverDev).SetUp(false)
	f.bus.Publish(eventbus.TopicDeviceLeft, string(serverDev))

	select {
	case ev := <-sub.C():
		if ev.Payload.(string) != "a1" {
			t.Errorf("recovered payload = %v", ev.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no session.recovered event")
	}
}

func TestSupervisorGivesUpWhenNoPlacementExists(t *testing.T) {
	f := newSuperFixture(t)
	notices, err := f.bus.SubscribeLossless(eventbus.TopicUserNotification)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(f.c, fastOpts(f.bus))
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	if _, err := f.c.Configure(pdaRequest("a1")); err != nil {
		t.Fatal(err)
	}
	// Kill BOTH desktops: the PDA cannot host the server, so no feasible
	// placement remains anywhere on the degradation ladder. Both go down
	// before either departure is announced; otherwise a quick supervisor
	// recovers the session onto desktop2 between the two.
	desktops := []device.ID{"desktop1", "desktop2"}
	for _, id := range desktops {
		f.cfg.Devices.Get(id).SetUp(false)
	}
	for _, id := range desktops {
		f.bus.Publish(eventbus.TopicDeviceLeft, string(id))
	}

	if !sup.AwaitIdle(5 * time.Second) {
		t.Fatal("supervisor did not settle")
	}
	if f.c.Session("a1") != nil {
		t.Error("unplaceable session still active")
	}
	st := sup.Stats()
	if st.Lost != 1 || st.Recovered != 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Retries == 0 {
		t.Error("give-up without any backed-off retries")
	}
	select {
	case ev := <-notices.C():
		notice, ok := ev.Payload.(SessionLostNotice)
		if !ok || notice.SessionID != "a1" {
			t.Errorf("notice = %+v", ev.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("no user notification for the lost session")
	}
	// The checkpoint was discarded with the session: a later Configure of
	// the same ID starts fresh instead of resuming.
	if _, ok := f.cfg.Checkpoints.Load("a1"); ok {
		t.Error("orphaned checkpoint survived give-up")
	}
}

func TestSupervisorPortalLossGivesUpImmediately(t *testing.T) {
	f := newSuperFixture(t)
	notices, err := f.bus.SubscribeLossless(eventbus.TopicUserNotification)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(f.c, fastOpts(f.bus))
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	if _, err := f.c.Configure(pdaRequest("a1")); err != nil {
		t.Fatal(err)
	}
	f.pda.SetUp(false)
	f.bus.Publish(eventbus.TopicDeviceLeft, "pda1")

	if !sup.AwaitIdle(5 * time.Second) {
		t.Fatal("supervisor did not settle")
	}
	st := sup.Stats()
	if st.Lost != 1 || st.Attempts != 0 {
		t.Errorf("stats = %+v; portal loss should not burn recovery attempts", st)
	}
	select {
	case ev := <-notices.C():
		notice := ev.Payload.(SessionLostNotice)
		if notice.SessionID != "a1" || notice.Device != "pda1" {
			t.Errorf("notice = %+v", notice)
		}
	case <-time.After(time.Second):
		t.Fatal("no user notification")
	}
}

func TestSupervisorDegradedRecoveryShedsOptional(t *testing.T) {
	f := newSuperFixture(t)
	f.reg.MustRegister(&registry.Instance{
		Name:      "visualizer-1",
		Type:      "audio-visualizer",
		Attrs:     map[string]string{"platform": "pc"},
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3)), qos.P(qos.DimFrameRate, qos.Range(5, 60))),
		Resources: resource.MB(16, 20),
		SizeMB:    1,
	})
	f.repo.MustPublish(repository.Package{Name: "visualizer-1", SizeMB: 1})

	opts := fastOpts(f.bus)
	// An already-blown deadline forces the very first recovery attempt
	// into degraded mode.
	opts.Deadline = time.Nanosecond
	sup, err := NewSupervisor(f.c, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	app := audioApp()
	app.MustAddNode(&composer.AbstractNode{
		ID:       "viz",
		Spec:     registry.Spec{Type: "audio-visualizer"},
		Optional: true,
	})
	app.MustAddEdge("server", "viz", 0.5)
	req := pdaRequest("a1")
	req.App = app
	if _, err := f.c.Configure(req); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.c.Session("a1").Placement["viz"]; !ok {
		t.Fatal("optional visualizer not placed at full quality")
	}
	serverDev := f.c.Session("a1").Placement["server"]

	f.cfg.Devices.Get(serverDev).SetUp(false)
	f.bus.Publish(eventbus.TopicDeviceLeft, string(serverDev))

	if !sup.AwaitIdle(5 * time.Second) {
		t.Fatal("supervisor did not settle")
	}
	active := f.c.Session("a1")
	if active == nil {
		t.Fatal("session lost; want degraded recovery")
	}
	if _, ok := active.Placement["viz"]; ok {
		t.Error("degraded recovery kept the optional visualizer")
	}
	st := sup.Stats()
	if st.Degraded != 1 || st.Recovered != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSupervisorIgnoresHealthySessions(t *testing.T) {
	f := newSuperFixture(t)
	sup, err := NewSupervisor(f.c, fastOpts(f.bus))
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	if _, err := f.c.Configure(pdaRequest("a1")); err != nil {
		t.Fatal(err)
	}
	before := f.c.Session("a1")
	// A join event (or any fluctuation that breaks nothing) must not
	// trigger reconfiguration churn.
	f.bus.Publish(eventbus.TopicResourceChanged, "desktop2")
	if !sup.AwaitIdle(5 * time.Second) {
		t.Fatal("supervisor did not settle")
	}
	if st := sup.Stats(); st.Attempts != 0 {
		t.Errorf("stats = %+v; healthy session was touched", st)
	}
	if f.c.Session("a1") != before {
		t.Error("session object changed")
	}
}

func TestShedOptional(t *testing.T) {
	if shedOptional(nil) != nil {
		t.Error("nil graph should pass through")
	}
	plain := audioApp()
	if shedOptional(plain) != plain {
		t.Error("graph without optional nodes should be returned unchanged")
	}
	app := audioApp()
	app.MustAddNode(&composer.AbstractNode{ID: "viz", Spec: registry.Spec{Type: "audio-visualizer"}, Optional: true})
	app.MustAddEdge("server", "viz", 0.5)
	shed := shedOptional(app)
	if shed == app {
		t.Fatal("expected a copy")
	}
	if len(shed.Nodes()) != 2 {
		t.Errorf("nodes = %d, want 2", len(shed.Nodes()))
	}
	for _, e := range shed.Edges() {
		if e.To == "viz" || e.From == "viz" {
			t.Errorf("dangling edge %+v", e)
		}
	}
	// The original is untouched.
	if len(app.Nodes()) != 3 {
		t.Error("shedOptional mutated its input")
	}
}

// TestSupervisorRestoredAfterDegradedRecovery drives the full
// degrade-then-restore arc: a crash forces a degraded recovery (the
// optional visualizer is shed), the original host rejoins, a second
// crash re-breaks the session, and the supervisor — remembering the
// original full-quality request — restores it, bumping Restored and
// publishing session.restored.
func TestSupervisorRestoredAfterDegradedRecovery(t *testing.T) {
	f := newFixture(t)
	met := metrics.NewRegistry()
	f.cfg.Observer = &recorder{met: met}
	c, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.c = c

	// A second desktop too small for the visualizer: full-quality
	// recovery attempts there must fail, forcing the shed rung.
	dsk2 := device.MustNew("desktop2", device.ClassDesktop, resource.MB(100, 100), map[string]string{"platform": "pc"})
	if err := f.cfg.Devices.Add(dsk2); err != nil {
		t.Fatal(err)
	}
	f.net.MustSetLink("desktop1", "desktop2", netsim.Ethernet)
	f.net.MustSetLink("desktop2", "pda1", netsim.WLAN)
	f.net.MustSetLink("repo-host", "desktop2", netsim.Ethernet)
	f.cfg.Links.MustSet("desktop1", "desktop2", 100)
	f.cfg.Links.MustSet("desktop2", "pda1", 5)

	// The optional visualizer only fits on desktop1 (256MB/300%).
	f.reg.MustRegister(&registry.Instance{
		Name:      "visualizer-1",
		Type:      "audio-visualizer",
		Attrs:     map[string]string{"platform": "pc"},
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3)), qos.P(qos.DimFrameRate, qos.Range(5, 60))),
		Resources: resource.MB(150, 200),
		SizeMB:    1,
	})
	f.repo.MustPublish(repository.Package{Name: "visualizer-1", SizeMB: 1})

	bus := eventbus.New()
	t.Cleanup(bus.Close)
	sup, err := NewSupervisor(f.c, fastOpts(bus))
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()

	app := audioApp()
	app.MustAddNode(&composer.AbstractNode{
		ID:       "viz",
		Spec:     registry.Spec{Type: "audio-visualizer"},
		Optional: true,
	})
	app.MustAddEdge("server", "viz", 0.5)
	req := pdaRequest("a1")
	req.App = app
	if _, err := f.c.Configure(req); err != nil {
		t.Fatal(err)
	}
	if dev, ok := f.c.Session("a1").Placement["viz"]; !ok || dev != "desktop1" {
		t.Fatalf("visualizer placed on %q (ok=%v), want desktop1", dev, ok)
	}

	// Crash desktop1: the visualizer has nowhere to go, so attempts at
	// full quality fail and the recovery lands degraded on desktop2.
	f.dsk.SetUp(false)
	bus.Publish(eventbus.TopicDeviceLeft, "desktop1")
	if !sup.AwaitIdle(5 * time.Second) {
		t.Fatal("supervisor did not settle after first crash")
	}
	if st := sup.Stats(); st.Degraded != 1 || st.Recovered != 1 || st.Restored != 0 {
		t.Fatalf("after degraded recovery: stats = %+v", st)
	}
	if _, ok := f.c.Session("a1").Placement["viz"]; ok {
		t.Fatal("degraded recovery kept the optional visualizer")
	}

	restored, err := bus.SubscribeLossless(eventbus.TopicSessionRestored)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Cancel()

	// Desktop1 rejoins; the second crash re-breaks the session and the
	// supervisor retries the remembered original (un-shed) request.
	f.dsk.SetUp(true)
	dsk2.SetUp(false)
	bus.Publish(eventbus.TopicDeviceLeft, "desktop2")
	if !sup.AwaitIdle(5 * time.Second) {
		t.Fatal("supervisor did not settle after second crash")
	}

	st := sup.Stats()
	if st.Restored != 1 {
		t.Fatalf("Restored = %d, want 1 (stats = %+v)", st.Restored, st)
	}
	if st.Recovered != 2 || st.Lost != 0 {
		t.Fatalf("stats = %+v", st)
	}
	active := f.c.Session("a1")
	if active == nil {
		t.Fatal("session lost; want full restoration")
	}
	if dev, ok := active.Placement["viz"]; !ok || dev != "desktop1" {
		t.Fatalf("visualizer on %q (ok=%v) after restoration, want desktop1", dev, ok)
	}
	if v := met.Counter(metrics.SessionsRestored).Value(); v != 1 {
		t.Errorf("%s = %d, want 1", metrics.SessionsRestored, v)
	}
	select {
	case ev := <-restored.C():
		if sid, _ := ev.Payload.(string); sid != "a1" {
			t.Errorf("session.restored payload = %v, want a1", ev.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Error("no session.restored event published")
	}
}
