package domain

import (
	"strings"
	"testing"
	"time"

	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/eventbus"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
)

const testScale = 0.01

// newSpace builds a domain resembling the paper's lab: two desktops and a
// PDA, an audio server, players, and a transcoder.
func newSpace(t *testing.T) *Domain {
	t.Helper()
	return newSpaceWith(t, Options{Scale: testScale})
}

// newSpaceWith builds the lab space with the given options.
func newSpaceWith(t *testing.T, opts Options) *Domain {
	t.Helper()
	d, err := New("lab", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)

	// Raw capacities: the desktop's CPU is normalized ×5, the PDA's ×0.4.
	if _, err := d.AddDevice("desktop1", device.ClassDesktop, resource.MB(256, 100), map[string]string{"platform": "pc"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddDevice("desktop2", device.ClassDesktop, resource.MB(256, 100), map[string]string{"platform": "pc"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddDevice("pda1", device.ClassPDA, resource.MB(32, 100), map[string]string{"platform": "pda"}); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]device.ID{{"desktop1", "desktop2"}} {
		if err := d.Connect(pair[0], pair[1], netsim.Ethernet); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]device.ID{{"desktop1", "pda1"}, {"desktop2", "pda1"}} {
		if err := d.Connect(pair[0], pair[1], netsim.WLAN); err != nil {
			t.Fatal(err)
		}
	}
	for _, dev := range []device.ID{"desktop1", "desktop2", "pda1"} {
		link := netsim.Ethernet
		if dev == "pda1" {
			link = netsim.WLAN
		}
		if err := d.ConnectServer(dev, link); err != nil {
			t.Fatal(err)
		}
	}

	d.Registry.MustRegister(&registry.Instance{
		Name:          "audio-server-1",
		Type:          "audio-server",
		Output:        qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3)), qos.P(qos.DimFrameRate, qos.Scalar(40))),
		OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(5, 60))),
		Adjustable:    map[string]bool{qos.DimFrameRate: true},
		Resources:     resource.MB(64, 50),
		SizeMB:        2,
	})
	d.Registry.MustRegister(&registry.Instance{
		Name:      "mp3-player-1",
		Type:      "audio-player",
		Attrs:     map[string]string{"platform": "pc"},
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3)), qos.P(qos.DimFrameRate, qos.Range(10, 50))),
		Resources: resource.MB(16, 30),
		SizeMB:    1,
	})
	d.Registry.MustRegister(&registry.Instance{
		Name:      "wav-player-1",
		Type:      "audio-player",
		Attrs:     map[string]string{"platform": "pda"},
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatWAV)), qos.P(qos.DimFrameRate, qos.Range(10, 44))),
		Resources: resource.MB(8, 10),
		SizeMB:    1,
	})
	d.Registry.MustRegister(&registry.Instance{
		Name:        "mp32wav-1",
		Type:        composer.TypeTranscoder,
		Attrs:       map[string]string{"from": qos.FormatMP3, "to": qos.FormatWAV},
		Input:       qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3))),
		Output:      qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatWAV))),
		PassThrough: map[string]bool{qos.DimFrameRate: true},
		Resources:   resource.MB(12, 25),
		SizeMB:      1.5,
	})
	for _, name := range []string{"audio-server-1", "mp3-player-1", "wav-player-1", "mp32wav-1"} {
		// Pre-install everywhere: domain tests focus on orchestration, not
		// download timing.
		for _, dev := range []string{"desktop1", "desktop2", "pda1"} {
			d.Repo.MarkInstalled(dev, name)
		}
	}
	return d
}

func audioApp() *composer.AbstractGraph {
	ag := composer.NewAbstractGraph()
	ag.MustAddNode(&composer.AbstractNode{ID: "server", Spec: registry.Spec{Type: "audio-server"}})
	ag.MustAddNode(&composer.AbstractNode{ID: "player", Spec: registry.Spec{Type: "audio-player"}, Pin: core.ClientRole})
	ag.MustAddEdge("server", "player", 1.5)
	return ag
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", Options{}); err == nil {
		t.Error("empty name should fail")
	}
	d, err := New("x", Options{})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
}

func TestAddDeviceNormalizes(t *testing.T) {
	d := newSpace(t)
	dsk := d.Devices.Get("desktop1")
	if !dsk.Capacity().Equal(resource.MB(256, 500)) {
		t.Errorf("desktop normalized capacity = %v, want [256MB, 500%%]", dsk.Capacity())
	}
	pda := d.Devices.Get("pda1")
	if !pda.Capacity().Equal(resource.MB(32, 40)) {
		t.Errorf("pda normalized capacity = %v, want [32MB, 40%%]", pda.Capacity())
	}
}

func TestStartStopAppAndEvents(t *testing.T) {
	d := newSpace(t)
	sub, err := d.Bus.SubscribeLossless(eventbus.TopicSessionStarted, eventbus.TopicSessionStopped)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.StartApp(core.Request{SessionID: "a1", App: audioApp(), ClientDevice: "desktop1"}); err != nil {
		t.Fatal(err)
	}
	ev := <-sub.C()
	if ev.Topic != eventbus.TopicSessionStarted || ev.Payload.(string) != "a1" {
		t.Errorf("event = %+v", ev)
	}
	if err := d.StopApp("a1"); err != nil {
		t.Fatal(err)
	}
	ev = <-sub.C()
	if ev.Topic != eventbus.TopicSessionStopped {
		t.Errorf("event = %+v", ev)
	}
	if err := d.StopApp("ghost"); err == nil {
		t.Error("stopping unknown app should fail")
	}
}

func TestSwitchDeviceInsertsTranscoder(t *testing.T) {
	d := newSpace(t)
	if _, err := d.StartApp(core.Request{
		SessionID:    "a1",
		App:          audioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44))),
		ClientDevice: "desktop1",
	}); err != nil {
		t.Fatal(err)
	}
	defer d.StopApp("a1")
	time.Sleep(time.Duration(float64(time.Second) * testScale))

	active, err := d.SwitchDevice("a1", "pda1")
	if err != nil {
		t.Fatal(err)
	}
	if len(active.Report.Transcoders) != 1 {
		t.Errorf("transcoders = %v", active.Report.Transcoders)
	}
	if active.Placement["player"] != "pda1" {
		t.Errorf("player on %v", active.Placement["player"])
	}
	// Switch back (event 3 of the paper's scenario).
	active, err = d.SwitchDevice("a1", "desktop2")
	if err != nil {
		t.Fatal(err)
	}
	if active.Placement["player"] != "desktop2" {
		t.Errorf("player on %v after switch back", active.Placement["player"])
	}
	if len(active.Report.Transcoders) != 0 {
		t.Error("no transcoder needed on the desktop")
	}
	if _, err := d.SwitchDevice("ghost", "pda1"); err == nil {
		t.Error("unknown session should fail")
	}
	if _, err := d.SwitchDevice("a1", "ghost"); err == nil {
		t.Error("unknown device should fail")
	}
}

func TestConnectValidation(t *testing.T) {
	d := newSpace(t)
	if err := d.Connect("a", "a", netsim.Ethernet); err == nil {
		t.Error("self link should fail")
	}
	if err := d.Connect("x", "y", netsim.Link{}); err == nil {
		t.Error("invalid link should fail")
	}
}

func TestAddDeviceValidation(t *testing.T) {
	d := newSpace(t)
	if _, err := d.AddDevice("bad", device.ClassPDA, resource.Vector{1}, nil); err == nil {
		t.Error("wrong dimension capacity should fail")
	}
	if _, err := d.AddDevice("desktop1", device.ClassDesktop, resource.MB(1, 1), nil); err == nil {
		t.Error("duplicate device should fail")
	}
}

func TestDomainRecordsMetrics(t *testing.T) {
	d := newSpace(t)
	if _, err := d.StartApp(core.Request{SessionID: "m1", App: audioApp(), ClientDevice: "desktop1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SwitchDevice("m1", "desktop2"); err != nil {
		t.Fatal(err)
	}
	if err := d.StopApp("m1"); err != nil {
		t.Fatal(err)
	}
	// A failing configuration also counts.
	if _, err := d.StartApp(core.Request{SessionID: "m2", App: audioApp(), ClientDevice: "ghost"}); err == nil {
		t.Fatal("start on unknown portal should fail discovery or distribution")
	}

	snap := d.Metrics.Exposition()
	for _, want := range []string{
		"configs_total 3", // start + handoff + failed start
		"configs_failed 1",
		"handoffs_total 1",
		"active_sessions 0",
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("metrics snapshot missing %q:\n%s", want, snap)
		}
	}
	if !strings.Contains(snap, "composition_time_seconds_count 2") {
		t.Errorf("composition histogram:\n%s", snap)
	}
}

// TestResizeDeviceTriggersRedistribution: a device that shrinks below its
// commitments overcommits, and the recovery supervisor re-places the
// session it hosted until the device fits again.
func TestResizeDeviceTriggersRedistribution(t *testing.T) {
	d := newSpace(t)
	sup, err := core.NewSupervisor(d.Configurator, core.SupervisorOptions{Bus: d.Bus, BaseBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sup.Stop)
	if _, err := d.StartApp(core.Request{SessionID: "a1", App: audioApp(), ClientDevice: "pda1",
		UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44)))}); err != nil {
		t.Fatal(err)
	}
	defer d.StopApp("a1")
	serverDev := d.Configurator.Session("a1").Placement["server"]
	if serverDev == "pda1" {
		t.Fatal("server unexpectedly on the PDA")
	}

	// The hosting desktop suddenly loses almost all its capacity
	// (normalized [8MB, 10%]): the 64MB server no longer fits and must be
	// redistributed.
	dev := d.Devices.Get(serverDev)
	fits, err := dev.Resize(resource.MB(8, 10))
	if err != nil || fits {
		t.Fatalf("Resize: fits %v, err %v; want an overcommit", fits, err)
	}
	d.Bus.Publish(eventbus.TopicResourceChanged, string(serverDev))
	if !sup.AwaitIdle(5 * time.Second) {
		t.Fatal("supervisor did not settle")
	}
	if st := sup.Stats(); st.Recovered != 1 || st.Lost != 0 {
		t.Errorf("stats = %+v, want one recovery", st)
	}
	after := d.Configurator.Session("a1")
	if after == nil {
		t.Fatal("session lost; want it re-placed")
	}
	if after.Placement["server"] == serverDev {
		t.Error("server still on the shrunken device")
	}
	// The shrunken device is no longer overcommitted.
	if !dev.Committed().LessEq(dev.Capacity()) {
		t.Errorf("still overcommitted: %v > %v", dev.Committed(), dev.Capacity())
	}
}

func TestMissingServiceNotifiesUser(t *testing.T) {
	d := newSpace(t)
	sub, err := d.Bus.SubscribeLossless(eventbus.TopicUserNotification)
	if err != nil {
		t.Fatal(err)
	}
	ag := composer.NewAbstractGraph()
	ag.MustAddNode(&composer.AbstractNode{ID: "x", Spec: registry.Spec{Type: "hologram"}})
	if _, err := d.StartApp(core.Request{SessionID: "h1", App: ag, ClientDevice: "desktop1"}); err == nil {
		t.Fatal("missing service must fail the start")
	}
	select {
	case ev := <-sub.C():
		notice, ok := ev.Payload.(MissingServiceNotice)
		if !ok {
			t.Fatalf("payload = %T", ev.Payload)
		}
		if notice.SessionID != "h1" || len(notice.Types) != 1 || notice.Types[0] != "hologram" {
			t.Errorf("notice = %+v", notice)
		}
	case <-time.After(2 * time.Second):
		t.Error("no user notification published")
	}
}
