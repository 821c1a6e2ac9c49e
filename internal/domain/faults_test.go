package domain

import (
	"testing"

	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/eventbus"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
)

func TestFailAndRejoinDevicePublishOnly(t *testing.T) {
	d := newSpace(t)
	if _, err := d.StartApp(core.Request{SessionID: "a1", App: audioApp(), ClientDevice: "pda1",
		UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44)))}); err != nil {
		t.Fatal(err)
	}
	defer d.StopApp("a1")
	serverDev := d.Configurator.Session("a1").Placement["server"]

	sub, err := d.Bus.SubscribeLossless(eventbus.TopicDeviceLeft, eventbus.TopicDeviceJoined)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.FailDevice(serverDev); err != nil {
		t.Fatal(err)
	}
	if d.Devices.Get(serverDev).Up() {
		t.Error("device still up after FailDevice")
	}
	ev := <-sub.C()
	if ev.Topic != eventbus.TopicDeviceLeft || ev.Payload.(string) != string(serverDev) {
		t.Errorf("event = %+v", ev)
	}
	// FailDevice must NOT reconfigure inline — that is the supervisor's
	// job.
	if got := d.Configurator.Session("a1").Placement["server"]; got != serverDev {
		t.Errorf("FailDevice moved the server to %s", got)
	}

	if err := d.RejoinDevice(serverDev); err != nil {
		t.Fatal(err)
	}
	if !d.Devices.Get(serverDev).Up() {
		t.Error("device still down after RejoinDevice")
	}
	ev = <-sub.C()
	if ev.Topic != eventbus.TopicDeviceJoined || ev.Payload.(string) != string(serverDev) {
		t.Errorf("event = %+v", ev)
	}

	if err := d.FailDevice("ghost"); err == nil {
		t.Error("unknown device should fail")
	}
	if err := d.RejoinDevice("ghost"); err == nil {
		t.Error("unknown device should fail")
	}
}

func TestDegradeAndRestoreLink(t *testing.T) {
	d := newSpace(t)
	if _, err := d.StartApp(core.Request{SessionID: "a1", App: audioApp(), ClientDevice: "pda1",
		UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44)))}); err != nil {
		t.Fatal(err)
	}
	defer d.StopApp("a1")
	// The PDA needs a transcoder, so the component feeding it may sit on
	// either desktop — find the device whose link to the portal actually
	// carries a reservation.
	var serverDev device.ID
	for _, dev := range d.Configurator.Session("a1").Placement {
		if dev != "pda1" && d.Links.Reserved(dev, "pda1") > 0 {
			serverDev = dev
			break
		}
	}
	if serverDev == "" {
		t.Fatal("no reserved link into the portal device")
	}

	sub, err := d.Bus.SubscribeLossless(eventbus.TopicResourceChanged)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := d.DegradeLink(serverDev, "pda1", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if prev.BandwidthMbps != netsim.WLAN.BandwidthMbps {
		t.Errorf("previous link = %+v, want the WLAN", prev)
	}
	got := d.Net.BandwidthMbps(string(serverDev), "pda1")
	if want := netsim.WLAN.BandwidthMbps * 0.1; got != want {
		t.Errorf("netsim bandwidth = %g, want %g", got, want)
	}
	if cap := d.Links.Capacity(serverDev, "pda1"); cap != netsim.WLAN.BandwidthMbps*0.1 {
		t.Errorf("link table capacity = %g", cap)
	}
	// The session reserved 1.5 Mbps on this link; 0.5 Mbps of capacity
	// leaves it overcommitted — the supervisor's trigger condition.
	if res := d.Links.Reserved(serverDev, "pda1"); res <= d.Links.Capacity(serverDev, "pda1") {
		t.Errorf("reserved %g <= capacity %g: degradation did not overcommit", res, d.Links.Capacity(serverDev, "pda1"))
	}
	ev := <-sub.C()
	lc, ok := ev.Payload.(LinkChanged)
	if ev.Topic != eventbus.TopicResourceChanged || !ok || lc.B != "pda1" {
		t.Errorf("event = %+v", ev)
	}

	if err := d.RestoreLink(serverDev, "pda1", prev); err != nil {
		t.Fatal(err)
	}
	if got := d.Links.Capacity(serverDev, "pda1"); got != netsim.WLAN.BandwidthMbps {
		t.Errorf("capacity after restore = %g", got)
	}
	if res := d.Links.Reserved(serverDev, "pda1"); res > d.Links.Capacity(serverDev, "pda1") {
		t.Error("still overcommitted after restore")
	}

	if _, err := d.DegradeLink("ghost", "pda1", 0.5); err == nil {
		t.Error("unknown link should fail")
	}
	if _, err := d.DegradeLink(serverDev, "pda1", 0); err == nil {
		t.Error("factor 0 should fail")
	}
}
