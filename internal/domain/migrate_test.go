package domain

import (
	"strings"
	"testing"
	"time"

	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/ledger"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/resource"
)

// wan is the inter-building link used by migration tests.
var wan = netsim.Link{BandwidthMbps: 2, LatencyMs: 20}

func TestMigrateAcrossDomains(t *testing.T) {
	office := newSpace(t)
	home := newSpace2(t, "home")

	if _, err := office.StartApp(core.Request{
		SessionID:    "music",
		App:          audioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44))),
		ClientDevice: "desktop1",
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Duration(float64(time.Second) * testScale))
	posBefore := office.Configurator.Session("music").Runtime.Position()
	if posBefore == 0 {
		t.Fatal("no playback before migration")
	}

	active, err := office.Migrate("music", home, "home-desktop1", wan)
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if office.Configurator.Session("music") != nil {
		t.Error("session still active in the origin domain")
	}
	if home.Configurator.Session("music") == nil {
		t.Error("session not active in the target domain")
	}
	// To the origin the session has ended: suspended away, not running on.
	if rep, ok := office.Flight.Report("music"); !ok || rep.Outcome != ledger.OutcomeCompleted || rep.Ended == nil {
		t.Errorf("origin ledger report = %+v, want a completed session", rep)
	}
	if active.ClientDevice != "home-desktop1" {
		t.Errorf("portal = %s", active.ClientDevice)
	}
	// Playback continues past the interruption point on the new domain.
	time.Sleep(time.Duration(float64(time.Second) * testScale))
	if pos := active.Runtime.Position(); pos <= posBefore {
		t.Errorf("position %d did not advance past %d after migration", pos, posBefore)
	}
	// The WAN transfer cost is part of the handoff overhead: 0.5MB over
	// 2 Mbps = 2s.
	if active.Timing.InitOrHandoff < 2*time.Second {
		t.Errorf("InitOrHandoff = %v, want ≥ 2s WAN transfer", active.Timing.InitOrHandoff)
	}
	if err := home.StopApp("music"); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateValidation(t *testing.T) {
	office := newSpace(t)
	home := newSpace2(t, "home2")
	if _, err := office.Migrate("ghost", home, "home2-desktop1", wan); err == nil {
		t.Error("unknown session should fail")
	}
	if _, err := office.Migrate("x", office, "desktop1", wan); err == nil {
		t.Error("self-migration should fail")
	}
	if _, err := office.Migrate("x", nil, "desktop1", wan); err == nil {
		t.Error("nil target should fail")
	}
	if _, err := office.Migrate("x", home, "y", netsim.Link{}); err == nil {
		t.Error("invalid WAN link should fail")
	}
}

func TestMigrateRollsBackWhenTargetRejects(t *testing.T) {
	office := newSpace(t)
	// An empty domain: no devices, no services — every configuration fails.
	empty, err := New("void", Options{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(empty.Close)

	if _, err := office.StartApp(core.Request{SessionID: "music", App: audioApp(), ClientDevice: "desktop1"}); err != nil {
		t.Fatal(err)
	}
	_, err = office.Migrate("music", empty, "nowhere", wan)
	if err == nil || !strings.Contains(err.Error(), "resumed at origin") {
		t.Fatalf("err = %v, want rollback notice", err)
	}
	if office.Configurator.Session("music") == nil {
		t.Fatal("session lost: rollback did not resume at origin")
	}
	if err := office.StopApp("music"); err != nil {
		t.Fatal(err)
	}
}

// newSpace2 builds a second smart space with prefixed device names (and
// the same service catalog) so two domains can coexist in one test.
func newSpace2(t *testing.T, prefix string) *Domain {
	t.Helper()
	template := newSpace(t)
	fresh, err := New(prefix, Options{Scale: testScale})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fresh.Close)
	var ids []device.ID
	for _, dev := range template.Devices.All() {
		id := device.ID(prefix + "-" + string(dev.ID))
		// Re-derive the raw capacity: AddDevice re-applies the class
		// normalization, so feed it the inverse.
		raw := dev.Capacity()
		raw[resource.CPU] /= dev.Class.DefaultSpeedRatio()
		if _, err := fresh.AddDevice(id, dev.Class, raw, dev.Attrs); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if err := fresh.Connect(ids[i], ids[j], netsim.Ethernet); err != nil {
				t.Fatal(err)
			}
		}
		if err := fresh.ConnectServer(ids[i], netsim.Ethernet); err != nil {
			t.Fatal(err)
		}
	}
	for _, inst := range template.Registry.All() {
		fresh.Registry.MustRegister(inst)
		for _, id := range ids {
			fresh.Repo.MarkInstalled(string(id), inst.Name)
		}
	}
	return fresh
}
