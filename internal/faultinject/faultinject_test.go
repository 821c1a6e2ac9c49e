package faultinject

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"ubiqos/internal/device"
	"ubiqos/internal/domain"
	"ubiqos/internal/metrics"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
)

func testParams() Params {
	return Params{
		Seed:         7,
		Duration:     30 * time.Second,
		Crashes:      2,
		Degrades:     1,
		Flaps:        1,
		Stalls:       1,
		RecoverAfter: 10 * time.Second,
		Devices:      []device.ID{"d1", "d2", "d3", "d4"},
		Protected:    map[device.ID]bool{"pda1": true},
		Links:        [][2]device.ID{{"d1", "d2"}, {"d2", "d3"}},
		Services:     []string{"svc-1", "svc-2"},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testParams())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same params produced different schedules")
	}
	// 5 faults, each with a paired undo.
	if len(a.Faults) != 10 {
		t.Fatalf("faults = %d, want 10", len(a.Faults))
	}
	for i := 1; i < len(a.Faults); i++ {
		if a.Faults[i].At < a.Faults[i-1].At {
			t.Fatal("schedule not time-ordered")
		}
	}
	crashed := map[device.ID]int{}
	for _, f := range a.Faults {
		if f.Kind == DeviceCrash {
			crashed[f.Device]++
		}
		if f.Device == "pda1" {
			t.Errorf("protected device faulted: %+v", f)
		}
	}
	if len(crashed) != 2 {
		t.Errorf("crash victims = %v, want 2 distinct", crashed)
	}
	for d, n := range crashed {
		if n != 1 {
			t.Errorf("device %s crashed %d times", d, n)
		}
	}

	other := testParams()
	other.Seed = 8
	c, err := Generate(other)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Faults, c.Faults) {
		t.Error("different seeds produced the same schedule")
	}
}

func TestGenerateNoUndosWhenRecoverZero(t *testing.T) {
	p := testParams()
	p.RecoverAfter = 0
	s, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Faults) != 5 {
		t.Fatalf("faults = %d, want 5", len(s.Faults))
	}
	for _, f := range s.Faults {
		switch f.Kind {
		case DeviceRejoin, LinkRestore, ServiceRestore, StallClear:
			t.Errorf("unexpected undo fault %+v", f)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.Duration = 0 },
		func(p *Params) { p.Devices = nil },
		func(p *Params) { p.Crashes = 10 },
		func(p *Params) { p.Links = nil },
		func(p *Params) { p.Services = nil },
	}
	for i, mutate := range cases {
		p := testParams()
		mutate(&p)
		if _, err := Generate(p); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("seed=9,crashes=2,degrades=1,flaps=3,stalls=1,window=20s,recover=5s,degrade-factor=0.2,stall-factor=0.4")
	if err != nil {
		t.Fatal(err)
	}
	want := Params{Seed: 9, Crashes: 2, Degrades: 1, Flaps: 3, Stalls: 1,
		Duration: 20 * time.Second, RecoverAfter: 5 * time.Second,
		DegradeFactor: 0.2, StallFactor: 0.4}
	if !reflect.DeepEqual(p, want) {
		t.Errorf("parsed = %+v, want %+v", p, want)
	}
	// Empty spec keeps defaults.
	p, err = ParseSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if p.Duration != 30*time.Second || p.RecoverAfter != 10*time.Second {
		t.Errorf("defaults = %+v", p)
	}
	for _, bad := range []string{"bogus=1", "crashes", "crashes=x", "window=fast"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("spec %q should fail", bad)
		}
	}
}

// chaosDomain is a two-desktop space with one registered service.
func chaosDomain(t *testing.T) *domain.Domain {
	t.Helper()
	d := domain.MustNew("lab", domain.Options{Scale: 0.001})
	t.Cleanup(d.Close)
	for _, id := range []device.ID{"d1", "d2"} {
		if _, err := d.AddDevice(id, device.ClassDesktop, resource.MB(256, 100), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Connect("d1", "d2", netsim.Ethernet); err != nil {
		t.Fatal(err)
	}
	d.Registry.MustRegister(&registry.Instance{
		Name:      "svc-1",
		Type:      "audio-server",
		Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3))),
		Resources: resource.MB(64, 50),
		SizeMB:    1,
	})
	return d
}

func TestInjectorAppliesAndUndoes(t *testing.T) {
	d := chaosDomain(t)
	in, err := NewInjector(d, Schedule{})
	if err != nil {
		t.Fatal(err)
	}

	// Crash / rejoin.
	if err := in.Apply(Fault{Kind: DeviceCrash, Device: "d1"}); err != nil {
		t.Fatal(err)
	}
	if d.Devices.Get("d1").Up() {
		t.Error("d1 still up")
	}
	if err := in.Apply(Fault{Kind: DeviceRejoin, Device: "d1"}); err != nil {
		t.Fatal(err)
	}
	if !d.Devices.Get("d1").Up() {
		t.Error("d1 still down")
	}

	// Degrade / restore.
	if err := in.Apply(Fault{Kind: LinkDegrade, LinkA: "d1", LinkB: "d2", Factor: 0.5}); err != nil {
		t.Fatal(err)
	}
	if got := d.Net.BandwidthMbps("d1", "d2"); got != netsim.Ethernet.BandwidthMbps*0.5 {
		t.Errorf("degraded bandwidth = %g", got)
	}
	if err := in.Apply(Fault{Kind: LinkRestore, LinkA: "d1", LinkB: "d2"}); err != nil {
		t.Fatal(err)
	}
	if got := d.Net.BandwidthMbps("d1", "d2"); got != netsim.Ethernet.BandwidthMbps {
		t.Errorf("restored bandwidth = %g", got)
	}
	if err := in.Apply(Fault{Kind: LinkRestore, LinkA: "d1", LinkB: "d2"}); err == nil {
		t.Error("double restore should fail")
	}

	// Flap / restore.
	if err := in.Apply(Fault{Kind: DiscoveryFlap, Service: "svc-1"}); err != nil {
		t.Fatal(err)
	}
	if d.Registry.Get("svc-1") != nil {
		t.Error("svc-1 still discoverable")
	}
	if err := in.Apply(Fault{Kind: ServiceRestore, Service: "svc-1"}); err != nil {
		t.Fatal(err)
	}
	if d.Registry.Get("svc-1") == nil {
		t.Error("svc-1 not restored")
	}

	// Stall / clear.
	cap := d.Devices.Get("d2").Capacity().Clone()
	if err := in.Apply(Fault{Kind: Stall, Device: "d2", Factor: 0.5}); err != nil {
		t.Fatal(err)
	}
	if !d.Devices.Get("d2").Capacity().Equal(cap.Scale(0.5)) {
		t.Errorf("stalled capacity = %v", d.Devices.Get("d2").Capacity())
	}
	if err := in.Apply(Fault{Kind: Stall, Device: "d2", Factor: 0.5}); err == nil {
		t.Error("double stall should fail")
	}
	if err := in.Apply(Fault{Kind: StallClear, Device: "d2"}); err != nil {
		t.Fatal(err)
	}
	if !d.Devices.Get("d2").Capacity().Equal(cap) {
		t.Errorf("cleared capacity = %v", d.Devices.Get("d2").Capacity())
	}

	// Errors.
	if err := in.Apply(Fault{Kind: DeviceCrash, Device: "ghost"}); err == nil {
		t.Error("unknown device should fail")
	}
	if err := in.Apply(Fault{Kind: DiscoveryFlap, Service: "ghost"}); err == nil {
		t.Error("unknown service should fail")
	}
	if err := in.Apply(Fault{Kind: "nonsense"}); err == nil {
		t.Error("unknown kind should fail")
	}

	// Every successful injection was counted.
	if got := d.Metrics.Counter(metrics.FaultsInjected).Value(); got != 8 {
		t.Errorf("%s = %d, want 8", metrics.FaultsInjected, got)
	}
	if got := d.Metrics.Counter(metrics.WithLabel(metrics.FaultsInjected, "kind", string(DeviceCrash))).Value(); got != 1 {
		t.Errorf("per-kind counter = %d, want 1", got)
	}
}

func TestInjectorRunWalksSchedule(t *testing.T) {
	d := chaosDomain(t)
	sched := Schedule{Faults: []Fault{
		{At: 10 * time.Millisecond, Kind: DeviceCrash, Device: "d1"},
		{At: 20 * time.Millisecond, Kind: DeviceRejoin, Device: "d1"},
		{At: 30 * time.Millisecond, Kind: Stall, Device: "d2", Factor: 0.5},
	}}
	in, err := NewInjector(d, sched)
	if err != nil {
		t.Fatal(err)
	}
	// A bounded run stops before the first fault at or past the bound.
	if err := in.Run(0.01, 30*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	if got := d.Metrics.Counter(metrics.FaultsInjected).Value(); got != 2 {
		t.Errorf("injected before the bound = %d, want 2", got)
	}
	if err := in.Run(0.01, 0, nil); err != nil {
		t.Fatal(err)
	}
	if !d.Devices.Get("d1").Up() {
		t.Error("d1 should have rejoined")
	}
	if got := d.Metrics.Counter(metrics.FaultsInjected).Value(); got != 3 {
		t.Errorf("injected = %d, want 3", got)
	}
	// The schedule is exhausted.
	if _, more, _ := in.Step(); more {
		t.Error("Step after Run reported more faults")
	}
}

func TestInjectorRunStops(t *testing.T) {
	d := chaosDomain(t)
	sched := Schedule{Faults: []Fault{
		{At: time.Hour, Kind: DeviceCrash, Device: "d1"},
	}}
	in, err := NewInjector(d, sched)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	if err := in.Run(1, 0, stop); err != nil {
		t.Fatal(err)
	}
	if !d.Devices.Get("d1").Up() {
		t.Error("fault applied despite stop")
	}
}

// targetDomain is three desktops and a PDA, linked in map order so the
// link table holds no order of its own, with two registered services.
func targetDomain(t *testing.T) *domain.Domain {
	t.Helper()
	d := domain.MustNew("targets", domain.Options{Scale: 0.001})
	t.Cleanup(d.Close)
	for _, id := range []device.ID{"d1", "d2", "d3"} {
		if _, err := d.AddDevice(id, device.ClassDesktop, resource.MB(256, 100), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.AddDevice("pda1", device.ClassPDA, resource.MB(64, 100), nil); err != nil {
		t.Fatal(err)
	}
	links := map[[2]device.ID]netsim.Link{
		{"d1", "d2"}: netsim.Ethernet, {"d1", "d3"}: netsim.Ethernet, {"d2", "d3"}: netsim.Ethernet,
		{"d1", "pda1"}: netsim.WLAN, {"d2", "pda1"}: netsim.WLAN, {"d3", "pda1"}: netsim.WLAN,
	}
	for pair, link := range links {
		if err := d.Connect(pair[0], pair[1], link); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"svc-b", "svc-a"} {
		d.Registry.MustRegister(&registry.Instance{Name: name, Type: "audio-server", Resources: resource.MB(64, 50)})
	}
	return d
}

func TestSetTargets(t *testing.T) {
	var first Schedule
	// The link table iterates in map order; assemble several times so an
	// unsorted list would show.
	for i := 0; i < 10; i++ {
		d := targetDomain(t)
		p := Params{Seed: 42, Duration: 30 * time.Second, Crashes: 1, Degrades: 3, Flaps: 1, Stalls: 1, RecoverAfter: 10 * time.Second}
		p.SetTargets(d)

		if want := []device.ID{"d1", "d2", "d3", "pda1"}; !reflect.DeepEqual(p.Devices, want) {
			t.Errorf("devices = %v, want %v", p.Devices, want)
		}
		if want := map[device.ID]bool{"pda1": true}; !reflect.DeepEqual(p.Protected, want) {
			t.Errorf("protected = %v, want only the PDA", p.Protected)
		}
		if len(p.Links) != 6 {
			t.Errorf("links = %v, want 6", p.Links)
		}
		for j := 1; j < len(p.Links); j++ {
			a, b := p.Links[j-1], p.Links[j]
			if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
				t.Fatalf("links not sorted: %v", p.Links)
			}
		}
		for _, inst := range d.Registry.All() {
			if !slices.Contains(p.Services, inst.Name) {
				t.Errorf("services = %v, missing %s", p.Services, inst.Name)
			}
		}

		sched, err := Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sched
		} else if !reflect.DeepEqual(sched, first) {
			t.Fatalf("assembly %d gave a different schedule:\n%+v\n%+v", i, sched, first)
		}
	}
}
