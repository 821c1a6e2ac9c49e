package core

import (
	"math"
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"ubiqos/internal/checkpoint"
	"ubiqos/internal/composer"
	"ubiqos/internal/device"
	"ubiqos/internal/distributor"
	"ubiqos/internal/eventbus"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/repository"
	"ubiqos/internal/resource"
	"ubiqos/internal/runtime"
)

// TestSupervisorDropsTaskOfStoppedSession: a session the user stops while
// its recovery waits is not brought back. The task is dropped with no
// attempt and no loss.
func TestSupervisorDropsTaskOfStoppedSession(t *testing.T) {
	f := newSuperFixture(t)
	opts := fastOpts(f.bus)
	opts.InitialDelay = 100 * time.Millisecond
	sup, err := NewSupervisor(f.c, opts)
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
	for deadline := time.Now().Add(5 * time.Second); sup.Stats().Backlog == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the crash queued no recovery")
		}
	}
	if err := f.c.Stop("a1"); err != nil {
		t.Fatal(err)
	}
	if !sup.AwaitIdle(5 * time.Second) {
		t.Fatal("supervisor did not settle")
	}
	if st := sup.Stats(); st.Attempts != 0 || st.Recovered != 0 || st.Lost != 0 {
		t.Errorf("stats = %+v; want the task dropped with no attempt and no loss", st)
	}
	if n := f.c.Sessions(); n != 0 {
		t.Errorf("Sessions() = %d after the stop, want 0", n)
	}
	f.dsk.SetUp(true)
	f.dsk2.SetUp(true)
	f.checkBaseline(t)
}

// TestReconfigureAfterShrinkCreditsWhatReleasePays: after a shrink leaves
// a device overcommitted, a reconfigure counts as free on it only what
// releasing the session's reservation would give back once the overcommit
// is paid off. With every other device full, nothing fits and the session
// stays as it was; once another desktop has room, the server moves there
// and every device is within its capacity.
func TestReconfigureAfterShrinkCreditsWhatReleasePays(t *testing.T) {
	f := newSuperFixture(t)
	req := audioRequest("a1") // the player is pinned to desktop1
	active, err := f.c.Configure(req)
	if err != nil {
		t.Fatal(err)
	}
	defer f.c.Stop("a1")
	host := f.cfg.Devices.Get(active.Placement["server"])
	fillers := map[device.ID]resource.Vector{}
	for _, d := range f.cfg.Devices.All() {
		if d != host {
			fillers[d.ID] = d.Available()
			if err := d.Admit(fillers[d.ID]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The server takes 50 % CPU; its desktop shrinks to 30 %.
	if fits, err := host.Resize(resource.MB(256, 30)); err != nil || fits {
		t.Fatalf("Resize = %v, %v; want an overcommit", fits, err)
	}
	committed := map[device.ID]resource.Vector{}
	for _, d := range f.cfg.Devices.All() {
		committed[d.ID] = d.Committed()
	}
	if _, err := f.c.Reconfigure(req); err == nil {
		t.Fatal("the server found room on the shrunk desktop")
	}
	if f.c.Session("a1") != active {
		t.Error("the failed reconfigure replaced the session")
	}
	for _, d := range f.cfg.Devices.All() {
		if !d.Committed().Equal(committed[d.ID]) {
			t.Errorf("the failed reconfigure moved %s from %s to %s committed", d.ID, committed[d.ID], d.Committed())
		}
	}

	for id, filler := range fillers {
		if id != "pda1" {
			f.cfg.Devices.Get(id).Release(filler)
		}
	}
	moved, err := f.c.Reconfigure(req)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Placement["server"] == host.ID {
		t.Errorf("server stayed on %s, which has 30 %% CPU", host.ID)
	}
	for _, d := range f.cfg.Devices.All() {
		if !d.Committed().LessEq(d.Capacity()) {
			t.Errorf("%s committed %s beyond its capacity %s", d.ID, d.Committed(), d.Capacity())
		}
	}
}

// TestTransitionsFailFastWhileOneIsInFlight: while a reconfigure of a
// session is in flight, a stop, a suspend, a configure and a second
// reconfigure of the same ID fail fast, and the session keeps playing.
func TestTransitionsFailFastWhileOneIsInFlight(t *testing.T) {
	f := newFixture(t)
	req := audioRequest("a1")
	if _, err := f.c.Configure(req); err != nil {
		t.Fatal(err)
	}
	placing, release := make(chan struct{}), make(chan struct{})
	held := req
	held.Place = func(p *distributor.Problem) (distributor.Assignment, float64, error) {
		close(placing)
		<-release
		return distributor.Heuristic(p)
	}
	done := make(chan error)
	go func() {
		_, err := f.c.Reconfigure(held)
		done <- err
	}()
	<-placing
	inFlight := func(name string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "already") {
			t.Errorf("%s of a session mid-transition: err = %v, want a fast failure", name, err)
		}
	}
	inFlight("stop", f.c.Stop("a1"))
	_, err := f.c.Suspend("a1")
	inFlight("suspend", err)
	_, err = f.c.Configure(req)
	inFlight("configure", err)
	_, err = f.c.Reconfigure(req)
	inFlight("reconfigure", err)
	if f.c.Session("a1") == nil || f.c.Sessions() != 1 {
		t.Error("the session left the registry mid-transition")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := f.c.Stop("a1"); err != nil {
		t.Fatal(err)
	}
	f.checkBaseline(t)
}

// configureAllocCeiling bounds what one fresh Configure and its Stop of a
// mix4 voice session allocate on a configurator with no observer. It is
// the count measured before reconfigures turned make-before-break: a
// configure has nothing to credit, so crediting must cost it nothing.
const configureAllocCeiling = 104

// TestConfigureAllocationCeiling runs a voice configure+stop, the
// benchmark's mix4 voice app, in a process of its own (no other test's
// goroutines allocate meanwhile) and holds it to configureAllocCeiling.
func TestConfigureAllocationCeiling(t *testing.T) {
	const child = "UBIQOS_CONFIGURE_ALLOC_CHILD"
	if os.Getenv(child) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestConfigureAllocationCeiling$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), child+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		t.Logf("%s", out)
		return
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector sync.Pool drops entries at random, so counts vary")
			}
		}
	}
	reg := registry.New()
	reg.MustRegister(&registry.Instance{Name: "voice-server-1", Type: "voice-server",
		Output:        qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatPCM)), qos.P(qos.DimFrameRate, qos.Scalar(50))),
		OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(5, 60))),
		Adjustable:    map[string]bool{qos.DimFrameRate: true},
		Resources:     resource.MB(16, 10)})
	reg.MustRegister(&registry.Instance{Name: "voice-player-pc", Type: "voice-player",
		Attrs:     map[string]string{"platform": "pc"},
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatPCM)), qos.P(qos.DimFrameRate, qos.Range(10, 30))),
		Resources: resource.MB(8, 5)})
	net := netsim.MustNew(1)
	devices, links := device.NewTable(), device.NewLinks()
	desktops := []device.ID{"desktop1", "desktop2", "desktop3", "desktop4"}
	repo, err := repository.New("repo-host", net)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range desktops {
		if err := devices.Add(device.MustNew(id, device.ClassDesktop, resource.MB(256, 500), map[string]string{"platform": "pc"})); err != nil {
			t.Fatal(err)
		}
		for _, other := range desktops[:i] {
			net.MustSetLink(string(id), string(other), netsim.Ethernet)
			links.MustSet(id, other, netsim.Ethernet.BandwidthMbps)
		}
		repo.MarkInstalled(string(id), "voice-server-1")
		repo.MarkInstalled(string(id), "voice-player-pc")
	}
	engine, err := runtime.NewEngine(1, net)
	if err != nil {
		t.Fatal(err)
	}
	w, err := resource.NewWeights(0.3, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Composer: composer.New(reg), Devices: devices, Links: links, Net: net, Repo: repo,
		Checkpoints: checkpoint.NewStore(), Engine: engine, Weights: w,
		PlanCache: distributor.NewPlanCache(distributor.DefaultPlanCacheCapacity)})
	if err != nil {
		t.Fatal(err)
	}
	app := composer.NewAbstractGraph()
	app.MustAddNode(&composer.AbstractNode{ID: "server", Spec: registry.Spec{Type: "voice-server"}})
	app.MustAddNode(&composer.AbstractNode{ID: "player", Spec: registry.Spec{Type: "voice-player"}, Pin: ClientRole})
	app.MustAddEdge("server", "player", 0.125)
	req := Request{SessionID: "voice-1", App: app, ClientDevice: "desktop2",
		UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(20, 25)))}

	const runs = 100
	cycle := func() float64 {
		return testing.AllocsPerRun(1, func() {
			for i := 0; i < runs; i++ {
				if _, err := c.Configure(req); err != nil {
					t.Fatal(err)
				}
				if err := c.Stop(req.SessionID); err != nil {
					t.Fatal(err)
				}
			}
		}) / runs
	}
	allocs := math.Inf(1)
	for i := 0; i < 3; i++ {
		allocs = min(allocs, cycle())
	}
	t.Logf("voice configure+stop: %.1f allocations", allocs)
	if allocs > configureAllocCeiling {
		t.Errorf("a voice configure+stop allocates %.1f times, ceiling %d", allocs, configureAllocCeiling)
	}
}
