package domain

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"testing"

	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/netsim"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
	ubiruntime "ubiqos/internal/runtime"
	"ubiqos/internal/workload"
)

// observerAllocCeiling bounds what the domain's observers allocate around
// one Fig. 5-size configure and its stop: the trace with its ~70 spans,
// the provenance record with its ranked discoveries, the log records, the
// session store's timeline entries and ledger step, and the metrics. They
// make 244 (the race detector's build the same) with the store taking a
// trace summary and span attributes unboxed; with the full export, a map
// per span, and a box per string attribute they made 454.
const observerAllocCeiling = 260

// TestObserverAllocationCeiling: a Fig. 5-size configure+stop on the
// domain's configurator allocates at most observerAllocCeiling more than
// the same on a configurator with no observer. Like
// TestDiscardedLoggingAllocatesNothing, it runs in a process of its own.
func TestObserverAllocationCeiling(t *testing.T) {
	const child = "UBIQOS_OBSERVER_ALLOC_CHILD"
	if os.Getenv(child) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestObserverAllocationCeiling$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), child+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		t.Logf("%s", out)
		return
	}
	d, err := New("fig5", Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Capacity.Stop()
	for _, dev := range []device.ID{"desktop1", "desktop2"} {
		if _, err := d.AddDevice(dev, device.ClassDesktop, resource.MB(1<<16, 1<<14), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Connect("desktop1", "desktop2", netsim.Ethernet); err != nil {
		t.Fatal(err)
	}
	d.Registry.MustRegister(&registry.Instance{Name: "svc-1", Type: "svc", Resources: resource.MB(1, 1)})
	for _, dev := range []string{"desktop1", "desktop2"} {
		d.Repo.MarkInstalled(dev, "svc-1")
	}
	engine, err := ubiruntime.NewEngine(1, d.Net)
	if err != nil {
		t.Fatal(err)
	}
	weights, err := resource.NewWeights(0.3, 0.3, 0.4) // the domain's default
	if err != nil {
		t.Fatal(err)
	}
	bare, err := core.New(core.Config{
		Composer: d.Composer, Devices: d.Devices, Links: d.Links, Net: d.Net,
		Repo: d.Repo, Checkpoints: d.Checkpoints, Engine: engine, Weights: weights,
		PlanCache: d.PlanCache, Profiler: d.Profiler,
	})
	if err != nil {
		t.Fatal(err)
	}

	g := workload.MustRandomGraph(rand.New(rand.NewSource(5)), workload.Fig5Params())
	app := composer.NewAbstractGraph()
	for _, n := range g.Nodes() {
		app.MustAddNode(&composer.AbstractNode{ID: n.ID, Spec: registry.Spec{Type: "svc"}})
	}
	app.Node(g.Sinks()[0]).Pin = core.ClientRole
	for _, e := range g.Edges() {
		app.MustAddEdge(e.From, e.To, e.ThroughputMbps)
	}
	req := core.Request{SessionID: "fig5-1", App: app, ClientDevice: "desktop1"}

	const runs = 100
	cost := func(c *core.Configurator) float64 {
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
	cost(d.Configurator) // fills the trace and provenance rings
	full, without := math.Inf(1), math.Inf(1)
	for i := 0; i < 3; i++ {
		full, without = min(full, cost(d.Configurator)), min(without, cost(bare))
	}
	t.Logf("configure+stop: %.1f allocations with the observers, %.1f without", full, without)
	if full-without > observerAllocCeiling {
		t.Errorf("the observers allocate %.1f times a Fig. 5 configure+stop, ceiling %d", full-without, observerAllocCeiling)
	}
}
