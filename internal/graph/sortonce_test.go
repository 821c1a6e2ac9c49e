package graph_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/domain"
	"ubiqos/internal/graph"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
	"ubiqos/internal/workload"
)

// sortSpace is a smart space with room for any Fig. 5 graph: two desktops
// and a PDA, fully linked, every component installed everywhere, plan
// cache on.
func sortSpace(t *testing.T, instances []*registry.Instance) *domain.Domain {
	t.Helper()
	dom, err := domain.New("sorts", domain.Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dom.Close)
	devs := []struct {
		id    device.ID
		class device.Class
	}{{"desktopA", device.ClassDesktop}, {"desktopB", device.ClassDesktop}, {"pda", device.ClassPDA}}
	for _, d := range devs {
		if _, err := dom.AddDevice(d.id, d.class, resource.MB(4096, 1000), map[string]string{"platform": "pc"}); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range devs {
		for _, b := range devs[i+1:] {
			if err := dom.Connect(a.id, b.id, netsim.Ethernet); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, in := range instances {
		if err := dom.Registry.Register(in); err != nil {
			t.Fatal(err)
		}
		for _, d := range devs {
			dom.Repo.MarkInstalled(string(d.id), in.Name)
		}
	}
	return dom
}

// sortsIn returns how many topological sorts one Configure computes.
func sortsIn(t *testing.T, dom *domain.Domain, req core.Request) int64 {
	t.Helper()
	before := graph.TopoSortsComputed()
	if _, err := dom.Configurator.Configure(req); err != nil {
		t.Fatal(err)
	}
	n := graph.TopoSortsComputed() - before
	t.Logf("%s: %d topological sorts computed", req.SessionID, n)
	return n
}

// TestConfigureSortsOnce counts the topological sorts one configure
// computes on a plan-cache miss. Ordered Coordination sorts the composed
// graph; the composer's final Validate, the problem validation under the
// signature and again under the solver, and the runtime's Deploy all read
// that order, so a graph OC leaves as composed is sorted once. A splice
// changes the graph, so the final Validate sorts it again, and no stage
// after it does.
func TestConfigureSortsOnce(t *testing.T) {
	t.Run("uncorrected Fig. 5 graph", func(t *testing.T) {
		const types = 16
		var instances []*registry.Instance
		for i := 0; i < types; i++ {
			instances = append(instances, &registry.Instance{
				Name:      fmt.Sprintf("svc%02d-1", i),
				Type:      fmt.Sprintf("svc%02d", i),
				Input:     qos.V(qos.P(qos.DimFrameRate, qos.Range(10, 60))),
				Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol("RAW")), qos.P(qos.DimFrameRate, qos.Scalar(30))),
				Resources: resource.MB(1, 1),
			})
		}
		dom := sortSpace(t, instances)
		rng := rand.New(rand.NewSource(1))
		for k := 0; k < 3; k++ {
			g := workload.MustRandomGraph(rng, workload.Fig5Params())
			app := composer.NewAbstractGraph()
			for _, n := range g.Nodes() {
				app.MustAddNode(&composer.AbstractNode{ID: n.ID, Spec: registry.Spec{Type: fmt.Sprintf("svc%02d", rng.Intn(types))}})
			}
			for _, e := range g.Edges() {
				app.MustAddEdge(e.From, e.To, e.ThroughputMbps)
			}
			req := core.Request{SessionID: fmt.Sprintf("fig5-%d", k), App: app, ClientDevice: "desktopA", MaxFrames: 1}
			if n := sortsIn(t, dom, req); n != 1 {
				t.Errorf("graph %d (%d nodes): one configure computed %d topological sorts, want 1", k, g.NodeCount(), n)
			}
		}
	})
	t.Run("transcoder and buffer spliced", func(t *testing.T) {
		dom := sortSpace(t, []*registry.Instance{
			{Name: "archive-1", Type: "archive",
				Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol("MPEG")), qos.P(qos.DimFrameRate, qos.Scalar(40))),
				Resources: resource.MB(8, 5)},
			{Name: "player-1", Type: "player", Attrs: map[string]string{"platform": "pc"},
				Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol("WAV")), qos.P(qos.DimFrameRate, qos.Range(10, 20))),
				Resources: resource.MB(8, 5)},
			{Name: "mpeg2wav-1", Type: composer.TypeTranscoder,
				Attrs:       map[string]string{"from": "MPEG", "to": "WAV"},
				Input:       qos.V(qos.P(qos.DimFormat, qos.Symbol("MPEG"))),
				Output:      qos.V(qos.P(qos.DimFormat, qos.Symbol("WAV"))),
				PassThrough: map[string]bool{qos.DimFrameRate: true},
				Resources:   resource.MB(4, 2)},
			{Name: "buffer-1", Type: composer.TypeBuffer, Resources: resource.MB(4, 2)},
		})
		app := composer.NewAbstractGraph()
		app.MustAddNode(&composer.AbstractNode{ID: "archive", Spec: registry.Spec{Type: "archive"}})
		app.MustAddNode(&composer.AbstractNode{ID: "player", Spec: registry.Spec{Type: "player"}, Pin: core.ClientRole})
		app.MustAddEdge("archive", "player", 1)
		req := core.Request{SessionID: "spliced", App: app, ClientDevice: "desktopB", MaxFrames: 1}
		if n := sortsIn(t, dom, req); n < 1 || n > 2 {
			t.Errorf("one configure with splices computed %d topological sorts, want 1 or 2", n)
		}
		s := dom.Configurator.Session("spliced")
		if s == nil || s.Graph.NodeCount() < 4 {
			t.Fatalf("expected a transcoder and a buffer spliced in, got %v", s)
		}
	})
}
