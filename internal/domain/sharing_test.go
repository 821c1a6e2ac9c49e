package domain

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/explain"
	"ubiqos/internal/graph"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
)

// sharingFormats are the formats the generated spaces speak.
var sharingFormats = []string{qos.FormatMP3, qos.FormatWAV, qos.FormatPCM}

// sharingSpace returns constructors for a generated space's instances:
// calling one twice gives two equal instances that share nothing, so one
// is registered and the other kept as its snapshot. Sources may be
// adjustable, filters pass their frame rate through, sinks accept a frame
// rate window, and transcoders and a buffer carry pass-through maps that
// are nil, empty or not, so that every correction Ordered Coordination
// makes has an instance map to write through if it forgot to copy one.
func sharingSpace(rng *rand.Rand) []func() *registry.Instance {
	format := func() string { return sharingFormats[rng.Intn(len(sharingFormats))] }
	passThrough := func() func() map[string]bool {
		switch rng.Intn(3) {
		case 0:
			return func() map[string]bool { return nil }
		case 1:
			return func() map[string]bool { return map[string]bool{} }
		default:
			return func() map[string]bool { return map[string]bool{qos.DimFrameRate: true} }
		}
	}
	var mks []func() *registry.Instance
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		f, rate, adjustable := format(), float64(20+rng.Intn(40)), rng.Intn(3) > 0
		lo := float64(5 + rng.Intn(20))
		mks = append(mks, func() *registry.Instance {
			in := &registry.Instance{
				Name: fmt.Sprintf("src-%d", i), Type: "src",
				Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol(f)), qos.P(qos.DimFrameRate, qos.Scalar(rate))),
				Resources: resource.MB(16, 10),
			}
			if adjustable {
				in.OutCapability = qos.V(qos.P(qos.DimFrameRate, qos.Range(lo, 60)))
				in.Adjustable = map[string]bool{qos.DimFrameRate: true}
			}
			return in
		})
	}
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		from, to, lo, adjustable := format(), format(), float64(5+rng.Intn(20)), rng.Intn(2) == 0
		mks = append(mks, func() *registry.Instance {
			in := &registry.Instance{
				Name: fmt.Sprintf("mid-%d", i), Type: "mid",
				Input:       qos.V(qos.P(qos.DimFormat, qos.Symbol(from)), qos.P(qos.DimFrameRate, qos.Range(lo, 60))),
				Output:      qos.V(qos.P(qos.DimFormat, qos.Symbol(to)), qos.P(qos.DimFrameRate, qos.Scalar(30))),
				PassThrough: map[string]bool{qos.DimFrameRate: true},
				Resources:   resource.MB(8, 10),
			}
			if adjustable {
				in.OutCapability = qos.V(qos.P(qos.DimFrameRate, qos.Range(lo, 60)))
				in.Adjustable = map[string]bool{qos.DimFrameRate: true}
			}
			return in
		})
	}
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		f, lo := format(), float64(10+rng.Intn(20))
		hi := lo + float64(5+rng.Intn(20))
		mks = append(mks, func() *registry.Instance {
			return &registry.Instance{
				Name: fmt.Sprintf("sink-%d", i), Type: "sink",
				Attrs:     map[string]string{"platform": "pc"},
				Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(f)), qos.P(qos.DimFrameRate, qos.Range(lo, hi))),
				Resources: resource.MB(8, 10),
			}
		})
	}
	for _, from := range sharingFormats {
		for _, to := range sharingFormats {
			if from == to || rng.Intn(4) == 0 {
				continue
			}
			pass := passThrough()
			mks = append(mks, func() *registry.Instance {
				return &registry.Instance{
					Name: "tc-" + from + "-" + to, Type: composer.TypeTranscoder,
					Attrs:       map[string]string{"from": from, "to": to},
					Input:       qos.V(qos.P(qos.DimFormat, qos.Symbol(from))),
					Output:      qos.V(qos.P(qos.DimFormat, qos.Symbol(to))),
					PassThrough: pass(),
					Resources:   resource.MB(4, 5),
				}
			})
		}
	}
	pass := passThrough()
	mks = append(mks, func() *registry.Instance {
		return &registry.Instance{
			Name: "buffer", Type: composer.TypeBuffer,
			PassThrough: pass(),
			Resources:   resource.MB(2, 2),
		}
	})
	return mks
}

// sharingApp is a source feeding one or two sinks, each through a filter
// or directly; sinks are pinned to the client.
func sharingApp(rng *rand.Rand) *composer.AbstractGraph {
	ag := composer.NewAbstractGraph()
	ag.MustAddNode(&composer.AbstractNode{ID: "src", Spec: registry.Spec{Type: "src"}})
	for k, n := 0, 1+rng.Intn(2); k < n; k++ {
		sink, from := fmt.Sprintf("sink%d", k), "src"
		ag.MustAddNode(&composer.AbstractNode{ID: graph.NodeID(sink), Spec: registry.Spec{Type: "sink"}, Pin: core.ClientRole})
		if rng.Intn(2) == 0 {
			from = fmt.Sprintf("mid%d", k)
			ag.MustAddNode(&composer.AbstractNode{ID: graph.NodeID(from), Spec: registry.Spec{Type: "mid"}})
			ag.MustAddEdge("src", graph.NodeID(from), 1)
		}
		ag.MustAddEdge(graph.NodeID(from), graph.NodeID(sink), 1)
	}
	return ag
}

// TestRegisteredInstancesStayUnchanged: composed nodes share their
// registry instance's vectors and maps, so nothing on the configure path
// may write through them. Over generated spaces and apps whose
// corrections include output adjustments, transcoder and buffer
// insertions and the sinks' user-QoS merge, every registered instance
// still equals its snapshot after a Compose with provenance, a domain
// Configure with the profiler refining half the instances, a Reconfigure
// at another user QoS, and a Stop.
func TestRegisteredInstancesStayUnchanged(t *testing.T) {
	var configured, adjusted, transcoded, buffered int
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, err := New("sharing", Options{Scale: testScale})
		if err != nil {
			t.Fatal(err)
		}
		d.Capacity.Stop()
		for _, dev := range []device.ID{"desktop1", "desktop2"} {
			if _, err := d.AddDevice(dev, device.ClassDesktop, resource.MB(4096, 4000), map[string]string{"platform": "pc"}); err != nil {
				t.Fatal(err)
			}
			if err := d.ConnectServer(dev, netsim.Ethernet); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Connect("desktop1", "desktop2", netsim.Ethernet); err != nil {
			t.Fatal(err)
		}
		snapshots := map[string]*registry.Instance{}
		for i, mk := range sharingSpace(rng) {
			in := mk()
			d.Registry.MustRegister(in)
			snapshots[in.Name] = mk()
			for _, dev := range []string{"desktop1", "desktop2"} {
				d.Repo.MarkInstalled(dev, in.Name)
			}
			if i%2 == 0 {
				if err := d.Profiler.Observe(in.Name, resource.MB(float64(1+rng.Intn(8)), float64(1+rng.Intn(8)))); err != nil {
					t.Fatal(err)
				}
			}
		}
		check := func(after string) {
			t.Helper()
			for name, want := range snapshots {
				if got := d.Registry.Get(name); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: after %s, instance %s = %+v, registered %+v", seed, after, name, got, want)
				}
			}
		}
		userQoS := func() qos.Vector {
			lo := float64(10 + rng.Intn(30))
			return qos.V(qos.P(qos.DimFrameRate, qos.Range(lo, lo+float64(5+rng.Intn(20)))))
		}
		app := sharingApp(rng)
		req := core.Request{SessionID: "s", App: app, UserQoS: userQoS(), ClientDevice: "desktop1"}

		var rec explain.Record
		_, _, _ = d.Composer.Compose(composer.Request{App: app, UserQoS: req.UserQoS,
			ClientAttrs: map[string]string{"platform": "pc"}, ClientDevice: "desktop1", Explain: &rec})
		check("Compose")
		active, err := d.Configurator.Configure(req)
		check("Configure")
		if err != nil {
			d.Close()
			continue
		}
		configured++
		rep := active.Report
		adjusted += len(rep.Adjustments)
		transcoded += len(rep.Transcoders)
		buffered += len(rep.Buffers)
		req.UserQoS, req.ClientDevice = userQoS(), "desktop2"
		_, _ = d.Configurator.Reconfigure(req)
		check("Reconfigure")
		_ = d.Configurator.Stop(req.SessionID)
		check("Stop")
		d.Close()
	}
	t.Logf("%d configured: %d adjustments, %d transcoders, %d buffers", configured, adjusted, transcoded, buffered)
	if configured < 30 || adjusted < 20 || transcoded < 20 || buffered < 10 {
		t.Error("the generator lost its coverage")
	}
}
