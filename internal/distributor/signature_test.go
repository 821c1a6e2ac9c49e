package distributor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ubiqos/internal/device"
	"ubiqos/internal/graph"
	"ubiqos/internal/qos"
	"ubiqos/internal/resource"
	"ubiqos/internal/workload"
)

// sigFixture builds one small concrete problem; nodeOrder and devOrder
// permute the insertion orders without changing the instance itself.
func sigFixture(t *testing.T, nodeOrder, devOrder []int, mutate func(p *Problem)) *Problem {
	t.Helper()
	type nodeSpec struct {
		id  graph.NodeID
		res resource.Vector
		pin string
	}
	nodes := []nodeSpec{
		{id: "src", res: resource.MB(8, 12)},
		{id: "mid", res: resource.MB(6, 10)},
		{id: "snk", res: resource.MB(4, 6), pin: "pda"},
	}
	g := graph.New()
	for _, i := range nodeOrder {
		n := nodes[i]
		g.MustAddNode(&graph.Node{
			ID: n.id, Type: "component", Resources: n.res, Pin: n.pin,
			Out: qos.Vector{}.With("framerate", qos.Scalar(30)),
		})
	}
	g.MustAddEdge("src", "mid", 1.5)
	g.MustAddEdge("mid", "snk", 1.0)
	devs := []DeviceInfo{
		{ID: "pc", Avail: resource.MB(96, 160)},
		{ID: "pda", Avail: resource.MB(32, 90)},
	}
	ordered := make([]DeviceInfo, 0, len(devs))
	for _, i := range devOrder {
		ordered = append(ordered, DeviceInfo{ID: devs[i].ID, Avail: devs[i].Avail.Clone()})
	}
	w, err := resource.NewWeights(0.3, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{
		Graph:     g,
		Devices:   ordered,
		Bandwidth: func(a, b device.ID) float64 { return 40 },
		Weights:   w,
	}
	if mutate != nil {
		mutate(p)
	}
	return p
}

func mustSig(t *testing.T, p *Problem) string {
	t.Helper()
	sig, err := Signature(p)
	if err != nil {
		t.Fatal(err)
	}
	return sig
}

// TestSignatureOrderIndependence: the signature is canonical — insertion
// order of nodes and declaration order of devices must not matter.
func TestSignatureOrderIndependence(t *testing.T) {
	base := mustSig(t, sigFixture(t, []int{0, 1, 2}, []int{0, 1}, nil))
	for _, tc := range []struct {
		name  string
		nodes []int
		devs  []int
	}{
		{"nodes reversed", []int{2, 1, 0}, []int{0, 1}},
		{"devices swapped", []int{0, 1, 2}, []int{1, 0}},
		{"both permuted", []int{1, 2, 0}, []int{1, 0}},
	} {
		if got := mustSig(t, sigFixture(t, tc.nodes, tc.devs, nil)); got != base {
			t.Errorf("%s: signature %s != base %s", tc.name, got, base)
		}
	}
}

// TestSignatureSensitivity: every input the solution depends on must
// change the signature.
func TestSignatureSensitivity(t *testing.T) {
	base := mustSig(t, sigFixture(t, []int{0, 1, 2}, []int{0, 1}, nil))
	mutations := map[string]func(p *Problem){
		"device availability": func(p *Problem) { p.Devices[0].Avail[0] += 1 },
		"link bandwidth":      func(p *Problem) { p.Bandwidth = func(a, b device.ID) float64 { return 39 } },
		"weights": func(p *Problem) {
			w, err := resource.NewWeights(0.4, 0.3, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			p.Weights = w
		},
		"node resources":  func(p *Problem) { p.Graph.Node("mid").Resources[1] += 0.5 },
		"edge throughput": func(p *Problem) { p.Graph.Edges(); mutateEdge(t, p) },
		"node pin":        func(p *Problem) { p.Graph.Node("mid").Pin = "pc" },
		"node qos":        func(p *Problem) { p.Graph.Node("src").Out = p.Graph.Node("src").Out.With("framerate", qos.Scalar(25)) },
	}
	for name, mutate := range mutations {
		if got := mustSig(t, sigFixture(t, []int{0, 1, 2}, []int{0, 1}, mutate)); got == base {
			t.Errorf("mutating %s did not change the signature", name)
		}
	}
}

// mutateEdge rebuilds the fixture graph with a different src→mid
// throughput (edges are immutable once added).
func mutateEdge(t *testing.T, p *Problem) {
	t.Helper()
	g := graph.New()
	for _, n := range p.Graph.Nodes() {
		cp := *n
		g.MustAddNode(&cp)
	}
	for _, e := range p.Graph.Edges() {
		tp := e.ThroughputMbps
		if e.From == "src" {
			tp += 0.25
		}
		g.MustAddEdge(e.From, e.To, tp)
	}
	p.Graph = g
}

// TestSignatureInvalidProblem: an unvalidatable problem has no signature.
func TestSignatureInvalidProblem(t *testing.T) {
	if _, err := Signature(&Problem{}); err == nil {
		t.Error("empty problem should not produce a signature")
	}
}

// signatureReference is Signature as this package shipped it before it
// moved onto one buffer: reflection-based sorts, a hash write per word and
// QoS vectors through String. Kept verbatim as the oracle
// TestSignatureMatchesReference compares the rewrite against.
func signatureReference(p *Problem) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	h := sha256.New()
	wu := func(v uint64) {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(f float64) { wu(math.Float64bits(f)) }
	ws := func(s string) { wu(uint64(len(s))); h.Write([]byte(s)) }

	nodes := slices.Clone(p.Graph.Nodes())
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	ws("nodes")
	wu(uint64(len(nodes)))
	for _, n := range nodes {
		ws(string(n.ID))
		ws(n.Type)
		ws(n.Instance)
		ws(n.Pin)
		ws(n.In.String())
		ws(n.Out.String())
		wu(uint64(len(n.Resources)))
		for _, r := range n.Resources {
			wf(r)
		}
	}

	edges := p.Graph.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	ws("edges")
	wu(uint64(len(edges)))
	for _, e := range edges {
		ws(string(e.From))
		ws(string(e.To))
		wf(e.ThroughputMbps)
	}

	devs := append([]DeviceInfo(nil), p.Devices...)
	sort.Slice(devs, func(i, j int) bool { return devs[i].ID < devs[j].ID })
	ws("devices")
	wu(uint64(len(devs)))
	for _, d := range devs {
		ws(string(d.ID))
		wu(uint64(len(d.Avail)))
		for _, a := range d.Avail {
			wf(a)
		}
	}

	ws("links")
	for i := 0; i < len(devs); i++ {
		for j := i + 1; j < len(devs); j++ {
			wf(p.Bandwidth(devs[i].ID, devs[j].ID))
		}
	}

	ws("weights")
	wu(uint64(len(p.Weights)))
	for _, w := range p.Weights {
		wf(w)
	}

	return hex.EncodeToString(h.Sum(nil)), nil
}

// randomVector draws a QoS vector of every value kind, with floats that
// print in each of %g's shapes.
func randomVector(rng *rand.Rand) qos.Vector {
	floats := []float64{0, 1, 30, 1600, 0.1, 1.0 / 3, 1e-7, 1e21, 123456789, math.MaxFloat64, math.SmallestNonzeroFloat64, rng.Float64() * 1e6, rng.NormFloat64()}
	f := func() float64 { return floats[rng.Intn(len(floats))] }
	var v qos.Vector
	for i, n := 0, rng.Intn(5); i < n; i++ {
		name := string(rune('a' + i))
		switch rng.Intn(4) {
		case 0:
			v = v.With(name, qos.Symbol([]string{"MPEG", "WAV", "a, b", "{x}"}[rng.Intn(4)]))
		case 1:
			v = v.With(name, qos.Scalar(f()))
		case 2:
			lo, hi := f(), f()
			if lo > hi {
				lo, hi = hi, lo
			}
			v = v.With(name, qos.Range(lo, hi))
		default:
			v = v.With(name, qos.Set([]string{"MPEG", "WAV", "PCM"}[:1+rng.Intn(3)]...))
		}
	}
	return v
}

// TestSignatureMatchesReference: the one-buffer Signature lays out the
// very bytes the reference hashed, so every problem keeps its signature —
// and with it every equivalence class of the plan cache's key.
func TestSignatureMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 200; i++ {
		params := workload.Table1Params()
		if i%4 == 0 {
			params = workload.Fig5Params()
		}
		p := referenceProblem(rng, params, 1.5)
		for _, n := range p.Graph.Nodes() {
			n.In, n.Out = randomVector(rng), randomVector(rng)
			if got := string(appendValue(nil, qos.Value{})); got != (qos.Value{}).String() {
				t.Fatalf("invalid value renders %q", got)
			}
			for _, prm := range n.In {
				if got, want := string(appendValue(nil, prm.Value)), prm.Value.String(); got != want {
					t.Fatalf("appendValue = %q, String = %q", got, want)
				}
			}
		}
		want, err := signatureReference(p)
		if err != nil {
			t.Fatal(err)
		}
		// Twice: the second call reuses the first one's buffer.
		for pass := 0; pass < 2; pass++ {
			if got := mustSig(t, p); got != want {
				t.Fatalf("problem %d pass %d: signature %s, reference %s", i, pass, got, want)
			}
		}
	}
}

// BenchmarkSignature hashes Fig. 5-size problems: what a plan-cache miss
// pays before the solve it guards.
func BenchmarkSignature(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	probs := make([]*Problem, 8)
	for i := range probs {
		probs[i] = referenceProblem(rng, workload.Fig5Params(), 1.5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Signature(probs[i%len(probs)]); err != nil {
			b.Fatal(err)
		}
	}
}
