package workload

import (
	"math/rand"
	"testing"
)

func TestGraphParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		p    GraphParams
		ok   bool
	}{
		{"table1", Table1Params(), true},
		{"fig5", Fig5Params(), true},
		{"zero nodes", GraphParams{MaxNodes: 5, MinOutDegree: 1, MaxOutDegree: 2, MemMB: 1, CPUPct: 1, EdgeMbps: 1}, false},
		{"inverted nodes", GraphParams{MinNodes: 5, MaxNodes: 2, MinOutDegree: 1, MaxOutDegree: 2, MemMB: 1, CPUPct: 1, EdgeMbps: 1}, false},
		{"inverted degree", GraphParams{MinNodes: 2, MaxNodes: 5, MinOutDegree: 3, MaxOutDegree: 2, MemMB: 1, CPUPct: 1, EdgeMbps: 1}, false},
		{"zero ranges", GraphParams{MinNodes: 2, MaxNodes: 5, MinOutDegree: 1, MaxOutDegree: 2}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.p.Validate(); (err == nil) != c.ok {
				t.Errorf("Validate = %v, want ok=%v", err, c.ok)
			}
		})
	}
	if _, err := RandomGraph(rand.New(rand.NewSource(1)), GraphParams{}); err == nil {
		t.Error("RandomGraph with invalid params should fail")
	}
}

func TestRandomGraphRespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Table1Params()
	for trial := 0; trial < 50; trial++ {
		g := MustRandomGraph(rng, p)
		n := g.NodeCount()
		if n < p.MinNodes || n > p.MaxNodes {
			t.Fatalf("node count %d outside [%d,%d]", n, p.MinNodes, p.MaxNodes)
		}
		if _, err := g.TopoSort(); err != nil {
			t.Fatalf("generated graph must be a DAG: %v", err)
		}
		for _, node := range g.Nodes() {
			if node.Resources[0] <= 0 || node.Resources[0] > p.MemMB {
				t.Fatalf("memory %g outside (0,%g]", node.Resources[0], p.MemMB)
			}
			if node.Resources[1] <= 0 || node.Resources[1] > p.CPUPct {
				t.Fatalf("cpu %g outside (0,%g]", node.Resources[1], p.CPUPct)
			}
		}
		for _, e := range g.Edges() {
			if e.ThroughputMbps <= 0 || e.ThroughputMbps > p.EdgeMbps {
				t.Fatalf("edge throughput %g outside (0,%g]", e.ThroughputMbps, p.EdgeMbps)
			}
		}
	}
}

func TestRandomGraphDegreeDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := Table1Params()
	totalDeg, totalNonTail := 0, 0
	for trial := 0; trial < 30; trial++ {
		g := MustRandomGraph(rng, p)
		ids := g.NodeIDs()
		for i, id := range ids {
			deg := len(g.Out(id))
			remaining := len(ids) - 1 - i
			maxDeg := p.MaxOutDegree
			if remaining < maxDeg {
				maxDeg = remaining
			}
			if deg > maxDeg {
				t.Fatalf("node %s out-degree %d exceeds cap %d", id, deg, maxDeg)
			}
			if remaining >= p.MaxOutDegree {
				totalDeg += deg
				totalNonTail++
			}
		}
	}
	avg := float64(totalDeg) / float64(totalNonTail)
	if avg < float64(p.MinOutDegree) || avg > float64(p.MaxOutDegree) {
		t.Errorf("average unconstrained out-degree %.2f outside [%d,%d]", avg, p.MinOutDegree, p.MaxOutDegree)
	}
}

func TestRandomWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		w := RandomWeights(rng, 2)
		if err := w.Validate(); err != nil {
			t.Fatalf("invalid weights: %v", err)
		}
		if len(w) != 3 {
			t.Fatalf("len = %d", len(w))
		}
	}
}

func TestPredefinedGraphsDeterministic(t *testing.T) {
	a, err := PredefinedGraphs(42, 5, Fig5Params())
	if err != nil {
		t.Fatal(err)
	}
	b, err := PredefinedGraphs(42, 5, Fig5Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i].NodeCount() != b[i].NodeCount() || a[i].EdgeCount() != b[i].EdgeCount() {
			t.Fatalf("graph %d differs between identical seeds", i)
		}
	}
	c, err := PredefinedGraphs(43, 5, Fig5Params())
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].NodeCount() != c[i].NodeCount() || a[i].EdgeCount() != c[i].EdgeCount() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should generally differ")
	}
	if _, err := PredefinedGraphs(1, 1, GraphParams{}); err == nil {
		t.Error("invalid params should fail")
	}
}
