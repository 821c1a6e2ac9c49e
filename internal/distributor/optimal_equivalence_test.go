package distributor

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ubiqos/internal/device"
	"ubiqos/internal/graph"
	"ubiqos/internal/resource"
)

// randomTestProblem draws one Table-1-style instance directly (the
// workload package imports distributor, so the generator is inlined here).
func randomTestProblem(rng *rand.Rand, nodes int, devices []DeviceInfo, linkMbps float64) *Problem {
	g := graph.New()
	ids := make([]graph.NodeID, nodes)
	for i := range ids {
		ids[i] = graph.NodeID(string(rune('a'+i/26)) + string(rune('a'+i%26)))
		g.MustAddNode(&graph.Node{
			ID:        ids[i],
			Type:      "component",
			Resources: resource.MB(rng.Float64()*16+0.5, rng.Float64()*24+0.5),
		})
	}
	for i := 0; i < nodes-1; i++ {
		deg := 1 + rng.Intn(4)
		if m := nodes - 1 - i; deg > m {
			deg = m
		}
		for _, t := range rng.Perm(nodes - 1 - i)[:deg] {
			g.MustAddEdge(ids[i], ids[i+1+t], rng.Float64()*6+0.1)
		}
	}
	w := resource.Weights{}
	sum := 0.0
	for i := 0; i < resource.Dims+1; i++ {
		w = append(w, rng.Float64()+0.01)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return &Problem{
		Graph:     g,
		Devices:   devices,
		Bandwidth: func(a, b device.ID) float64 { return linkMbps },
		Weights:   w,
	}
}

// checkColdWarmEquivalence is the two-solver contract on one instance:
// OptimalWarm with nothing to warm-start from — a nil incumbent, an empty
// one, or one that names only devices no longer offered — returns the same
// assignment and the bit-identical cost as Optimal, including agreeing on
// infeasibility. It reports whether the instance was feasible.
func checkColdWarmEquivalence(t *testing.T, trial int, p *Problem) bool {
	t.Helper()
	vanished := &Incumbent{Placement: map[graph.NodeID]device.ID{}, Cost: 1}
	for _, id := range p.Graph.NodeIDs() {
		vanished.Placement[id] = "gone"
	}
	seqA, seqCost, seqErr := Optimal(p)
	for name, inc := range map[string]*Incumbent{"nil": nil, "empty": {}, "vanished": vanished} {
		p.Stats = &SearchStats{}
		warmA, warmCost, warmErr := OptimalWarm(p, inc)
		if p.Stats.Algorithm != "optimal" || p.Stats.Warm {
			t.Fatalf("trial %d (%s incumbent): solved as %+v, want a cold solve", trial, name, *p.Stats)
		}
		p.Stats = nil
		if seqErr != nil {
			if !errors.Is(seqErr, ErrInfeasible) || !errors.Is(warmErr, ErrInfeasible) {
				t.Fatalf("trial %d (%s incumbent): want ErrInfeasible from both, got %v and %v", trial, name, seqErr, warmErr)
			}
			continue
		}
		if warmErr != nil {
			t.Fatalf("trial %d (%s incumbent): optimal solved, warm failed: %v", trial, name, warmErr)
		}
		if math.Float64bits(seqCost) != math.Float64bits(warmCost) || !reflect.DeepEqual(seqA, warmA) {
			t.Fatalf("trial %d (%s incumbent): (%v, %v) != optimal (%v, %v)",
				trial, name, warmA, warmCost, seqA, seqCost)
		}
	}
	return seqErr == nil
}

func TestOptimalWarmColdMatchesOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	devices := []DeviceInfo{
		{ID: "pc", Avail: resource.MB(96, 160)},
		{ID: "pda", Avail: resource.MB(32, 90)},
	}
	feasible, infeasible := 0, 0
	for trial := 0; trial < 40; trial++ {
		p := randomTestProblem(rng, 8+rng.Intn(7), devices, 40)
		if checkColdWarmEquivalence(t, trial, p) {
			feasible++
		} else {
			infeasible++
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("coverage: %d feasible, %d infeasible instances; want both", feasible, infeasible)
	}
}

// TestOptimalWarmColdMatchesOptimalThreeDevices widens the fan-out and
// pins the first component, so the pin filter of the incumbent and of the
// search are both on the path.
func TestOptimalWarmColdMatchesOptimalThreeDevices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	devices := []DeviceInfo{
		{ID: "desktop", Avail: resource.MB(128, 200)},
		{ID: "laptop", Avail: resource.MB(64, 100)},
		{ID: "pda", Avail: resource.MB(24, 60)},
	}
	for trial := 0; trial < 15; trial++ {
		p := randomTestProblem(rng, 10+rng.Intn(3), devices, 30)
		p.Graph.Nodes()[0].Pin = "desktop"
		checkColdWarmEquivalence(t, trial, p)
	}
}
