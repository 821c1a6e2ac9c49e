package distributor

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ubiqos/internal/device"
	"ubiqos/internal/graph"
	"ubiqos/internal/resource"
)

var scalingSeed = flag.Int64("scaling.seed", 0, "replay only the scaling case with this seed")

// scaledProblem returns a copy of p with every requirement, availability,
// edge throughput and link bandwidth multiplied by f. For f a power of two
// every sum and ratio the cost aggregation takes scales exactly, so the
// copy's costs are bit-identical to p's.
func scaledProblem(p *Problem, f float64) *Problem {
	g := graph.New()
	for _, n := range p.Graph.Nodes() {
		c := *n
		c.Resources = n.Resources.Scale(f)
		g.MustAddNode(&c)
	}
	for _, e := range p.Graph.Edges() {
		g.MustAddEdge(e.From, e.To, e.ThroughputMbps*f)
	}
	devs := make([]DeviceInfo, len(p.Devices))
	for i, d := range p.Devices {
		devs[i] = DeviceInfo{ID: d.ID, Avail: d.Avail.Scale(f)}
	}
	return &Problem{
		Graph:     g,
		Devices:   devs,
		Bandwidth: func(a, b device.ID) float64 { return p.Bandwidth(a, b) * f },
		Weights:   p.Weights,
	}
}

// scalingCase draws the problem of one seed: 2 or 3 devices of random
// capacity, a random link bandwidth per device pair, 4-9 components, and
// on one seed in three the first component pinned to the first device.
func scalingCase(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	devs := make([]DeviceInfo, 2+rng.Intn(2))
	bw := map[[2]device.ID]float64{}
	for i := range devs {
		devs[i] = DeviceInfo{
			ID:    device.ID(fmt.Sprintf("d%d", i)),
			Avail: resource.MB(rng.Float64()*80+8, rng.Float64()*120+10),
		}
		for j := 0; j < i; j++ {
			mbps := rng.Float64()*40 + 1
			bw[[2]device.ID{devs[i].ID, devs[j].ID}] = mbps
			bw[[2]device.ID{devs[j].ID, devs[i].ID}] = mbps
		}
	}
	p := randomTestProblem(rng, 4+rng.Intn(6), devs, 0)
	p.Bandwidth = func(a, b device.ID) float64 { return bw[[2]device.ID{a, b}] }
	if rng.Intn(3) == 0 {
		p.Graph.Nodes()[0].Pin = string(devs[0].ID)
	}
	return p
}

// TestSolversInvariantUnderScaling is a metamorphic property: scaling
// every requirement, availability, throughput and bandwidth of a problem
// by 2^j, j in -3..3, changes no ratio the cost definition takes, so each
// solver must return the same placement at the bit-identical cost, or
// fail alike. A failure names the seed; -scaling.seed replays it alone.
func TestSolversInvariantUnderScaling(t *testing.T) {
	solvers := []struct {
		name  string
		solve func(*Problem) (Assignment, float64, error)
	}{
		{"heuristic", Heuristic},
		{"optimal", Optimal},
		{"optimal-warm-cold", func(p *Problem) (Assignment, float64, error) { return OptimalWarm(p, nil) }},
		{"first-fit", FirstFit},
	}
	seeds := make([]int64, 500)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if *scalingSeed != 0 {
		seeds = []int64{*scalingSeed}
	}
	feasible := 0
	for _, seed := range seeds {
		p := scalingCase(seed)
		for _, s := range solvers {
			wantA, wantCost, wantErr := s.solve(p)
			if wantErr != nil && !errors.Is(wantErr, ErrInfeasible) {
				t.Fatalf("seed %d (replay with -scaling.seed %d): %s: %v", seed, seed, s.name, wantErr)
			}
			if s.name == "optimal" && wantErr == nil {
				feasible++
			}
			for j := -3; j <= 3; j++ {
				if j == 0 {
					continue
				}
				a, cost, err := s.solve(scaledProblem(p, math.Ldexp(1, j)))
				if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(a, wantA) ||
					math.Float64bits(cost) != math.Float64bits(wantCost) {
					t.Fatalf("seed %d (replay with -scaling.seed %d): %s scaled by 2^%d: (%v, %v, %v), unscaled (%v, %v, %v)",
						seed, seed, s.name, j, a, cost, err, wantA, wantCost, wantErr)
				}
			}
		}
	}
	t.Logf("%d of %d cases feasible", feasible, len(seeds))
	if n := len(seeds); n > 1 && (feasible < n/5 || n-feasible < n/5) {
		t.Errorf("coverage: %d of %d cases feasible; want at least a fifth of each", feasible, n)
	}
}

// TestOptimalInvariantUnderDevicePermutation is the second metamorphic
// property: reordering Problem.Devices renames the partitions and changes
// nothing the cost definition takes, so Optimal must agree on
// feasibility, and its placement, mapped back to the original device
// order, must cost the original optimum on the original problem. The
// device sum runs in another order, so costs agree to 1e-12 relative,
// not bit for bit. A failure names the seed; -scaling.seed replays it.
func TestOptimalInvariantUnderDevicePermutation(t *testing.T) {
	seeds := make([]int64, 500)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if *scalingSeed != 0 {
		seeds = []int64{*scalingSeed}
	}
	for _, seed := range seeds {
		p := scalingCase(seed)
		wantA, wantCost, wantErr := Optimal(p)
		if wantErr != nil && !errors.Is(wantErr, ErrInfeasible) {
			t.Fatalf("seed %d (replay with -scaling.seed %d): %v", seed, seed, wantErr)
		}
		// perm[i] is the original index of the permuted problem's device
		// i; never the identity.
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(p.Devices))
		for perm[0] == 0 && perm[1] == 1 {
			perm = rng.Perm(len(p.Devices))
		}
		devs := make([]DeviceInfo, len(perm))
		for i, orig := range perm {
			devs[i] = p.Devices[orig]
		}
		q := &Problem{Graph: p.Graph, Devices: devs, Bandwidth: p.Bandwidth, Weights: p.Weights}
		a, _, err := Optimal(q)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("seed %d (replay with -scaling.seed %d): devices permuted by %v: error %v, unpermuted %v",
				seed, seed, perm, err, wantErr)
		}
		if err != nil {
			continue
		}
		back := make(Assignment, len(a))
		for n, i := range a {
			back[n] = perm[i]
		}
		if cost := p.CostAggregation(back); math.Abs(cost-wantCost) > 1e-12*math.Abs(wantCost) {
			t.Fatalf("seed %d (replay with -scaling.seed %d): devices permuted by %v: placement %v mapped back costs %v, optimum %v at %v",
				seed, seed, perm, back, cost, wantCost, wantA)
		}
	}
}
