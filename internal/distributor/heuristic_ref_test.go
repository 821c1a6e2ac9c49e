package distributor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ubiqos/internal/device"
	"ubiqos/internal/graph"
	"ubiqos/internal/obslog"
	"ubiqos/internal/resource"
	"ubiqos/internal/trace"
	"ubiqos/internal/workload"
)

// heuristicReference is the map-based greedy heuristic this package
// shipped before Heuristic moved onto the dense view, kept verbatim (with
// chooseComponent and graph.Neighbors, which only it called) as the oracle
// TestHeuristicMatchesReference compares the rewrite against.
func heuristicReference(p *Problem) (asg Assignment, cost float64, err error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	sp := p.Span.Child("greedy-placement")
	defer sp.End()
	var placements, fallbacks int64
	defer func() {
		sp.Set(trace.Int("placements", placements), trace.Int("fallbacks", fallbacks))
		if p.Stats != nil {
			*p.Stats = SearchStats{Algorithm: "heuristic",
				Explored: placements, Pruned: fallbacks}
			if err == nil {
				// The greedy walk commits a single solution; its cost is the
				// whole bound trajectory.
				p.Stats.BoundTrajectory = []float64{cost}
			}
		}
		p.Log.Debug("greedy placement done",
			obslog.Int("placements", placements), obslog.Int("fallbacks", fallbacks))
	}()
	a, err := p.pinnedAssignment()
	if err != nil {
		return nil, 0, err
	}

	remaining := make([]resource.Vector, len(p.Devices))
	for i, d := range p.Devices {
		remaining[i] = d.Avail.Clone()
	}
	for id, di := range a {
		remaining[di] = remaining[di].Sub(p.Graph.Node(id).Resources)
	}

	unassigned := make(map[graph.NodeID]bool)
	for _, n := range p.Graph.Nodes() {
		if _, ok := a[n.ID]; !ok {
			unassigned[n.ID] = true
		}
	}

	// bySize caches the global decreasing-requirement order.
	bySize := p.sortedNodesByRequirementReference()

	devOrder := make([]int, len(p.Devices))
	for len(unassigned) > 0 {
		// Sort devices by decreasing weighted remaining availability.
		for i := range devOrder {
			devOrder[i] = i
		}
		sort.SliceStable(devOrder, func(x, y int) bool {
			ax := remaining[devOrder[x]].WeightedSum(p.Weights.EndSystem())
			ay := remaining[devOrder[y]].WeightedSum(p.Weights.EndSystem())
			if ax != ay {
				return ax > ay
			}
			return devOrder[x] < devOrder[y]
		})

		head := devOrder[0]
		chosen := p.chooseComponentReference(a, unassigned, bySize, head)

		// Insert into the head device, falling back down the sorted list
		// when the component does not fit.
		placed := false
		for oi, di := range devOrder {
			if p.Graph.Node(chosen).Resources.LessEq(remaining[di]) {
				a[chosen] = di
				remaining[di] = remaining[di].Sub(p.Graph.Node(chosen).Resources)
				delete(unassigned, chosen)
				placed = true
				placements++
				if oi > 0 {
					fallbacks++
				}
				break
			}
		}
		if !placed {
			return nil, 0, ErrInfeasible
		}
	}

	if err := p.FitInto(a); err != nil {
		return nil, 0, err
	}
	return a, p.CostAggregation(a), nil
}

// chooseComponentReference picks the next component to place given the head device:
// the largest-requirement unassigned neighbor of the head's current
// occupants when there is one, otherwise the largest-requirement
// unassigned component overall.
func (p *Problem) chooseComponentReference(a Assignment, unassigned map[graph.NodeID]bool, bySize []*graph.Node, head int) graph.NodeID {
	var best graph.NodeID
	bestReq := -1.0
	for id, di := range a {
		if di != head {
			continue
		}
		for _, nb := range neighborsReference(p.Graph, id) {
			if !unassigned[nb] {
				continue
			}
			req := p.Graph.Node(nb).Resources.WeightedSum(p.Weights.EndSystem())
			if req > bestReq || (req == bestReq && nb < best) {
				best, bestReq = nb, req
			}
		}
	}
	if best != "" {
		return best
	}
	for _, n := range bySize {
		if unassigned[n.ID] {
			return n.ID
		}
	}
	// Unreachable: callers only invoke with a non-empty unassigned set.
	return ""
}

// neighborsReference returns the IDs of all nodes adjacent to id (either
// direction), deduplicated, in deterministic order.
func neighborsReference(g *graph.Graph, id graph.NodeID) []graph.NodeID {
	seen := make(map[graph.NodeID]bool)
	var out []graph.NodeID
	for _, e := range g.Out(id) {
		if !seen[e.To] {
			seen[e.To] = true
			out = append(out, e.To)
		}
	}
	for _, e := range g.In(id) {
		if !seen[e.From] {
			seen[e.From] = true
			out = append(out, e.From)
		}
	}
	return out
}

// sortedNodesByRequirementReference is the stable reflection-based sort
// the reference heuristic ordered its components with.
func (p *Problem) sortedNodesByRequirementReference() []*graph.Node {
	req := func(n *graph.Node) float64 { return n.Resources.WeightedSum(p.Weights.EndSystem()) }
	nodes := slices.Clone(p.Graph.Nodes())
	sort.SliceStable(nodes, func(i, j int) bool {
		ri, rj := req(nodes[i]), req(nodes[j])
		if ri != rj {
			return ri > rj
		}
		return nodes[i].ID < nodes[j].ID
	})
	return nodes
}

// referenceProblem draws one placement problem for the oracle comparison:
// a Table 1 or Fig. 5 graph on 2-6 devices whose summed capacity is
// headroom × the graph's total requirement, split unevenly, with 0-3
// pinned components and a link bandwidth that is either ample or a
// fraction of the graph's total edge throughput.
func referenceProblem(rng *rand.Rand, params workload.GraphParams, headroom float64) *Problem {
	g := workload.MustRandomGraph(rng, params)
	k := 2 + rng.Intn(5)
	total := totalResources(g)
	shares, sum := make([]float64, k), 0.0
	for i := range shares {
		shares[i] = 0.2 + rng.Float64()
		sum += shares[i]
	}
	devices := make([]DeviceInfo, k)
	for i := range devices {
		devices[i] = DeviceInfo{
			ID:    device.ID(fmt.Sprintf("dev%d", i)),
			Avail: total.Scale(headroom * shares[i] / sum),
		}
	}
	nodes := g.Nodes()
	for pins := rng.Intn(4); pins > 0; pins-- {
		nodes[rng.Intn(len(nodes))].Pin = string(devices[rng.Intn(k)].ID)
	}
	bw := 1000.0
	if rng.Intn(3) == 0 {
		var tp float64
		for _, e := range g.Edges() {
			tp += e.ThroughputMbps
		}
		bw = tp * (0.05 + 0.4*rng.Float64())
	}
	return &Problem{
		Graph:     g,
		Devices:   devices,
		Bandwidth: func(a, b device.ID) float64 { return bw },
		Weights:   workload.RandomWeights(rng, resource.Dims),
	}
}

// TestHeuristicMatchesReference holds the dense-view Heuristic to the
// reference on generated problems that are roomy (every device could
// nearly hold the graph), tight enough to force fallbacks down the device
// list, and infeasible: same error or the identical assignment, the same
// cost, and the same placement and fallback counts.
func TestHeuristicMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var solved, fellBack, failed int
	for i := 0; i < 360; i++ {
		params := workload.Table1Params()
		if i%2 == 1 {
			params = workload.Fig5Params()
		}
		headroom := []float64{4, 1.25, 1.08, 0.8}[i/2%4]
		p := referenceProblem(rng, params, headroom)

		var wantStats, gotStats SearchStats
		p.Stats = &wantStats
		want, wantCost, wantErr := heuristicReference(p)
		p.Stats = &gotStats
		got, gotCost, gotErr := Heuristic(p)

		if (wantErr == nil) != (gotErr == nil) ||
			(wantErr != nil && (wantErr.Error() != gotErr.Error() || !errors.Is(gotErr, ErrInfeasible))) {
			t.Fatalf("problem %d: err = %v, reference %v", i, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("problem %d: assignment differs from reference\n got %v\nwant %v", i, got, want)
		}
		if math.Abs(gotCost-wantCost) > 1e-12*math.Abs(wantCost) {
			t.Fatalf("problem %d: cost = %v, reference %v", i, gotCost, wantCost)
		}
		if gotStats.Explored != wantStats.Explored || gotStats.Pruned != wantStats.Pruned {
			t.Fatalf("problem %d: placements/fallbacks = %d/%d, reference %d/%d", i,
				gotStats.Explored, gotStats.Pruned, wantStats.Explored, wantStats.Pruned)
		}
		switch {
		case gotErr != nil:
			failed++
		case gotStats.Pruned > 0:
			fellBack++
			fallthrough
		default:
			solved++
		}
	}
	// The generator must keep reaching all three regimes.
	t.Logf("%d solved (%d with fallbacks), %d failed", solved, fellBack, failed)
	if solved < 100 || fellBack < 30 || failed < 30 {
		t.Errorf("coverage: %d solved (%d with fallbacks), %d failed", solved, fellBack, failed)
	}
}

// TestHeuristicAllocationCeiling keeps per-step allocation (a map per
// neighbor lookup, a sort per step) from coming back: the reference spends
// over 12000 allocations on a Fig. 5 graph.
func TestHeuristicAllocationCeiling(t *testing.T) {
	p := referenceProblem(rand.New(rand.NewSource(5)), workload.Fig5Params(), 4)
	if _, _, err := Heuristic(p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() { Heuristic(p) })
	t.Logf("%d nodes, %d edges: %.0f allocations", p.Graph.NodeCount(), p.Graph.EdgeCount(), allocs)
	if allocs > 600 {
		t.Errorf("Heuristic on a %d-node graph: %.0f allocations, ceiling 600", p.Graph.NodeCount(), allocs)
	}
}
