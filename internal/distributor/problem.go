// Package distributor implements the service distribution tier of the
// dynamic QoS-aware service configuration model (Gu & Nahrstedt, ICDCS
// 2002, §3.3): partitioning a QoS-consistent service graph across the k
// currently available devices (a k-cut, Definition 3.3) such that the graph
// "fits into" the devices (Definition 3.4) while minimizing the Cost
// Aggregation objective (Definition 3.5).
//
// Finding the optimal service distribution is NP-hard (Theorem 1, by
// reduction from minimum directed multiway cut), so the package provides
// the paper's polynomial greedy heuristic alongside an exact
// branch-and-bound solver, a random baseline, a fixed (static) baseline,
// and a first-fit ablation.
package distributor

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"ubiqos/internal/device"
	"ubiqos/internal/graph"
	"ubiqos/internal/obslog"
	"ubiqos/internal/resource"
	"ubiqos/internal/trace"
)

// ErrInfeasible reports that no placement satisfying the fit-into
// constraints exists (or was found by the algorithm at hand).
var ErrInfeasible = errors.New("distributor: service graph does not fit into the available devices")

// DeviceInfo is the distributor's view of one available device: its
// identity and its normalized resource availability vector RA.
type DeviceInfo struct {
	ID    device.ID
	Avail resource.Vector
}

// Problem is one service distribution instance.
type Problem struct {
	// Graph is the QoS-consistent service graph to distribute. Node
	// resource vectors and edge throughputs must be populated.
	Graph *graph.Graph
	// Devices are the k available devices with normalized availability.
	Devices []DeviceInfo
	// Bandwidth reports the available end-to-end bandwidth b(i,j) in Mbps
	// between two devices. It must be symmetric. The total throughput of
	// cut edges between two partitions (both directions) must not exceed
	// it.
	Bandwidth func(a, b device.ID) float64
	// Weights are the m+1 significance weights of Definition 3.5.
	Weights resource.Weights

	// Span, when non-nil, receives solver child spans (branch-and-bound
	// spans with explored/pruned/incumbent counts). It is
	// observability output only and never affects the solution.
	Span *trace.Span
	// Stats, when non-nil, is filled with SearchStats by the solver.
	Stats *SearchStats
	// Log, when non-nil, receives one structured record per solve with
	// the search counters. Observability only.
	Log *obslog.Logger

	// sig is the signature PlanCache.Lookup computed on a miss, left for
	// the Store that follows the solve so a miss hashes the problem once.
	// Atomic because one Problem may be looked up from several goroutines.
	sig atomic.Pointer[string]
}

// Validate checks the problem is well-formed: a valid graph, at least one
// device, consistent dimensionality, and valid weights.
func (p *Problem) Validate() error {
	if p.Graph == nil {
		return fmt.Errorf("distributor: nil graph")
	}
	if err := p.Graph.Validate(); err != nil {
		return err
	}
	if len(p.Devices) == 0 {
		return fmt.Errorf("distributor: no devices")
	}
	if p.Bandwidth == nil {
		return fmt.Errorf("distributor: nil bandwidth function")
	}
	if err := p.Weights.Validate(); err != nil {
		return err
	}
	m := p.Weights.Dims()
	seen := make(map[device.ID]bool, len(p.Devices))
	for _, d := range p.Devices {
		if d.ID == "" {
			return fmt.Errorf("distributor: device with empty ID")
		}
		if seen[d.ID] {
			return fmt.Errorf("distributor: duplicate device %s", d.ID)
		}
		seen[d.ID] = true
		if len(d.Avail) != m {
			return fmt.Errorf("distributor: device %s availability has %d dimensions, weights imply %d", d.ID, len(d.Avail), m)
		}
		if err := d.Avail.Validate(); err != nil {
			return fmt.Errorf("distributor: device %s: %w", d.ID, err)
		}
	}
	for _, n := range p.Graph.Nodes() {
		if len(n.Resources) != m {
			return fmt.Errorf("distributor: node %s requirement has %d dimensions, weights imply %d", n.ID, len(n.Resources), m)
		}
		if n.Pin != "" && !seen[device.ID(n.Pin)] {
			return fmt.Errorf("distributor: node %s pinned to unavailable device %s", n.ID, n.Pin)
		}
	}
	return nil
}

// deviceIndex returns the index of the device with the given ID, or -1.
func (p *Problem) deviceIndex(id device.ID) int {
	for i, d := range p.Devices {
		if d.ID == id {
			return i
		}
	}
	return -1
}

// Assignment maps every service component to the index of the device (in
// Problem.Devices) it is placed on: a k-cut of the service graph.
type Assignment map[graph.NodeID]int

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// unassigned marks, in a resolved assignment, a node the assignment does
// not name; it is out of every device range.
const unassigned = math.MinInt

// placed is the positional view of an assignment: nodes[i] is the graph's
// node at position i and at[i] the device index a gives it, unchecked, or
// unassigned. The map is read once per node; every walk over the edges
// then reads at by the positions graph.EachEdge reports, in graph edge
// order.
func (p *Problem) placed(a Assignment) (nodes []*graph.Node, at []int) {
	nodes = p.Graph.Nodes()
	at = make([]int, len(nodes))
	for i, n := range nodes {
		di, ok := a[n.ID]
		if !ok {
			di = unassigned
		}
		at[i] = di
	}
	return nodes, at
}

// zeroLoads returns one zero requirement vector per device, cut from one
// backing array.
func (p *Problem) zeroLoads() []resource.Vector {
	m, k := p.Weights.Dims(), len(p.Devices)
	flat := make([]float64, k*m)
	loads := make([]resource.Vector, k)
	for i := range loads {
		loads[i] = flat[i*m : (i+1)*m : (i+1)*m]
	}
	return loads
}

// pairThroughput sums the throughput of all cut edges between each
// unordered device pair (both directions, since the bandwidth b(i,j) is a
// shared symmetric capacity) into a k×k row-major matrix: the total for
// devices i < j is at [i*k+j], every other cell stays zero. at is a
// placement by graph position (see placed). Each cell is summed in edge
// order, so the same assignment always yields the same bits. Edges with
// an unassigned or out-of-range endpoint are skipped.
func (p *Problem) pairThroughput(at []int) []float64 {
	k := len(p.Devices)
	out := make([]float64, k*k)
	p.Graph.EachEdge(func(from, to int, tp float64) {
		di, dj := at[from], at[to]
		if di == dj || di < 0 || dj < 0 || di >= k || dj >= k {
			return
		}
		if di > dj {
			di, dj = dj, di
		}
		out[di*k+dj] += tp
	})
	return out
}

// FitInto checks Definition 3.4: the assignment is complete, respects
// pins, every device's summed requirement vector is ≤ its availability,
// and every device pair's summed cut throughput is ≤ the available
// bandwidth between the two devices. It returns nil when the graph fits,
// or an error (wrapping ErrInfeasible) naming the violated constraint.
func (p *Problem) FitInto(a Assignment) error {
	nodes, at := p.placed(a)
	loads := p.zeroLoads()
	for i, n := range nodes {
		di := at[i]
		if di == unassigned {
			return fmt.Errorf("%w: node %s unassigned", ErrInfeasible, n.ID)
		}
		if di < 0 || di >= len(p.Devices) {
			return fmt.Errorf("%w: node %s assigned to invalid device index %d", ErrInfeasible, n.ID, di)
		}
		if n.Pin != "" && p.Devices[di].ID != device.ID(n.Pin) {
			return fmt.Errorf("%w: node %s pinned to %s but assigned to %s", ErrInfeasible, n.ID, n.Pin, p.Devices[di].ID)
		}
		loads[di].AddInPlace(n.Resources)
	}
	for i, load := range loads {
		if !load.LessEq(p.Devices[i].Avail) {
			return fmt.Errorf("%w: device %s overloaded: need %s, have %s",
				ErrInfeasible, p.Devices[i].ID, load, p.Devices[i].Avail)
		}
	}
	k := len(p.Devices)
	for c, tp := range p.pairThroughput(at) {
		if tp == 0 {
			continue
		}
		i, j := p.Devices[c/k].ID, p.Devices[c%k].ID
		if b := p.Bandwidth(i, j); tp > b {
			return fmt.Errorf("%w: link %s-%s oversubscribed: need %.2f Mbps, have %.2f",
				ErrInfeasible, i, j, tp, b)
		}
	}
	return nil
}

// CostAggregation computes Definition 3.5 for a complete assignment:
//
//	CA(Φ) = Σ_j Σ_i w_i·r_i^j/ra_i^j + Σ_{i≠j} w_{m+1}·T_{i,j}/b_{i,j}
//
// where r^j is the summed requirement on device j and T_{i,j} the summed
// cut throughput between devices i and j. Infeasible terms (zero
// availability with nonzero demand) yield +Inf.
func (p *Problem) CostAggregation(a Assignment) float64 {
	nodes, at := p.placed(a)
	loads := p.zeroLoads()
	for i, n := range nodes {
		di := at[i]
		if di < 0 || di >= len(p.Devices) {
			return math.Inf(1)
		}
		loads[di].AddInPlace(n.Resources)
	}
	var cost float64
	for i, load := range loads {
		cost += load.RelativeLoad(p.Devices[i].Avail, p.Weights.EndSystem())
	}
	wNet, k := p.Weights.Network(), len(p.Devices)
	for c, tp := range p.pairThroughput(at) {
		if tp == 0 {
			continue
		}
		b := p.Bandwidth(p.Devices[c/k].ID, p.Devices[c%k].ID)
		if b == 0 {
			return math.Inf(1)
		}
		cost += wNet * tp / b
	}
	return cost
}

// DeviceLoads returns the summed requirement vector per device index for a
// complete assignment — what an admission controller must subtract from
// each device's availability when the application is deployed.
func (p *Problem) DeviceLoads(a Assignment) []resource.Vector {
	nodes, at := p.placed(a)
	loads := p.zeroLoads()
	for i, n := range nodes {
		if di := at[i]; di >= 0 && di < len(loads) {
			loads[di].AddInPlace(n.Resources)
		}
	}
	return loads
}

// LinkDemands returns the summed cut throughput per unordered device pair
// (keyed smaller ID first) — what must be reserved on each link when the
// application is deployed. Pairs that exchange no traffic are omitted.
func (p *Problem) LinkDemands(a Assignment) map[[2]device.ID]float64 {
	out := make(map[[2]device.ID]float64)
	_, at := p.placed(a)
	k := len(p.Devices)
	for c, tp := range p.pairThroughput(at) {
		if tp == 0 {
			continue
		}
		i, j := p.Devices[c/k].ID, p.Devices[c%k].ID
		if i > j {
			i, j = j, i
		}
		out[[2]device.ID{i, j}] = tp
	}
	return out
}

// pinnedAssignment seeds an assignment with every pinned node placed on
// its required device (heuristic step 1: "insert those service components,
// that cannot be instantiated arbitrarily, into their proper devices").
func (p *Problem) pinnedAssignment() (Assignment, error) {
	a := make(Assignment)
	for _, n := range p.Graph.Nodes() {
		if n.Pin == "" {
			continue
		}
		di := p.deviceIndex(device.ID(n.Pin))
		if di < 0 {
			return nil, fmt.Errorf("%w: node %s pinned to unavailable device %s", ErrInfeasible, n.ID, n.Pin)
		}
		a[n.ID] = di
	}
	return a, nil
}

// sortedNodesByRequirement returns the graph's nodes big-first: by
// decreasing weighted sum of their resource requirements (paper §3.3,
// footnote 3), ties broken by ID for determinism.
func (p *Problem) sortedNodesByRequirement() []*graph.Node {
	nodes, w := slices.Clone(p.Graph.Nodes()), p.Weights.EndSystem()
	slices.SortFunc(nodes, func(x, y *graph.Node) int {
		if c := cmp.Compare(y.Resources.WeightedSum(w), x.Resources.WeightedSum(w)); c != 0 {
			return c
		}
		return cmp.Compare(x.ID, y.ID)
	})
	return nodes
}
