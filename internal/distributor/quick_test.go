package distributor

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ubiqos/internal/device"
	"ubiqos/internal/graph"
	"ubiqos/internal/resource"
	"ubiqos/internal/workload"
)

// problemGen generates random valid distribution problems for
// testing/quick: 2-4 heterogeneous devices and a small random service
// graph with occasional pins.
type problemGen struct{ P *Problem }

// Generate implements quick.Generator.
func (problemGen) Generate(r *rand.Rand, _ int) reflect.Value {
	k := 2 + r.Intn(3)
	devices := make([]DeviceInfo, k)
	for i := range devices {
		devices[i] = DeviceInfo{
			ID:    device.ID([]string{"alpha", "beta", "gamma", "delta"}[i]),
			Avail: resource.MB(32+float64(r.Intn(256)), 50+float64(r.Intn(400))),
		}
	}
	g := workload.MustRandomGraph(r, workload.GraphParams{
		MinNodes: 3, MaxNodes: 12,
		MinOutDegree: 1, MaxOutDegree: 3,
		MemMB: 12, CPUPct: 20, EdgeMbps: 3,
	})
	// Occasionally pin a node to a random device.
	if r.Intn(3) == 0 {
		nodes := g.Nodes()
		nodes[r.Intn(len(nodes))].Pin = string(devices[r.Intn(k)].ID)
	}
	bw := 20 + float64(r.Intn(100))
	p := &Problem{
		Graph:     g,
		Devices:   devices,
		Bandwidth: func(a, b device.ID) float64 { return bw },
		Weights:   workload.RandomWeights(r, resource.Dims),
	}
	return reflect.ValueOf(problemGen{P: p})
}

// qcfg keeps quick runs fast: every property re-solves a placement.
var qcfg = &quick.Config{MaxCount: 60}

func TestPropHeuristicOutputAlwaysFeasible(t *testing.T) {
	prop := func(g problemGen) bool {
		a, cost, err := Heuristic(g.P)
		if err != nil {
			return true // infeasible instances are allowed to fail
		}
		if g.P.FitInto(a) != nil {
			return false
		}
		return math.Abs(g.P.CostAggregation(a)-cost) < 1e-9
	}
	if err := quick.Check(prop, qcfg); err != nil {
		t.Error(err)
	}
}

func TestPropRandomAdmitOutputAlwaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	prop := func(g problemGen) bool {
		a, _, err := RandomAdmit(g.P, rng)
		if err != nil {
			return true
		}
		return g.P.FitInto(a) == nil
	}
	if err := quick.Check(prop, qcfg); err != nil {
		t.Error(err)
	}
}

func TestPropCostAggregationNonNegative(t *testing.T) {
	prop := func(g problemGen) bool {
		a, _, err := Heuristic(g.P)
		if err != nil {
			return true
		}
		return g.P.CostAggregation(a) >= 0
	}
	if err := quick.Check(prop, qcfg); err != nil {
		t.Error(err)
	}
}

func TestPropLinkDemandsMatchCutThroughput(t *testing.T) {
	// The per-pair link demands must sum to the total throughput of the
	// cut edges.
	prop := func(g problemGen) bool {
		a, _, err := Heuristic(g.P)
		if err != nil {
			return true
		}
		var cutTotal float64
		for _, e := range g.P.cutEdgesByID(a) {
			cutTotal += e.ThroughputMbps
		}
		var demandTotal float64
		for _, mbps := range g.P.LinkDemands(a) {
			demandTotal += mbps
		}
		return math.Abs(cutTotal-demandTotal) < 1e-9
	}
	if err := quick.Check(prop, qcfg); err != nil {
		t.Error(err)
	}
}

func TestPropDeviceLoadsMatchTotal(t *testing.T) {
	// Per-device loads must sum to the graph's total requirement.
	prop := func(g problemGen) bool {
		a, _, err := Heuristic(g.P)
		if err != nil {
			return true
		}
		loads := g.P.DeviceLoads(a)
		sum := resource.New(resource.Dims)
		for _, l := range loads {
			sum.AddInPlace(l)
		}
		total := totalResources(g.P.Graph)
		for i := range sum {
			if math.Abs(sum[i]-total[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, qcfg); err != nil {
		t.Error(err)
	}
}

func TestPropRefinePreservesFeasibilityAndImproves(t *testing.T) {
	prop := func(g problemGen) bool {
		a, cost, err := Heuristic(g.P)
		if err != nil {
			return true
		}
		ra, rcost, err := Refine(g.P, a, 0)
		if err != nil {
			return false
		}
		return g.P.FitInto(ra) == nil && rcost <= cost+1e-9
	}
	if err := quick.Check(prop, qcfg); err != nil {
		t.Error(err)
	}
}

func TestPropPinsAlwaysHonored(t *testing.T) {
	prop := func(g problemGen) bool {
		a, _, err := Heuristic(g.P)
		if err != nil {
			return true
		}
		for _, n := range g.P.Graph.Nodes() {
			if n.Pin == "" {
				continue
			}
			if g.P.Devices[a[n.ID]].ID != device.ID(n.Pin) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, qcfg); err != nil {
		t.Error(err)
	}
}

// totalResources is the component-wise sum of g's node requirements.
func totalResources(g *graph.Graph) resource.Vector {
	total := resource.New(resource.Dims)
	for _, n := range g.Nodes() {
		if len(n.Resources) == resource.Dims {
			total.AddInPlace(n.Resources)
		}
	}
	return total
}
