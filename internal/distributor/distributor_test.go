package distributor

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ubiqos/internal/device"
	"ubiqos/internal/graph"
	"ubiqos/internal/resource"
	"ubiqos/internal/workload"
)

// twoDeviceProblem builds the paper's Table-1 setting: a PC [256MB,300%]
// and a PDA [32MB,100%] connected by one link.
func twoDeviceProblem(t *testing.T, g *graph.Graph, linkMbps float64, w resource.Weights) *Problem {
	t.Helper()
	return &Problem{
		Graph: g,
		Devices: []DeviceInfo{
			{ID: "pc", Avail: resource.MB(256, 300)},
			{ID: "pda", Avail: resource.MB(32, 100)},
		},
		Bandwidth: constBandwidth(linkMbps),
		Weights:   w,
	}
}

func constBandwidth(mbps float64) func(a, b device.ID) float64 {
	return func(a, b device.ID) float64 { return mbps }
}

func defaultWeights(t *testing.T) resource.Weights {
	t.Helper()
	w, err := resource.NewWeights(0.4, 0.4, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// chainGraph builds a linear chain with the given per-node requirements
// and uniform edge throughput.
func chainGraph(reqs []resource.Vector, edgeMbps float64) *graph.Graph {
	g := graph.New()
	var prev graph.NodeID
	for i, r := range reqs {
		id := graph.NodeID(string(rune('a' + i)))
		g.MustAddNode(&graph.Node{ID: id, Type: "c", Resources: r})
		if i > 0 {
			g.MustAddEdge(prev, id, edgeMbps)
		}
		prev = id
	}
	return g
}

func TestProblemValidate(t *testing.T) {
	w := defaultWeights(t)
	good := twoDeviceProblem(t, chainGraph([]resource.Vector{resource.MB(1, 1), resource.MB(1, 1)}, 1), 10, w)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Problem)
	}{
		{"nil graph", func(p *Problem) { p.Graph = nil }},
		{"no devices", func(p *Problem) { p.Devices = nil }},
		{"nil bandwidth", func(p *Problem) { p.Bandwidth = nil }},
		{"bad weights", func(p *Problem) { p.Weights = resource.Weights{2, 2} }},
		{"dim mismatch", func(p *Problem) { p.Devices[0].Avail = resource.Vector{1} }},
		{"duplicate device", func(p *Problem) { p.Devices[1].ID = "pc" }},
		{"empty device id", func(p *Problem) { p.Devices[0].ID = "" }},
		{"pin to unknown device", func(p *Problem) { p.Graph.Node("a").Pin = "ghost" }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := twoDeviceProblem(t, chainGraph([]resource.Vector{resource.MB(1, 1), resource.MB(1, 1)}, 1), 10, w)
			c.mut(p)
			if err := p.Validate(); err == nil {
				t.Error("Validate should fail")
			}
		})
	}
}

func TestFitInto(t *testing.T) {
	w := defaultWeights(t)
	g := chainGraph([]resource.Vector{resource.MB(200, 200), resource.MB(30, 50), resource.MB(20, 40)}, 3)
	p := twoDeviceProblem(t, g, 5, w)

	// a,c on the PC; b on the PDA: fits, cut edges a->b (3) + b->c (3) on
	// the single pc-pda link = 6 > 5: bandwidth violation.
	a := Assignment{"a": 0, "b": 1, "c": 0}
	err := p.FitInto(a)
	if err == nil || !errors.Is(err, ErrInfeasible) || !strings.Contains(err.Error(), "oversubscribed") {
		t.Errorf("FitInto = %v, want bandwidth violation", err)
	}

	// All on PC: resources 250MB,290% fit; no cut edges.
	if err := p.FitInto(Assignment{"a": 0, "b": 0, "c": 0}); err != nil {
		t.Errorf("all-on-pc should fit: %v", err)
	}

	// a on PDA: 200MB > 32MB.
	err = p.FitInto(Assignment{"a": 1, "b": 0, "c": 0})
	if err == nil || !strings.Contains(err.Error(), "overloaded") {
		t.Errorf("FitInto = %v, want overload", err)
	}

	// Incomplete assignment.
	if err := p.FitInto(Assignment{"a": 0}); err == nil {
		t.Error("incomplete assignment must fail")
	}
	// Out-of-range device index.
	if err := p.FitInto(Assignment{"a": 0, "b": 5, "c": 0}); err == nil {
		t.Error("bad device index must fail")
	}
	// Pin violation.
	p.Graph.Node("b").Pin = "pda"
	if err := p.FitInto(Assignment{"a": 0, "b": 0, "c": 0}); err == nil {
		t.Error("pin violation must fail")
	}
}

func TestCostAggregationHandComputed(t *testing.T) {
	w := defaultWeights(t) // [0.4, 0.4, 0.2]
	g := chainGraph([]resource.Vector{resource.MB(64, 150), resource.MB(16, 50)}, 2)
	p := twoDeviceProblem(t, g, 10, w)
	a := Assignment{"a": 0, "b": 1}
	// Device pc: [64,150]/[256,300] -> 0.4*0.25 + 0.4*0.5 = 0.3
	// Device pda: [16,50]/[32,100]  -> 0.4*0.5 + 0.4*0.5  = 0.4
	// Cut: 2 Mbps over 10 -> 0.2*0.2 = 0.04
	want := 0.3 + 0.4 + 0.04
	if got := p.CostAggregation(a); math.Abs(got-want) > 1e-12 {
		t.Errorf("CA = %g, want %g", got, want)
	}
	// Same device: no network term.
	want0 := 0.4*(80.0/256) + 0.4*(200.0/300)
	if got := p.CostAggregation(Assignment{"a": 0, "b": 0}); math.Abs(got-want0) > 1e-12 {
		t.Errorf("CA same-device = %g, want %g", got, want0)
	}
	// Incomplete -> +Inf.
	if got := p.CostAggregation(Assignment{"a": 0}); !math.IsInf(got, 1) {
		t.Errorf("CA incomplete = %g, want +Inf", got)
	}
	// Zero bandwidth with a cut -> +Inf.
	p.Bandwidth = constBandwidth(0)
	if got := p.CostAggregation(a); !math.IsInf(got, 1) {
		t.Errorf("CA zero-bandwidth = %g, want +Inf", got)
	}
}

// TestCostIsBitStable: the cost of one placement must not depend on map
// iteration order. Six devices give fifteen device pairs, which the old
// map-keyed summation visited in a different order on every call, moving
// the cost's last bits from run to run. LinkDemands must still name every
// pair that exchanges traffic, with the per-pair totals a plain
// edge-by-edge tally gives.
func TestCostIsBitStable(t *testing.T) {
	p := referenceProblem(rand.New(rand.NewSource(23)), workload.Fig5Params(), 1.25)
	a, cost, err := Heuristic(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.LinkDemands(a)) != 15 {
		t.Fatalf("placement uses %d links; the test wants all 15", len(p.LinkDemands(a)))
	}
	for i := 0; i < 200; i++ {
		if _, again, err := Heuristic(p); err != nil || again != cost || p.CostAggregation(a) != cost {
			t.Fatalf("call %d: cost %v / %v (err %v), first call %v", i, again, p.CostAggregation(a), err, cost)
		}
		if err := p.FitInto(a); err != nil {
			t.Fatal(err)
		}
	}

	want := make(map[[2]device.ID]float64)
	for _, e := range p.Graph.Edges() {
		i, j := p.Devices[a[e.From]].ID, p.Devices[a[e.To]].ID
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i
		}
		want[[2]device.ID{i, j}] += e.ThroughputMbps
	}
	if got := p.LinkDemands(a); !reflect.DeepEqual(got, want) {
		t.Errorf("LinkDemands = %v, want %v", got, want)
	}
}

func TestCutEdgesAndPairThroughput(t *testing.T) {
	w := defaultWeights(t)
	g := graph.New()
	for _, id := range []string{"a", "b", "c", "d"} {
		g.MustAddNode(&graph.Node{ID: graph.NodeID(id), Type: "c", Resources: resource.MB(1, 1)})
	}
	g.MustAddEdge("a", "b", 1)
	g.MustAddEdge("a", "c", 2)
	g.MustAddEdge("b", "d", 3)
	g.MustAddEdge("c", "d", 4)
	p := twoDeviceProblem(t, g, 100, w)
	a := Assignment{"a": 0, "b": 0, "c": 1, "d": 1}
	cut := p.cutEdgesByID(a)
	if len(cut) != 2 {
		t.Fatalf("cut = %v", cut)
	}
	_, at := p.placed(a)
	tp := p.pairThroughput(at)
	if tp[0*2+1] != 2+3 || tp[1*2+0] != 0 { // a->c (2) and b->d (3), upper triangle only
		t.Errorf("pair throughput = %v", tp)
	}
}

func TestHeuristicPlacesPinnedFirst(t *testing.T) {
	w := defaultWeights(t)
	g := chainGraph([]resource.Vector{resource.MB(10, 10), resource.MB(5, 5), resource.MB(5, 5)}, 1)
	g.Node("c").Pin = "pda" // the display runs on the client device
	p := twoDeviceProblem(t, g, 100, w)
	a, _, err := Heuristic(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Devices[a["c"]].ID != "pda" {
		t.Errorf("pinned node placed on %s", p.Devices[a["c"]].ID)
	}
	if err := p.FitInto(a); err != nil {
		t.Error(err)
	}
}

func TestHeuristicGrowsPartitionAlongEdges(t *testing.T) {
	// Heterogeneous devices (as in the paper's setting): the large device
	// stays at the head of the availability order, so the heuristic grows
	// its partition along graph edges and chain "a" stays co-located.
	w := defaultWeights(t)
	g := graph.New()
	for _, id := range []string{"a1", "a2", "b1", "b2"} {
		g.MustAddNode(&graph.Node{ID: graph.NodeID(id), Type: "c", Resources: resource.MB(10, 10)})
	}
	g.MustAddEdge("a1", "a2", 5)
	g.MustAddEdge("b1", "b2", 5)
	p := &Problem{
		Graph: g,
		Devices: []DeviceInfo{
			{ID: "big", Avail: resource.MB(40, 40)},
			{ID: "small", Avail: resource.MB(15, 15)},
		},
		Bandwidth: constBandwidth(6), // cutting both chains would need 10 > 6
		Weights:   w,
	}
	a, _, err := Heuristic(p)
	if err != nil {
		t.Fatal(err)
	}
	if a["a1"] != a["a2"] {
		t.Errorf("first chain split across devices: %v", a)
	}
	if err := p.FitInto(a); err != nil {
		t.Error(err)
	}
}

func TestChooseComponentRule(t *testing.T) {
	// The paper's selection rule, observed through the placement it
	// produces: with a component A on the head device, the next pick is A's
	// largest unassigned neighbor even when a larger component exists
	// elsewhere; with no such neighbor, the globally largest unassigned
	// component is picked. The head device has CPU to spare (so it stays
	// the head throughout) but only 16MB of memory: x1, then its neighbors
	// x3 and x2, use 15MB, and y — larger than both, but nobody's
	// neighbor — comes last and has to fall back. Picking by size alone
	// would place y second and push x3 and x2 off the head instead.
	w := defaultWeights(t)
	g := graph.New()
	g.MustAddNode(&graph.Node{ID: "x1", Type: "c", Resources: resource.MB(10, 10)})
	g.MustAddNode(&graph.Node{ID: "x2", Type: "c", Resources: resource.MB(2, 2)})
	g.MustAddNode(&graph.Node{ID: "x3", Type: "c", Resources: resource.MB(3, 3)})
	g.MustAddNode(&graph.Node{ID: "y", Type: "c", Resources: resource.MB(5, 5)})
	g.MustAddEdge("x1", "x2", 1)
	g.MustAddEdge("x1", "x3", 1)
	var stats SearchStats
	p := &Problem{
		Graph: g,
		Devices: []DeviceInfo{
			{ID: "head", Avail: resource.MB(16, 1000)},
			{ID: "other", Avail: resource.MB(32, 100)},
		},
		Bandwidth: constBandwidth(100),
		Weights:   w,
		Stats:     &stats,
	}
	a, _, err := Heuristic(p)
	if err != nil {
		t.Fatal(err)
	}
	want := Assignment{"x1": 0, "x3": 0, "x2": 0, "y": 1}
	if !reflect.DeepEqual(a, want) {
		t.Errorf("assignment = %v, want %v", a, want)
	}
	if stats.Explored != 4 || stats.Pruned != 1 {
		t.Errorf("placements/fallbacks = %d/%d, want 4/1", stats.Explored, stats.Pruned)
	}
}

func TestHeuristicInfeasible(t *testing.T) {
	w := defaultWeights(t)
	g := chainGraph([]resource.Vector{resource.MB(500, 10)}, 1)
	p := twoDeviceProblem(t, g, 10, w)
	if _, _, err := Heuristic(p); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestHeuristicDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := workload.MustRandomGraph(rng, workload.Table1Params())
	w := defaultWeights(t)
	p := twoDeviceProblem(t, g, 1000, w)
	a1, c1, err1 := Heuristic(p)
	a2, c2, err2 := Heuristic(p)
	if (err1 == nil) != (err2 == nil) || c1 != c2 {
		t.Fatalf("non-deterministic: %v/%v %g/%g", err1, err2, c1, c2)
	}
	if err1 == nil {
		for k, v := range a1 {
			if a2[k] != v {
				t.Fatalf("assignments differ at %s", k)
			}
		}
	}
}

// bruteForceBest enumerates every assignment of p's nodes to its k devices
// and returns the cheapest feasible cost aggregation.
func bruteForceBest(p *Problem) (best float64, found bool) {
	ids := p.Graph.NodeIDs()
	k := len(p.Devices)
	total := 1
	for range ids {
		total *= k
	}
	best = math.Inf(1)
	for code := 0; code < total; code++ {
		a := make(Assignment, len(ids))
		c := code
		for _, id := range ids {
			a[id] = c % k
			c /= k
		}
		if p.FitInto(a) != nil {
			continue
		}
		found = true
		if cost := p.CostAggregation(a); cost < best {
			best = cost
		}
	}
	return best, found
}

// forcedCrossings counts the edges whose two endpoints fit together on no
// device of p even when it is empty: the edges the solver's forced-crossing
// network floor prices into its bound.
func forcedCrossings(p *Problem) int {
	forced := 0
	for _, e := range p.Graph.Edges() {
		both := p.Graph.Node(e.From).Resources.Add(p.Graph.Node(e.To).Resources)
		colocatable := false
		for _, d := range p.Devices {
			if both.LessEq(d.Avail) {
				colocatable = true
			}
		}
		if !colocatable {
			forced++
		}
	}
	return forced
}

// checkOptimalAgainstBruteForce cross-checks branch-and-bound against
// naive enumeration on one instance and reports whether it was feasible.
func checkOptimalAgainstBruteForce(t *testing.T, trial int, p *Problem) bool {
	t.Helper()
	best, found := bruteForceBest(p)
	a, cost, err := Optimal(p)
	if !found {
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("trial %d: want infeasible, got %v", trial, err)
		}
		return false
	}
	if err != nil {
		t.Fatalf("trial %d: optimal failed: %v", trial, err)
	}
	if math.Abs(cost-best) > 1e-9 {
		t.Fatalf("trial %d: optimal cost %g, brute force %g", trial, cost, best)
	}
	if lb := newOBBState(p, nil).sufMin[0]; lb > best+1e-9 {
		t.Fatalf("trial %d: root lower bound %g exceeds the optimum %g", trial, lb, best)
	}
	if err := p.FitInto(a); err != nil {
		t.Fatalf("trial %d: optimal assignment infeasible: %v", trial, err)
	}
	if got := p.CostAggregation(a); math.Abs(got-cost) > 1e-9 {
		t.Fatalf("trial %d: reported cost %g != recomputed %g", trial, cost, got)
	}
	return true
}

func TestOptimalMatchesBruteForce(t *testing.T) {
	// Small random instances on the Table-1 devices, where every pair of
	// components fits the PC together and the forced-crossing floor is 0.
	w := defaultWeights(t)
	rng := rand.New(rand.NewSource(3))
	params := workload.GraphParams{
		MinNodes: 3, MaxNodes: 7,
		MinOutDegree: 1, MaxOutDegree: 3,
		MemMB: 30, CPUPct: 60, EdgeMbps: 5,
	}
	for trial := 0; trial < 30; trial++ {
		g := workload.MustRandomGraph(rng, params)
		checkOptimalAgainstBruteForce(t, trial, twoDeviceProblem(t, g, 12, w))
	}

	// Components of the same size on two devices too small to hold the
	// larger pairs: some edges must cross, so the bound carries a non-zero
	// network floor that has to stay below the true optimum.
	tight := []DeviceInfo{
		{ID: "pc", Avail: resource.MB(44, 90)},
		{ID: "pda", Avail: resource.MB(36, 80)},
	}
	params.MaxNodes = 5
	feasibleForced := 0
	for trial := 30; trial < 90; trial++ {
		g := workload.MustRandomGraph(rng, params)
		p := &Problem{Graph: g, Devices: tight, Bandwidth: constBandwidth(12), Weights: w}
		if checkOptimalAgainstBruteForce(t, trial, p) && forcedCrossings(p) > 0 {
			feasibleForced++
		}
	}
	if feasibleForced < 10 {
		t.Fatalf("only %d feasible tight instances had a forced crossing; the floor is barely exercised", feasibleForced)
	}
}

func TestOptimalRespectsPins(t *testing.T) {
	w := defaultWeights(t)
	g := chainGraph([]resource.Vector{resource.MB(5, 5), resource.MB(5, 5)}, 1)
	g.Node("b").Pin = "pda"
	p := twoDeviceProblem(t, g, 100, w)
	a, _, err := Optimal(p)
	if err != nil {
		t.Fatal(err)
	}
	if p.Devices[a["b"]].ID != "pda" {
		t.Error("pin violated by optimal")
	}
}

func TestFirstFit(t *testing.T) {
	w := defaultWeights(t)
	g := chainGraph([]resource.Vector{resource.MB(10, 10), resource.MB(10, 10), resource.MB(30, 90)}, 1)
	p := twoDeviceProblem(t, g, 100, w)
	a, cost, err := FirstFit(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FitInto(a); err != nil {
		t.Error(err)
	}
	if cost <= 0 {
		t.Error("cost should be positive")
	}
	bad := twoDeviceProblem(t, chainGraph([]resource.Vector{resource.MB(999, 1)}, 1), 10, w)
	if _, _, err := FirstFit(bad); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v", err)
	}
}

func TestFixedPolicyCachesAndRechecks(t *testing.T) {
	w := defaultWeights(t)
	g := chainGraph([]resource.Vector{resource.MB(30, 30), resource.MB(30, 30)}, 1)
	initial := []DeviceInfo{
		{ID: "pc", Avail: resource.MB(256, 300)},
		{ID: "pda", Avail: resource.MB(32, 100)},
	}
	f := NewFixed(initial)
	p := &Problem{Graph: g, Devices: initial, Bandwidth: constBandwidth(100), Weights: w}
	a1, _, err := f.Place("app", p)
	if err != nil {
		t.Fatal(err)
	}
	// Current conditions shrink: the static placement no longer fits.
	loaded := &Problem{
		Graph: g,
		Devices: []DeviceInfo{
			{ID: "pc", Avail: resource.MB(10, 10)},
			{ID: "pda", Avail: resource.MB(10, 10)},
		},
		Bandwidth: constBandwidth(100),
		Weights:   w,
	}
	if _, _, err := f.Place("app", loaded); !errors.Is(err, ErrInfeasible) {
		t.Errorf("fixed placement should fail under load: %v", err)
	}
	// Cache: same key, same assignment under original conditions.
	a2, _, err := f.Place("app", p)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a1 {
		if a2[k] != v {
			t.Fatalf("cached placement changed at %s", k)
		}
	}
}

// TestPropertyCostOrdering verifies the algorithm quality ordering on
// random feasible instances: optimal ≤ heuristic, and every algorithm's
// reported cost matches CostAggregation of its assignment.
func TestPropertyCostOrdering(t *testing.T) {
	w := defaultWeights(t)
	rng := rand.New(rand.NewSource(99))
	params := workload.GraphParams{
		MinNodes: 6, MaxNodes: 12,
		MinOutDegree: 1, MaxOutDegree: 4,
		MemMB: 20, CPUPct: 30, EdgeMbps: 4,
	}
	feasible := 0
	for trial := 0; trial < 40; trial++ {
		g := workload.MustRandomGraph(rng, params)
		p := twoDeviceProblem(t, g, 50, w)
		opt, optCost, optErr := Optimal(p)
		heu, heuCost, heuErr := Heuristic(p)
		if optErr != nil {
			// If the exact solver cannot place it, the heuristic must not
			// claim success with a feasible cut.
			if heuErr == nil {
				t.Fatalf("trial %d: heuristic found a cut the optimal says is infeasible", trial)
			}
			continue
		}
		feasible++
		if err := p.FitInto(opt); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if heuErr == nil {
			if err := p.FitInto(heu); err != nil {
				t.Fatalf("trial %d: heuristic cut infeasible: %v", trial, err)
			}
			if heuCost < optCost-1e-9 {
				t.Fatalf("trial %d: heuristic cost %g below optimal %g", trial, heuCost, optCost)
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible instances generated; tune parameters")
	}
}

func TestOptimalMatchesBruteForceThreeDevices(t *testing.T) {
	// The branch-and-bound solver handles general k-cuts; cross-check the
	// k=3 case against naive enumeration, first on devices with room to
	// colocate any pair, then on three small ones where edges are forced
	// across links of unequal bandwidth (the floor prices each at the best
	// link its endpoints can reach).
	w := defaultWeights(t)
	rng := rand.New(rand.NewSource(55))
	roomy := []DeviceInfo{
		{ID: "big", Avail: resource.MB(128, 200)},
		{ID: "mid", Avail: resource.MB(64, 100)},
		{ID: "small", Avail: resource.MB(24, 40)},
	}
	params := workload.GraphParams{
		MinNodes: 3, MaxNodes: 6,
		MinOutDegree: 1, MaxOutDegree: 2,
		MemMB: 20, CPUPct: 30, EdgeMbps: 4,
	}
	for trial := 0; trial < 12; trial++ {
		g := workload.MustRandomGraph(rng, params)
		checkOptimalAgainstBruteForce(t, trial,
			&Problem{Graph: g, Devices: roomy, Bandwidth: constBandwidth(15), Weights: w})
	}

	tight := []DeviceInfo{
		{ID: "big", Avail: resource.MB(30, 45)},
		{ID: "mid", Avail: resource.MB(24, 40)},
		{ID: "small", Avail: resource.MB(20, 30)},
	}
	unequal := func(a, b device.ID) float64 {
		if a == "small" || b == "small" {
			return 6
		}
		return 15
	}
	feasibleForced := 0
	for trial := 12; trial < 52; trial++ {
		g := workload.MustRandomGraph(rng, params)
		p := &Problem{Graph: g, Devices: tight, Bandwidth: unequal, Weights: w}
		if checkOptimalAgainstBruteForce(t, trial, p) && forcedCrossings(p) > 0 {
			feasibleForced++
		}
	}
	if feasibleForced < 10 {
		t.Fatalf("only %d feasible tight instances had a forced crossing; the floor is barely exercised", feasibleForced)
	}
}
