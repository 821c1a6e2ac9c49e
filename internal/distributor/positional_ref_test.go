package distributor

// The NodeID-keyed walks that the positional view replaced, kept verbatim
// as the oracle of TestPositionalMatchesByID: only the names carry a ByID
// suffix. cutEdgesByID is the deleted Problem.CutEdges, which the tests
// still use to total the cut.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"ubiqos/internal/device"
	"ubiqos/internal/graph"
	"ubiqos/internal/resource"
	"ubiqos/internal/workload"
)

// cutEdgesByID returns the edges whose endpoints lie in different partitions
// (the edges that "belong to the k-cut", Definition 3.3).
func (p *Problem) cutEdgesByID(a Assignment) []graph.Edge {
	var out []graph.Edge
	for _, e := range p.Graph.Edges() {
		if a[e.From] != a[e.To] {
			out = append(out, e)
		}
	}
	return out
}

// pairThroughputByID sums the throughput of all cut edges between each
// unordered device pair (both directions, since the bandwidth b(i,j) is a
// shared symmetric capacity) into a k×k row-major matrix: the total for
// devices i < j is at [i*k+j], every other cell stays zero. Each cell is
// summed in edge order, so the same assignment always yields the same
// bits. Edges with an unassigned or out-of-range endpoint are skipped.
func (p *Problem) pairThroughputByID(a Assignment) []float64 {
	k := len(p.Devices)
	out := make([]float64, k*k)
	for _, e := range p.Graph.Edges() {
		di, ok := a[e.From]
		dj, ok2 := a[e.To]
		if !ok || !ok2 || di == dj || di < 0 || dj < 0 || di >= k || dj >= k {
			continue
		}
		if di > dj {
			di, dj = dj, di
		}
		out[di*k+dj] += e.ThroughputMbps
	}
	return out
}

// fitIntoByID checks Definition 3.4: the assignment is complete, respects
// pins, every device's summed requirement vector is ≤ its availability,
// and every device pair's summed cut throughput is ≤ the available
// bandwidth between the two devices. It returns nil when the graph fits,
// or an error (wrapping ErrInfeasible) naming the violated constraint.
func (p *Problem) fitIntoByID(a Assignment) error {
	m := p.Weights.Dims()
	loads := make([]resource.Vector, len(p.Devices))
	for i := range loads {
		loads[i] = resource.New(m)
	}
	for _, n := range p.Graph.Nodes() {
		di, ok := a[n.ID]
		if !ok {
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
	for c, tp := range p.pairThroughputByID(a) {
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

// costAggregationByID computes Definition 3.5 for a complete assignment:
//
//	CA(Φ) = Σ_j Σ_i w_i·r_i^j/ra_i^j + Σ_{i≠j} w_{m+1}·T_{i,j}/b_{i,j}
//
// where r^j is the summed requirement on device j and T_{i,j} the summed
// cut throughput between devices i and j. Infeasible terms (zero
// availability with nonzero demand) yield +Inf.
func (p *Problem) costAggregationByID(a Assignment) float64 {
	m := p.Weights.Dims()
	loads := make([]resource.Vector, len(p.Devices))
	for i := range loads {
		loads[i] = resource.New(m)
	}
	for _, n := range p.Graph.Nodes() {
		di, ok := a[n.ID]
		if !ok || di < 0 || di >= len(p.Devices) {
			return math.Inf(1)
		}
		loads[di].AddInPlace(n.Resources)
	}
	var cost float64
	for i, load := range loads {
		cost += load.RelativeLoad(p.Devices[i].Avail, p.Weights.EndSystem())
	}
	wNet, k := p.Weights.Network(), len(p.Devices)
	for c, tp := range p.pairThroughputByID(a) {
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

// deviceLoadsByID returns the summed requirement vector per device index for a
// complete assignment — what an admission controller must subtract from
// each device's availability when the application is deployed.
func (p *Problem) deviceLoadsByID(a Assignment) []resource.Vector {
	m := p.Weights.Dims()
	loads := make([]resource.Vector, len(p.Devices))
	for i := range loads {
		loads[i] = resource.New(m)
	}
	for _, n := range p.Graph.Nodes() {
		if di, ok := a[n.ID]; ok && di >= 0 && di < len(loads) {
			loads[di].AddInPlace(n.Resources)
		}
	}
	return loads
}

// linkDemandsByID returns the summed cut throughput per unordered device pair
// (keyed smaller ID first) — what must be reserved on each link when the
// application is deployed. Pairs that exchange no traffic are omitted.
func (p *Problem) linkDemandsByID(a Assignment) map[[2]device.ID]float64 {
	out := make(map[[2]device.ID]float64)
	k := len(p.Devices)
	for c, tp := range p.pairThroughputByID(a) {
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

// signatureByID digests a Problem into a canonical hex string: concrete graph
// structure (node identities, resource requirements, QoS vectors, pins;
// edges with throughput), device capacities, the pairwise link-bandwidth
// matrix, and the significance weights. Every float is hashed by its
// exact bit pattern and every collection is hashed in sorted ID order, so
// two problems built in different insertion orders — or by different
// sessions — produce the same signature exactly when the distribution
// instance is the same. A cached assignment keyed by the signature is
// therefore valid for any problem that reproduces it.
//
// The canonical byte string is laid out in one pooled buffer and hashed
// in a single write; on graphs of a few hundred nodes and edges that, not
// SHA-256, is where the time goes.
func signatureByID(p *Problem) (string, error) {
	if err := p.Validate(); err != nil {
		return "", err
	}
	bp := sigBuffersByID.Get().(*[]byte)
	b := sigBuffer((*bp)[:0])

	nodes := slices.Clone(p.Graph.Nodes())
	slices.SortFunc(nodes, func(x, y *graph.Node) int { return strings.Compare(string(x.ID), string(y.ID)) })
	b.str("nodes")
	b.word(uint64(len(nodes)))
	for _, n := range nodes {
		b.str(string(n.ID))
		b.str(n.Type)
		b.str(n.Instance)
		b.str(n.Pin)
		b.vector(n.In)
		b.vector(n.Out)
		b.floats(n.Resources)
	}

	// Edges in (source, target) order: the sorted nodes give the source
	// order, so only each node's few outgoing edges are left to sort.
	b.str("edges")
	b.word(uint64(p.Graph.EdgeCount()))
	for _, n := range nodes {
		out := p.Graph.Out(n.ID)
		slices.SortFunc(out, func(x, y graph.Edge) int { return strings.Compare(string(x.To), string(y.To)) })
		for _, e := range out {
			b.str(string(e.From))
			b.str(string(e.To))
			b.float(e.ThroughputMbps)
		}
	}

	devs := slices.Clone(p.Devices)
	slices.SortFunc(devs, func(x, y DeviceInfo) int { return strings.Compare(string(x.ID), string(y.ID)) })
	b.str("devices")
	b.word(uint64(len(devs)))
	for _, d := range devs {
		b.str(string(d.ID))
		b.floats(d.Avail)
	}

	b.str("links")
	for i := 0; i < len(devs); i++ {
		for j := i + 1; j < len(devs); j++ {
			b.float(p.Bandwidth(devs[i].ID, devs[j].ID))
		}
	}

	b.str("weights")
	b.floats(p.Weights)

	sum := sha256.Sum256(b)
	*bp = b
	sigBuffersByID.Put(bp)
	return hex.EncodeToString(sum[:]), nil
}

// sigBuffersByID recycles the canonical byte strings between Signature calls.
var sigBuffersByID = sync.Pool{New: func() any { return new([]byte) }}

var positionalSeed = flag.Int64("positional.seed", 0, "replay only the positional-view case with this seed")

// positionalCase draws the problem of one seed: a Table 1 or Fig. 5 graph
// on 2, 3 or 4 devices with a random capacity and a random (now and then
// zero) bandwidth per device pair, 0-3 pinned components, and four
// assignments of it — the heuristic's, a complete random one, a partial
// one and one with an out-of-range device index.
func positionalCase(seed int64) (*Problem, []Assignment) {
	rng := rand.New(rand.NewSource(seed))
	params := workload.Table1Params()
	if seed%2 == 1 {
		params = workload.Fig5Params()
	}
	g := workload.MustRandomGraph(rng, params)
	k := 2 + int(seed%3)
	total := totalResources(g)
	devices := make([]DeviceInfo, k)
	bw := map[[2]device.ID]float64{}
	for i := range devices {
		devices[i] = DeviceInfo{
			ID:    device.ID(fmt.Sprintf("dev%d", i)),
			Avail: total.Scale(0.3 + rng.Float64()),
		}
		for j := 0; j < i; j++ {
			mbps := rng.Float64() * 4 * params.EdgeMbps * float64(params.MaxNodes)
			if rng.Intn(8) == 0 {
				mbps = 0
			}
			bw[[2]device.ID{devices[i].ID, devices[j].ID}] = mbps
			bw[[2]device.ID{devices[j].ID, devices[i].ID}] = mbps
		}
	}
	nodes := g.Nodes()
	for pins := rng.Intn(4); pins > 0; pins-- {
		nodes[rng.Intn(len(nodes))].Pin = string(devices[rng.Intn(k)].ID)
	}
	p := &Problem{
		Graph:     g,
		Devices:   devices,
		Bandwidth: func(a, b device.ID) float64 { return bw[[2]device.ID{a, b}] },
		Weights:   workload.RandomWeights(rng, resource.Dims),
	}

	heuristic, _, _ := Heuristic(p) // nil when infeasible: every node unassigned
	random := make(Assignment, len(nodes))
	for _, n := range nodes {
		random[n.ID] = rng.Intn(k)
	}
	partial := random.Clone()
	for _, n := range nodes {
		if rng.Intn(4) == 0 {
			delete(partial, n.ID)
		}
	}
	outOfRange := random.Clone()
	outOfRange[nodes[rng.Intn(len(nodes))].ID] = []int{-1, k, k + 3}[rng.Intn(3)]
	return p, []Assignment{heuristic, random, partial, outOfRange}
}

// TestPositionalMatchesByID holds the positional walks to the NodeID-keyed
// ones they replaced on 600 generated problems and four assignments each:
// every pair throughput and cost bit-identical, the same FitInto error,
// equal link demands and device loads, and the same signature. A failure
// names the seed; -positional.seed replays it alone.
func TestPositionalMatchesByID(t *testing.T) {
	seeds := make([]int64, 0, 600)
	if *positionalSeed != 0 {
		seeds = append(seeds, *positionalSeed)
	} else {
		for s := int64(1); s <= 600; s++ {
			seeds = append(seeds, s)
		}
	}
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	var infeasible, fits int
	for _, seed := range seeds {
		p, assigns := positionalCase(seed)
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d (replay with -positional.seed %d): %s", seed, seed, fmt.Sprintf(format, args...))
		}
		for ai, a := range assigns {
			_, at := p.placed(a)
			if got, want := bits(p.pairThroughput(at)), bits(p.pairThroughputByID(a)); !slices.Equal(got, want) {
				fail("assignment %d: pair throughput bits %v, by ID %v", ai, got, want)
			}
			if got, want := math.Float64bits(p.CostAggregation(a)), math.Float64bits(p.costAggregationByID(a)); got != want {
				fail("assignment %d: cost %v, by ID %v", ai, math.Float64frombits(got), math.Float64frombits(want))
			}
			got, want := p.FitInto(a), p.fitIntoByID(a)
			if errText(got) != errText(want) || (got != nil && !errors.Is(got, ErrInfeasible)) {
				fail("assignment %d: FitInto %v, by ID %v", ai, got, want)
			}
			if got == nil {
				fits++
			} else {
				infeasible++
			}
			if got, want := p.LinkDemands(a), p.linkDemandsByID(a); !reflect.DeepEqual(got, want) {
				fail("assignment %d: link demands %v, by ID %v", ai, got, want)
			}
			if got, want := p.DeviceLoads(a), p.deviceLoadsByID(a); !reflect.DeepEqual(got, want) {
				fail("assignment %d: device loads %v, by ID %v", ai, got, want)
			}
		}
		got, err := Signature(p)
		want, wantErr := signatureByID(p)
		if got != want || errText(err) != errText(wantErr) {
			fail("signature %s (%v), by ID %s (%v)", got, err, want, wantErr)
		}
	}
	// Both FitInto outcomes must keep being reached.
	t.Logf("%d problems: %d assignments fit, %d do not", len(seeds), fits, infeasible)
	if len(seeds) > 1 && (fits < 200 || infeasible < 1000) {
		t.Errorf("coverage: %d assignments fit, %d do not", fits, infeasible)
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestPlacementAllocationCeiling keeps a per-call copy of the graph's
// edge list out of CostAggregation and FitInto: each now allocates the
// node list, the positional placement, the device loads (two) and the
// pair matrix, whatever the graph's size or the device count.
func TestPlacementAllocationCeiling(t *testing.T) {
	p := referenceProblem(rand.New(rand.NewSource(5)), workload.Fig5Params(), 4)
	a, _, err := Heuristic(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		call func()
	}{
		{"CostAggregation", func() { p.CostAggregation(a) }},
		{"FitInto", func() {
			if err := p.FitInto(a); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		allocs := testing.AllocsPerRun(50, c.call)
		t.Logf("%s on %d nodes, %d edges, %d devices: %.0f allocations", c.name, p.Graph.NodeCount(), p.Graph.EdgeCount(), len(p.Devices), allocs)
		if allocs > 5 {
			t.Errorf("%s: %.0f allocations, ceiling 5", c.name, allocs)
		}
	}
}
