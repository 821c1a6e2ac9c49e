package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"ubiqos/internal/device"
	"ubiqos/internal/distributor"
	"ubiqos/internal/graph"
	"ubiqos/internal/resource"
)

// The warm bench measures what a reconfiguration costs after a device
// crash: a cold branch-and-bound re-solve of the whole session graph
// versus a warm-started re-solve seeded with the broken incumbent. The
// workload models an active-space media service: six pipelines fanning
// out to wall-mounted portals, a bulk of transcode stages that belong on
// the compute server, and two stateful buffer chains on a memory-rich
// box whose crash is the measured fault. Only the buffer chains have to
// move, so the warm solver's work is proportional to the change while
// the cold solver re-derives the entire assignment.
//
// Scales multiply the Table 1 graph size (10-20 components) by 1x / 10x
// / 50x while dividing per-component demand, so every scale stresses
// search size rather than feasibility.

const (
	warmBenchPortals   = 6
	warmBenchMemChains = 2
	warmBenchMemLen    = 15
)

// WarmBenchScale describes one benchmarked graph-size tier.
type WarmBenchScale struct {
	Name     string
	MinNodes int
	MaxNodes int
	Mult     float64
}

// WarmBenchConfig parameterizes RunWarmBench.
type WarmBenchConfig struct {
	Seed   int64
	Trials int
	Scales []WarmBenchScale
}

// DefaultWarmBenchConfig covers 1x/10x/50x Table 1 sizes.
func DefaultWarmBenchConfig() WarmBenchConfig {
	return WarmBenchConfig{
		Seed:   11,
		Trials: 12,
		Scales: []WarmBenchScale{
			{Name: "1x", MinNodes: 10, MaxNodes: 20, Mult: 1},
			{Name: "10x", MinNodes: 100, MaxNodes: 200, Mult: 10},
			{Name: "50x", MinNodes: 500, MaxNodes: 1000, Mult: 50},
		},
	}
}

// WarmBenchDist summarizes a per-trial sample.
type WarmBenchDist struct {
	P50 float64
	P95 float64
	Max float64
}

// WarmBenchScaleResult aggregates the crash re-solves at one scale.
type WarmBenchScaleResult struct {
	Scale        WarmBenchScale
	Nodes        WarmBenchDist
	ColdExplored WarmBenchDist
	WarmExplored WarmBenchDist
	Reused       WarmBenchDist
	// ExploredSpeedup is p95 cold explored nodes over p95 warm.
	ExploredSpeedup float64
}

// WarmBenchResult is the full bench outcome.
type WarmBenchResult struct {
	Scales []WarmBenchScaleResult
}

type warmScenario struct {
	devs []distributor.DeviceInfo
	g    *graph.Graph
	w    resource.Weights
	home map[graph.NodeID]device.ID // constructed near-optimal seed
}

func warmPortalID(i int) device.ID { return device.ID(fmt.Sprintf("portal%d", i)) }

func buildWarmScenario(rng *rand.Rand, sc WarmBenchScale) (*warmScenario, error) {
	mult := sc.Mult
	s := &warmScenario{home: map[graph.NodeID]device.ID{}}
	s.devs = append(s.devs,
		distributor.DeviceInfo{ID: "desk-mem", Avail: resource.MB(400, 80)},
		distributor.DeviceInfo{ID: "desk-cpu", Avail: resource.MB(100, 400)},
		distributor.DeviceInfo{ID: "desk-bal", Avail: resource.MB(200, 200)},
	)
	for i := 0; i < warmBenchPortals; i++ {
		s.devs = append(s.devs, distributor.DeviceInfo{ID: warmPortalID(i), Avail: resource.MB(8/mult, 14/mult)})
	}
	target := sc.MinNodes + rng.Intn(sc.MaxNodes-sc.MinNodes+1)
	memLen := target / warmBenchPortals
	if memLen > warmBenchMemLen {
		memLen = warmBenchMemLen
	}
	if memLen < 2 {
		memLen = 2
	}
	rest := target - warmBenchMemChains*memLen
	lengths := make([]int, warmBenchPortals)
	for i := 0; i < warmBenchMemChains; i++ {
		lengths[i] = memLen
	}
	nBulk := warmBenchPortals - warmBenchMemChains
	for i := 0; i < nBulk; i++ {
		lengths[warmBenchMemChains+i] = rest / nBulk
		if i < rest%nBulk {
			lengths[warmBenchMemChains+i]++
		}
	}
	g := graph.New()
	for pipe := 0; pipe < warmBenchPortals; pipe++ {
		length := lengths[pipe]
		if length < 2 {
			length = 2
		}
		portal := warmPortalID(pipe)
		memChain := pipe < warmBenchMemChains
		var prev graph.NodeID
		for j := 0; j < length; j++ {
			id := graph.NodeID(fmt.Sprintf("p%03d-%03d", pipe, j))
			// Every interior exceeds a portal capacity dimension, so each
			// sink hop is a forced crossing and the solver's network floor
			// prices it exactly. Buffer stages are the largest components:
			// a cold solve places them (wrongly) first and pays deep
			// backtracking, a warm solve orders them after the reusable
			// incumbent and keeps the repair local.
			var res resource.Vector
			if memChain {
				res = resource.MB((20+10*rng.Float64())/mult, (2+2*rng.Float64())/mult)
			} else {
				res = resource.MB((1+1*rng.Float64())/mult, (15+5*rng.Float64())/mult)
			}
			n := &graph.Node{ID: id, Type: "component", Resources: res}
			if j == length-1 {
				n.Pin = string(portal)
				n.Resources = resource.MB((1-rng.Float64())*4/mult, (1-rng.Float64())*8/mult)
				s.home[id] = portal
			} else if memChain {
				s.home[id] = "desk-mem"
			} else {
				s.home[id] = "desk-cpu"
			}
			g.MustAddNode(n)
			if j > 0 {
				tp := 0.2 * (1 - rng.Float64()) / mult
				if j == length-1 {
					tp = 0.5 + rng.Float64() // playback stream to the portal
				}
				g.MustAddEdge(prev, id, tp)
			}
			prev = id
		}
	}
	s.g = g
	w := resource.Weights{}
	for i := 0; i < resource.Dims+1; i++ {
		w = append(w, 1.0/float64(resource.Dims+1))
	}
	s.w = w
	return s, nil
}

func (s *warmScenario) bandwidth(a, b device.ID) float64 {
	aPortal := strings.HasPrefix(string(a), "portal")
	bPortal := strings.HasPrefix(string(b), "portal")
	switch {
	case !aPortal && !bPortal:
		return 100 // wired desktop segment
	case aPortal != bPortal:
		return 54 // 802.11 hop to a portal
	default:
		return 2
	}
}

func warmDist(samples []float64) WarmBenchDist {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		if len(sorted) == 0 {
			return 0
		}
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	return WarmBenchDist{P50: at(0.50), P95: at(0.95), Max: at(1)}
}

// RunWarmBench executes the crash re-solve comparison at every scale.
func RunWarmBench(cfg WarmBenchConfig) (*WarmBenchResult, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("warmbench: trials must be positive, got %d", cfg.Trials)
	}
	res := &WarmBenchResult{}
	for _, sc := range cfg.Scales {
		rng := rand.New(rand.NewSource(cfg.Seed))
		var nodes, coldExp, warmExp, reused []float64
		for trial := 0; trial < cfg.Trials; trial++ {
			s, err := buildWarmScenario(rng, sc)
			if err != nil {
				return nil, err
			}
			p := &distributor.Problem{Graph: s.g, Devices: s.devs, Bandwidth: s.bandwidth, Weights: s.w, Stats: &distributor.SearchStats{}}
			// The pre-crash configuration: seeded with the constructed
			// layout the way a live configurator would seed from its plan
			// cache; the result is still the proven optimum.
			a0, cost0, err := distributor.OptimalWarm(p, &distributor.Incumbent{Placement: s.home})
			if err != nil {
				return nil, fmt.Errorf("warmbench %s trial %d: initial solve: %w", sc.Name, trial, err)
			}

			// Crash desk-mem: only the stateful buffer chains must move.
			survivors := append([]distributor.DeviceInfo(nil), s.devs[1:]...)
			inc := &distributor.Incumbent{Placement: make(map[graph.NodeID]device.ID, len(a0)), Cost: cost0}
			for id, di := range a0 {
				inc.Placement[id] = s.devs[di].ID
			}

			p2 := &distributor.Problem{Graph: s.g, Devices: survivors, Bandwidth: s.bandwidth, Weights: s.w, Stats: &distributor.SearchStats{}}
			_, coldCost, err := distributor.Optimal(p2)
			if err != nil {
				return nil, fmt.Errorf("warmbench %s trial %d: cold re-solve: %w", sc.Name, trial, err)
			}
			cold := *p2.Stats

			p2.Stats = &distributor.SearchStats{}
			_, warmCost, err := distributor.OptimalWarm(p2, inc)
			if err != nil {
				return nil, fmt.Errorf("warmbench %s trial %d: warm re-solve: %w", sc.Name, trial, err)
			}
			warm := *p2.Stats
			if diff := math.Abs(warmCost - coldCost); diff > 1e-9*math.Max(1, math.Abs(coldCost)) {
				return nil, fmt.Errorf("warmbench %s trial %d: warm cost %v != cold cost %v", sc.Name, trial, warmCost, coldCost)
			}

			nodes = append(nodes, float64(len(a0)))
			coldExp = append(coldExp, float64(cold.Explored))
			warmExp = append(warmExp, float64(warm.Explored))
			reused = append(reused, float64(warm.Reused))
		}
		sr := WarmBenchScaleResult{
			Scale:        sc,
			Nodes:        warmDist(nodes),
			ColdExplored: warmDist(coldExp),
			WarmExplored: warmDist(warmExp),
			Reused:       warmDist(reused),
		}
		if sr.WarmExplored.P95 > 0 {
			sr.ExploredSpeedup = sr.ColdExplored.P95 / sr.WarmExplored.P95
		}
		res.Scales = append(res.Scales, sr)
	}
	return res, nil
}
