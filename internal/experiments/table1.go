// Package experiments contains the reproduction harnesses for every table
// and figure of the paper's evaluation (§4): the Table 1 algorithm
// comparison, the Figure 5 success-rate simulation, and the Figure 3/4
// prototype scenario. Each harness is deterministic given its seed — and,
// for the parallel harnesses, independent of the worker count, because
// every unit of parallel work derives its own sub-seed up front (see
// SubSeed) instead of sharing one random stream.
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"ubiqos/internal/device"
	"ubiqos/internal/distributor"
	"ubiqos/internal/par"
	"ubiqos/internal/resource"
	"ubiqos/internal/workload"
)

// SubSeed derives the i-th independent sub-seed of a harness seed. Each
// parallel job seeds its own rand.Rand from SubSeed(cfg.Seed, i), so
// results do not depend on the order jobs run in — a shared rand.Rand
// would make any reordering (or any worker count > 1) change the tables.
// The stride keeps the sub-streams of neighboring harness seeds from
// colliding for up to a million jobs.
func SubSeed(seed int64, i int) int64 {
	return seed*1_000_000 + int64(i)
}

// Table1Config parameterizes the Table 1 experiment: "we compare the
// relative performances of different heuristic algorithms (random and
// ours) with the optimal algorithm ... limited to the special case of
// two-way cut. We assume two heterogeneous devices (PC, PDA) ... RA1 =
// [256MB, 300%], RA2 = [32MB, 100%]. We consider service graphs with 10 to
// 20 service components, ... on average, 3 to 6 outbound edges. Other
// parameters ... are uniformly distributed. ... 150 randomly generated
// service graphs."
type Table1Config struct {
	// Graphs is the number of feasible random graphs evaluated (150 in the
	// paper).
	Graphs int
	// Seed makes the experiment deterministic; each graph index derives
	// its own sub-seed from it, so the result is also independent of
	// Workers.
	Seed int64
	// Workers bounds the worker pool evaluating graphs concurrently
	// (0 = all usable CPUs, 1 = serial).
	Workers int
	// Params generates the random service graphs.
	Params workload.GraphParams
	// Devices are the two (or more) heterogeneous devices.
	Devices []distributor.DeviceInfo
	// LinkMbps is the available bandwidth between every device pair.
	LinkMbps float64
	// MaxAttemptsPerGraph bounds regeneration when a drawn graph does not
	// fit the devices at all (the paper evaluates feasible graphs).
	MaxAttemptsPerGraph int
	// Extended adds rows beyond the paper's table: the heuristic with
	// local-search refinement, and the first-fit ablation.
	Extended bool
}

// DefaultTable1Config returns the paper's setting.
func DefaultTable1Config() Table1Config {
	return Table1Config{
		Graphs: 150,
		Seed:   2002,
		Params: workload.Table1Params(),
		Devices: []distributor.DeviceInfo{
			{ID: "pc", Avail: resource.MB(256, 300)},
			{ID: "pda", Avail: resource.MB(32, 100)},
		},
		LinkMbps:            100,
		MaxAttemptsPerGraph: 50,
	}
}

// Table1Row is one line of Table 1: the algorithm's mean cost-aggregation
// ratio against the optimal solution, and the percentage of graphs for
// which it found the exact optimum.
type Table1Row struct {
	Name string
	// AvgRatio is mean(CA_optimal / CA_algorithm) over all graphs, with 0
	// contributed when the algorithm found no feasible cut.
	AvgRatio float64
	// OptimalPct is the fraction of graphs (in percent) where the
	// algorithm's cost equals the optimal cost.
	OptimalPct float64
	// FeasiblePct is the fraction of graphs (in percent) where the
	// algorithm produced any feasible cut (diagnostic; not in the paper's
	// table).
	FeasiblePct float64
}

// Table1Result holds the regenerated table.
type Table1Result struct {
	Rows []Table1Row
	// Generated counts all graphs drawn, including infeasible discards.
	Generated int
}

// costEqualityTolerance treats two cost aggregations as the same solution
// value.
const costEqualityTolerance = 1e-9

// table1Outcome is one algorithm's result on one graph.
type table1Outcome struct {
	feasible bool
	ratio    float64
	optimal  bool
}

// table1Sample is everything one graph index contributes to the table.
type table1Sample struct {
	generated         int
	rnd, heu, ref, ff table1Outcome
}

// evalTable1Graph runs one independent graph job: draw feasible instances
// from the graph's own sub-seeded stream, solve optimally, and score every
// algorithm against the optimum.
func evalTable1Graph(cfg Table1Config, g int) (table1Sample, error) {
	rng := rand.New(rand.NewSource(SubSeed(cfg.Seed, g)))
	var s table1Sample

	var prob *distributor.Problem
	var optCost float64
	found := false
	for attempt := 0; attempt < cfg.MaxAttemptsPerGraph; attempt++ {
		s.generated++
		sg, err := workload.RandomGraph(rng, cfg.Params)
		if err != nil {
			return s, err
		}
		weights := workload.RandomWeights(rng, resource.Dims)
		prob = &distributor.Problem{
			Graph:     sg,
			Devices:   cfg.Devices,
			Bandwidth: func(a, b device.ID) float64 { return cfg.LinkMbps },
			Weights:   weights,
		}
		_, cost, err := distributor.Optimal(prob)
		if err == nil {
			optCost, found = cost, true
			break
		}
	}
	if !found {
		return s, fmt.Errorf("experiments: could not draw a feasible graph in %d attempts; loosen parameters", cfg.MaxAttemptsPerGraph)
	}

	score := func(o *table1Outcome, cost float64, err error) {
		if err != nil {
			return
		}
		o.feasible = true
		o.ratio = optCost / cost
		o.optimal = math.Abs(cost-optCost) <= costEqualityTolerance
	}
	_, heuCost, heuErr := distributor.Heuristic(prob)
	score(&s.heu, heuCost, heuErr)
	_, randCost, randErr := distributor.RandomAdmit(prob, rng)
	score(&s.rnd, randCost, randErr)
	if cfg.Extended {
		_, refCost, refErr := distributor.HeuristicRefined(prob)
		score(&s.ref, refCost, refErr)
		_, ffCost, ffErr := distributor.FirstFit(prob)
		score(&s.ff, ffCost, ffErr)
	}
	return s, nil
}

// RunTable1 regenerates Table 1. Graph jobs are independent (each owns a
// sub-seeded random stream) and are fanned out over cfg.Workers; the
// aggregation walks samples in graph order, so the table is byte-identical
// for every worker count.
func RunTable1(cfg Table1Config) (*Table1Result, error) {
	if cfg.Graphs <= 0 {
		return nil, fmt.Errorf("experiments: Graphs must be positive")
	}
	if cfg.MaxAttemptsPerGraph <= 0 {
		cfg.MaxAttemptsPerGraph = 50
	}

	samples := make([]table1Sample, cfg.Graphs)
	err := par.ForEach(cfg.Graphs, cfg.Workers, func(g int) error {
		s, err := evalTable1Graph(cfg, g)
		if err != nil {
			return err
		}
		samples[g] = s
		return nil
	})
	if err != nil {
		return nil, err
	}

	type tally struct {
		ratioSum float64
		optimal  int
		feasible int
	}
	var randT, heuT, refT, ffT, optT tally
	add := func(t *tally, o table1Outcome) {
		if !o.feasible {
			return
		}
		t.feasible++
		t.ratioSum += o.ratio
		if o.optimal {
			t.optimal++
		}
	}
	generated := 0
	for _, s := range samples {
		generated += s.generated
		optT.ratioSum++
		optT.optimal++
		optT.feasible++
		add(&heuT, s.heu)
		add(&randT, s.rnd)
		if cfg.Extended {
			add(&refT, s.ref)
			add(&ffT, s.ff)
		}
	}

	n := float64(cfg.Graphs)
	row := func(name string, t tally) Table1Row {
		return Table1Row{
			Name:        name,
			AvgRatio:    t.ratioSum / n,
			OptimalPct:  100 * float64(t.optimal) / n,
			FeasiblePct: 100 * float64(t.feasible) / n,
		}
	}
	rows := []Table1Row{
		row("Random", randT),
		row("Our Heuristic", heuT),
	}
	if cfg.Extended {
		rows = append(rows,
			row("Heu+Refine", refT),
			row("First-Fit", ffT),
		)
	}
	rows = append(rows, row("Optimal", optT))
	return &Table1Result{Rows: rows, Generated: generated}, nil
}

// FormatTable1 renders the result in the paper's layout, as cmd/table1
// prints it: titled, and footed with the graph counts, the paper's
// reference cells and, with cfg.Extended, a legend of the extension rows.
func FormatTable1(cfg Table1Config, r *Table1Result) string {
	out := "Table 1. Comparisons among different service distribution algorithms.\n\n"
	out += fmt.Sprintf("%-14s  %-8s  %-8s\n", "Algorithms", "Average", "Optimal")
	for _, row := range r.Rows {
		out += fmt.Sprintf("%-14s  %6.0f%%   %6.0f%%\n", row.Name, row.AvgRatio*100, row.OptimalPct)
	}
	out += fmt.Sprintf("\n(%d graphs evaluated, %d drawn; paper reference: Random 25%%/0%%, Ours 91%%/60%%, Optimal 100%%/100%%)\n",
		cfg.Graphs, r.Generated)
	if cfg.Extended {
		out += "(extension rows: Heu+Refine = greedy + local search; First-Fit = packing ablation)\n"
	}
	return out
}
