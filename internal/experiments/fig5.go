package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"ubiqos/internal/device"
	"ubiqos/internal/distributor"
	"ubiqos/internal/graph"
	"ubiqos/internal/par"
	"ubiqos/internal/resource"
	"ubiqos/internal/sim"
	"ubiqos/internal/workload"
)

// Fig5Config parameterizes the success-rate simulation of Figure 5: "We
// assume three heterogeneous devices (desktop, laptop, and PDA) ... RA1 =
// [256MB, 300%], RA2 = [128MB, 100%], RA3 = [32MB, 50%]. The available
// bandwidths b1,2, b1,3, and b2,3 are initialized to be 50Mbps, 5Mbps, and
// 5Mbps. We randomly create 5000 application requests over 1000 hours.
// Each request randomly selects a service graph from 5 predefined ones ...
// The length of each application is exponentially distributed from 5
// minutes to 1 hours. ... The success rate is calculated every 50 hours."
type Fig5Config struct {
	Seed         int64
	Requests     int
	HorizonHours float64
	WindowHours  float64
	// Workers bounds the worker pool. Each request trace is an inherently
	// sequential admission simulation, so the parallel grain is one
	// (policy, trace) replay — RunFig5 runs its three policies
	// concurrently, and RunFig5Seeds additionally fans out over seeds.
	// Results are identical for every worker count (0 = all usable CPUs).
	Workers int
	// GraphCount predefined service graphs drawn with Params.
	GraphCount int
	Params     workload.GraphParams
	Devices    []distributor.DeviceInfo
	// LinkMbps maps unordered device-ID pairs to the initial end-to-end
	// bandwidth.
	LinkMbps map[[2]device.ID]float64
	// Application holding times: exponential with MeanDurationHours,
	// clamped to [MinDurationHours, MaxDurationHours].
	MinDurationHours, MaxDurationHours, MeanDurationHours float64
	// RandomTriesPerRequest gives the random baseline this many admission
	// attempts per request (1 in the paper's spirit).
	RandomTriesPerRequest int
}

// DefaultFig5Config returns the paper's setting.
func DefaultFig5Config() Fig5Config {
	return Fig5Config{
		Seed:         2002,
		Requests:     5000,
		HorizonHours: 1000,
		WindowHours:  50,
		GraphCount:   5,
		Params:       workload.Fig5Params(),
		Devices: []distributor.DeviceInfo{
			{ID: "desktop", Avail: resource.MB(256, 300)},
			{ID: "laptop", Avail: resource.MB(128, 100)},
			{ID: "pda", Avail: resource.MB(32, 50)},
		},
		LinkMbps: map[[2]device.ID]float64{
			{"desktop", "laptop"}: 50,
			{"desktop", "pda"}:    5,
			{"laptop", "pda"}:     5,
		},
		MinDurationHours:      5.0 / 60,
		MaxDurationHours:      1,
		MeanDurationHours:     0.3,
		RandomTriesPerRequest: 1,
	}
}

// Fig5Series is one curve of Figure 5: a policy's success rate per window.
type Fig5Series struct {
	Name string
	// Rates[i] is successes/attempts within window i (NaN when a window
	// saw no attempts).
	Rates []float64
	// Overall is the success rate across all requests.
	Overall float64
}

// Fig5Result holds the regenerated figure.
type Fig5Result struct {
	// WindowStartHours labels the x axis.
	WindowStartHours []float64
	Series           []Fig5Series
}

// fig5Request is one element of the shared arrival trace.
type fig5Request struct {
	at       float64
	graphIdx int
	duration float64
	weights  resource.Weights
}

// RunFig5 regenerates Figure 5: the same request trace is replayed against
// three independent smart-space states, one per placement policy
// (heuristic, random, fixed), and the per-window success rates are
// reported.
func RunFig5(cfg Fig5Config) (*Fig5Result, error) {
	if cfg.Requests <= 0 || cfg.HorizonHours <= 0 || cfg.WindowHours <= 0 {
		return nil, fmt.Errorf("experiments: invalid fig5 config")
	}
	graphs, err := workload.PredefinedGraphs(cfg.Seed, cfg.GraphCount, cfg.Params)
	if err != nil {
		return nil, err
	}
	trace := buildFig5Trace(cfg)

	windows := int(math.Ceil(cfg.HorizonHours / cfg.WindowHours))
	result := &Fig5Result{WindowStartHours: make([]float64, windows)}
	for i := range result.WindowStartHours {
		result.WindowStartHours[i] = float64(i) * cfg.WindowHours
	}

	// Each policy owns its state (and, for Random, its own rand stream
	// seeded from the shared config seed), so the three trace replays are
	// independent jobs; the series slice is filled by policy index, so the
	// figure is identical for every worker count.
	policies := []struct {
		name  string
		place func(key string, p *distributor.Problem) (distributor.Assignment, error)
	}{
		{"Our Heuristic", func(_ string, p *distributor.Problem) (distributor.Assignment, error) {
			a, _, err := distributor.Heuristic(p)
			return a, err
		}},
		{"Random", func() func(string, *distributor.Problem) (distributor.Assignment, error) {
			randRng := rand.New(rand.NewSource(cfg.Seed + 1))
			return func(_ string, p *distributor.Problem) (distributor.Assignment, error) {
				var lastErr error
				for t := 0; t < max(1, cfg.RandomTriesPerRequest); t++ {
					a, _, err := distributor.RandomAdmit(p, randRng)
					if err == nil {
						return a, nil
					}
					lastErr = err
				}
				return nil, lastErr
			}
		}()},
		{"Fixed", func() func(string, *distributor.Problem) (distributor.Assignment, error) {
			fixed := distributor.NewFixed(cfg.Devices)
			return func(key string, p *distributor.Problem) (distributor.Assignment, error) {
				a, _, err := fixed.Place(key, p)
				return a, err
			}
		}()},
	}

	result.Series = make([]Fig5Series, len(policies))
	err = par.ForEach(len(policies), cfg.Workers, func(pi int) error {
		pol := policies[pi]
		series, err := runFig5Policy(cfg, graphs, trace, windows, pol.place)
		if err != nil {
			return fmt.Errorf("experiments: policy %s: %w", pol.name, err)
		}
		series.Name = pol.name
		result.Series[pi] = series
		return nil
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}

// buildFig5Trace draws the shared arrival trace: the paper "randomly
// creates" the requests over the period, which we realize as uniform
// arrival times over the horizon (sorted), uniform graph choice,
// clamped-exponential durations, and uniform weights.
func buildFig5Trace(cfg Fig5Config) []fig5Request {
	rng := rand.New(rand.NewSource(cfg.Seed))
	trace := make([]fig5Request, cfg.Requests)
	for i := range trace {
		d := rng.ExpFloat64() * cfg.MeanDurationHours
		if d < cfg.MinDurationHours {
			d = cfg.MinDurationHours
		}
		if d > cfg.MaxDurationHours {
			d = cfg.MaxDurationHours
		}
		trace[i] = fig5Request{
			at:       rng.Float64() * cfg.HorizonHours,
			graphIdx: rng.Intn(cfg.GraphCount),
			duration: d,
			weights:  workload.RandomWeights(rng, resource.Dims),
		}
	}
	sort.SliceStable(trace, func(i, j int) bool { return trace[i].at < trace[j].at })
	return trace
}

// runFig5Policy replays the trace against one isolated smart-space state.
func runFig5Policy(cfg Fig5Config, graphs []*graph.Graph, trace []fig5Request, windows int, place func(string, *distributor.Problem) (distributor.Assignment, error)) (Fig5Series, error) {
	remaining := make([]resource.Vector, len(cfg.Devices))
	for i, d := range cfg.Devices {
		remaining[i] = d.Avail.Clone()
	}
	links := device.NewLinks()
	for pair, mbps := range cfg.LinkMbps {
		links.MustSet(pair[0], pair[1], mbps)
	}

	attempts := make([]int, windows)
	successes := make([]int, windows)
	var engine sim.Simulator
	var failure error

	for _, req := range trace {
		req := req
		err := engine.Schedule(req.at, func() {
			win := int(req.at / cfg.WindowHours)
			if win >= windows {
				win = windows - 1
			}
			attempts[win]++

			devs := make([]distributor.DeviceInfo, len(cfg.Devices))
			for i, d := range cfg.Devices {
				devs[i] = distributor.DeviceInfo{ID: d.ID, Avail: remaining[i].Clone()}
			}
			prob := &distributor.Problem{
				Graph:     graphs[req.graphIdx],
				Devices:   devs,
				Bandwidth: links.Available,
				Weights:   req.weights,
			}
			a, err := place(fmt.Sprintf("g%d", req.graphIdx), prob)
			if err != nil {
				return // rejected request
			}
			// Admit: subtract loads, reserve bandwidth.
			loads := prob.DeviceLoads(a)
			for i := range remaining {
				remaining[i] = remaining[i].Sub(loads[i])
			}
			demands := prob.LinkDemands(a)
			for pair, mbps := range demands {
				if err := links.Reserve(pair[0], pair[1], mbps); err != nil {
					failure = fmt.Errorf("link reservation after successful fit: %w", err)
					return
				}
			}
			successes[win]++
			engine.MustSchedule(req.at+req.duration, func() {
				for i := range remaining {
					remaining[i] = remaining[i].Add(loads[i])
				}
				for pair, mbps := range demands {
					links.ReleaseBandwidth(pair[0], pair[1], mbps)
				}
			})
		})
		if err != nil {
			return Fig5Series{}, err
		}
	}
	engine.Run()
	if failure != nil {
		return Fig5Series{}, failure
	}

	s := Fig5Series{Rates: make([]float64, windows)}
	totalA, totalS := 0, 0
	for i := range s.Rates {
		totalA += attempts[i]
		totalS += successes[i]
		if attempts[i] == 0 {
			s.Rates[i] = math.NaN()
			continue
		}
		s.Rates[i] = float64(successes[i]) / float64(attempts[i])
	}
	if totalA > 0 {
		s.Overall = float64(totalS) / float64(totalA)
	}
	return s, nil
}

// FormatFig5 renders the three success-rate series as an aligned table
// (one row per 50-hour window), matching the data behind Figure 5, as
// cmd/fig5 prints it: titled, and footed with the paper's reference shape.
func FormatFig5(r *Fig5Result) string {
	out := "Figure 5. Success rate comparisons among the fixed, random and heuristic algorithms.\n\n"
	out += fmt.Sprintf("%-10s", "time(hr)")
	for _, s := range r.Series {
		out += fmt.Sprintf("  %-14s", s.Name)
	}
	out += "\n"
	for i, start := range r.WindowStartHours {
		out += fmt.Sprintf("%-10.0f", start)
		for _, s := range r.Series {
			out += fmt.Sprintf("  %-14.3f", s.Rates[i])
		}
		out += "\n"
	}
	out += fmt.Sprintf("%-10s", "overall")
	for _, s := range r.Series {
		out += fmt.Sprintf("  %-14.3f", s.Overall)
	}
	out += "\n\n(paper reference shape: heuristic consistently highest, random middle, fixed lowest)\n"
	return out
}

// Fig5SeedSummary aggregates one policy's overall success rate across
// several independently seeded runs.
type Fig5SeedSummary struct {
	Name           string
	Mean, Min, Max float64
}

// RunFig5Seeds repeats the Figure 5 simulation with n consecutive seeds
// and summarizes each policy's overall success rate — a robustness check
// that the paper's ordering is not an artifact of one trace. Seed runs are
// independent and fan out over cfg.Workers; each run's own policy fan-out
// is serialized so the pool is not oversubscribed, and the summaries are
// aggregated in seed order, keeping the output worker-count independent.
func RunFig5Seeds(cfg Fig5Config, n int) ([]Fig5SeedSummary, error) {
	if n <= 0 {
		return nil, fmt.Errorf("experiments: seed count must be positive")
	}
	results := make([]*Fig5Result, n)
	err := par.ForEach(n, cfg.Workers, func(s int) error {
		run := cfg
		run.Seed = cfg.Seed + int64(s)
		run.Workers = 1
		r, err := RunFig5(run)
		if err != nil {
			return err
		}
		results[s] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	var summaries []Fig5SeedSummary
	for s, r := range results {
		for i, series := range r.Series {
			if s == 0 {
				summaries = append(summaries, Fig5SeedSummary{
					Name: series.Name,
					Min:  series.Overall,
					Max:  series.Overall,
				})
			}
			sum := &summaries[i]
			sum.Mean += series.Overall / float64(n)
			if series.Overall < sum.Min {
				sum.Min = series.Overall
			}
			if series.Overall > sum.Max {
				sum.Max = series.Overall
			}
		}
	}
	return summaries, nil
}
