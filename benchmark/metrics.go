package main

import (
	"fmt"
	"math"
)

// metricDef names one metric of the benchmark. BENCHMARK.json lists the
// same names, units and bounds; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected; 0 for per-layer
	// metrics, which are not gated.
	bound float64
	// exact marks a count the program makes that repeats exactly on a
	// seed: it must agree between ladder passes and between -repeat sets.
	exact bool
	// partial marks a per-layer metric that only some workloads can
	// measure (the exact solvers are intractable on bigraph). The full
	// run prints it where it exists; the driver's per-layer list, which
	// every workload must fill, leaves it out.
	partial bool
}

// The bounds follow what the machine lets a run resolve. Ten runs of 20 s
// on ten seeds scatter (quartile distance over median) by 4 to 22 % on
// every timing, whatever the workload: a neighbour on this shared
// two-core box slows rounds by 15 to 25 % for 10 to 20 s at a time. The
// timings therefore take the widest bound the driver allows; the counted
// metrics, which scatter by 0 to 4 % (the seeds draw different graphs),
// take three times their scatter.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "configure_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "configure_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "sessions_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_ms_per_session", unit: "ms", better: "lower", bound: 0.25},
	{name: "success_ratio", unit: "ratio", better: "higher", bound: 0.12},
	{name: "placement_cost_mean", unit: "cost", better: "lower", bound: 0.12},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.08},
}

var perLayerMetrics = []metricDef{
	// Needs a thousand samples, which bigraph's traced run does not take.
	{name: "client.configure_p99_ms", unit: "ms", better: "lower", partial: true},
	{name: "client.stop_p50_ms", unit: "ms", better: "lower"},
	{name: "client.samples", unit: "count", better: "higher"},

	{name: "wire.ping_rtt_us", unit: "us", better: "lower"},
	{name: "wire.start_req_bytes", unit: "bytes", better: "lower"},
	{name: "wire.start_resp_bytes", unit: "bytes", better: "lower"},
	{name: "wire.codec_us", unit: "us", better: "lower"},
	{name: "wire.call_us", unit: "us", better: "lower"},
	{name: "wire.self_us", unit: "us", better: "lower"},
	{name: "wire.handle_us", unit: "us", better: "lower"},
	{name: "wire.dispatch_self_us", unit: "us", better: "lower"},

	{name: "domain.startapp_us", unit: "us", better: "lower"},
	{name: "domain.self_us", unit: "us", better: "lower"},
	{name: "eventbus.publish_us", unit: "us", better: "lower"},

	{name: "core.configure_full_us", unit: "us", better: "lower"},
	{name: "core.configure_bare_us", unit: "us", better: "lower"},
	{name: "core.stage_sum_us", unit: "us", better: "lower"},
	{name: "core.self_us", unit: "us", better: "lower"},
	{name: "core.stop_us", unit: "us", better: "lower"},
	{name: "core.reconfigure_us", unit: "us", better: "lower"},
	{name: "core.allocs_per_configure", unit: "count", better: "lower"},
	{name: "core.bytes_per_configure", unit: "bytes", better: "lower"},
	{name: "core.scaling_2c", unit: "ratio", better: "higher"},
	{name: "core.admit_race_ratio", unit: "ratio", better: "lower"},
	{name: "core.recover_attempts_per_session", unit: "count", better: "lower"},
	{name: "core.warm_solve_ratio", unit: "ratio", better: "higher"},

	{name: "observers.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "observers.allocs_per_configure", unit: "count", better: "lower"},

	{name: "composer.compose_us", unit: "us", better: "lower"},
	{name: "composer.self_us", unit: "us", better: "lower"},
	{name: "composer.corrections_per_compose", unit: "count", better: "lower", exact: true},
	{name: "composer.allocs_per_compose", unit: "count", better: "lower"},
	{name: "registry.best_us", unit: "us", better: "lower"},
	{name: "registry.lookups_per_compose", unit: "count", better: "lower", exact: true},

	{name: "distributor.signature_us", unit: "us", better: "lower"},
	{name: "distributor.cache_lookup_us", unit: "us", better: "lower"},
	{name: "distributor.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "distributor.solve_us", unit: "us", better: "lower"},
	{name: "distributor.solve_calls_per_configure", unit: "count", better: "lower"},
	{name: "distributor.heuristic_us", unit: "us", better: "lower"},
	{name: "distributor.optimal_us", unit: "us", better: "lower", partial: true},
	{name: "distributor.warm_us", unit: "us", better: "lower", partial: true},
	{name: "distributor.explored_per_solve", unit: "count", better: "lower", exact: true},
	{name: "distributor.allocs_per_solve", unit: "count", better: "lower"},
	{name: "distributor.cost_ratio_vs_optimal", unit: "ratio", better: "lower", exact: true, partial: true},

	{name: "device.reserve_us", unit: "us", better: "lower"},
	{name: "device.release_us", unit: "us", better: "lower"},
	{name: "device.reservations_per_configure", unit: "count", better: "lower", exact: true},
	{name: "repository.ensure_us", unit: "us", better: "lower"},

	{name: "runtime.deploy_start_us", unit: "us", better: "lower"},
	{name: "runtime.stop_us", unit: "us", better: "lower"},
	{name: "runtime.goroutines_per_session", unit: "count", better: "lower"},

	{name: "proc.gc_cpu_ratio", unit: "ratio", better: "lower"},
	{name: "proc.allocs_per_session", unit: "count", better: "lower"},
	{name: "proc.alloc_kb_per_session", unit: "KB", better: "lower"},
	{name: "proc.mutex_wait_ms_per_s", unit: "ms/s", better: "lower"},
	{name: "proc.goroutines_end", unit: "count", better: "lower"},
	{name: "proc.steal_ratio", unit: "ratio", better: "lower"},

	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// listed returns the metrics every workload reports: what BENCHMARK.json
// lists and the driver's result line carries.
func listed(defs []metricDef) []metricDef {
	var out []metricDef
	for _, m := range defs {
		if !m.partial {
			out = append(out, m)
		}
	}
	return out
}

// value is one reported metric: the median of its rounds (or of its
// ladder samples), the (max-min)/median spread of those, and the number of
// samples behind it. A value that could not be measured carries the
// reason in note and is printed, not reported as a number.
type value struct {
	v       float64
	spread  float64
	samples int
	note    string
}

func (v value) ok() bool { return v.note == "" }

func (v value) String() string {
	if !v.ok() {
		return v.note
	}
	return fmt.Sprintf("%.6g", v.v)
}

// endToEnd reduces the rounds of one workload to the end-to-end metrics:
// every metric is computed per round and the median of the rounds is
// reported.
func endToEnd(rounds []*passResult) map[string]value {
	per := make(map[string][]float64)
	samples := make(map[string]int)
	notes := make(map[string]string)
	for _, r := range rounds {
		per["setup_s"] = append(per["setup_s"], r.setupS)
		for name, q := range map[string]float64{"configure_p50_ms": 0.50, "configure_p95_ms": 0.95} {
			p, ok := percentile(r.configure, q)
			if !ok {
				notes[name] = fmt.Sprintf("n/a (%d samples a round, fewer than %d beyond the percentile)", len(r.configure), minBeyond)
			}
			per[name] = append(per[name], p)
			samples[name] += len(r.configure)
		}
		per["sessions_per_s"] = append(per["sessions_per_s"], ratio(float64(r.succeeded), r.wallS))
		per["cpu_ms_per_session"] = append(per["cpu_ms_per_session"], ratio(r.cpuS*1000, float64(r.succeeded)))
		per["success_ratio"] = append(per["success_ratio"], ratio(float64(r.succeeded), float64(r.attempted)))
		per["placement_cost_mean"] = append(per["placement_cost_mean"], ratio(r.costSum, float64(r.succeeded)))
		per["heap_live_mb"] = append(per["heap_live_mb"], r.heapLiveMB)
		for _, name := range []string{"sessions_per_s", "cpu_ms_per_session", "success_ratio", "placement_cost_mean"} {
			samples[name] += r.attempted
		}
	}
	out := make(map[string]value)
	for _, m := range endToEndMetrics {
		n := samples[m.name]
		if n == 0 {
			n = len(rounds)
		}
		out[m.name] = value{v: median(per[m.name]), spread: spread(per[m.name]), samples: n, note: notes[m.name]}
	}
	return out
}

// sameCount compares two values that should repeat exactly. Costs are
// sums the program takes in map order (Problem.CostAggregation ranges over
// a map of device pairs), so the same placement's cost may differ in its
// last bits from run to run; anything beyond that is a different outcome.
func sameCount(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// serialExact checks that a serial workload's counted outcomes repeat
// exactly from round to round: with one client the trace is replayed in
// the same order, so the same requests must be refused and the same
// placements chosen.
func serialExact(rounds []*passResult) []string {
	var bad []string
	for _, r := range rounds[1:] {
		if r.succeeded != rounds[0].succeeded || r.attempted != rounds[0].attempted {
			bad = append(bad, fmt.Sprintf("serial trace not repeatable: %d/%d starts succeeded in one round, %d/%d in another",
				rounds[0].succeeded, rounds[0].attempted, r.succeeded, r.attempted))
		} else if !sameCount(r.costSum, rounds[0].costSum) {
			bad = append(bad, fmt.Sprintf("serial trace not repeatable: summed placement cost %v in one round, %v in another",
				rounds[0].costSum, r.costSum))
		}
	}
	return bad
}

// perLayer reduces the traced run — interleaved untraced and traced
// passes plus the ladder passes — to the per-layer metrics.
func perLayer(untraced, traced []*passResult, ladders []*ladder) (map[string]value, []string) {
	out := make(map[string]value)
	var bad []string
	var u, t passResult
	var goroutinesEnd []float64
	for _, r := range untraced {
		u.merge(r)
	}
	for _, r := range traced {
		t.merge(r)
	}
	for _, r := range untraced {
		goroutinesEnd = append(goroutinesEnd, float64(r.goroutinesEnd))
	}
	pct := func(name string, samples []float64, q float64) {
		p, ok := percentile(samples, q)
		v := value{v: p, samples: len(samples)}
		if !ok {
			v.note = fmt.Sprintf("n/a (%d samples, fewer than %d beyond the percentile)", len(samples), minBeyond)
		}
		out[name] = v
	}
	count := func(name string, a, b float64, n int) { out[name] = value{v: ratio(a, b), samples: n} }

	pct("client.configure_p99_ms", u.configure, 0.99)
	pct("client.stop_p50_ms", u.stop, 0.50)
	out["client.samples"] = value{v: float64(len(u.configure)), samples: len(u.configure)}
	count("distributor.cache_hit_ratio", float64(u.cacheHits), float64(u.cacheHits+u.cacheMisses), int(u.cacheHits+u.cacheMisses))
	count("distributor.solve_calls_per_configure", float64(t.solveCalls), float64(t.attempted), t.attempted)
	count("core.admit_race_ratio", float64(u.raced), float64(u.attempted), u.attempted)
	count("core.recover_attempts_per_session", float64(u.recoverAttempts), float64(u.succeeded), int(u.recoverAttempts))
	count("core.warm_solve_ratio", float64(u.warmSolves), float64(u.warmSolves+u.coldSolves), int(u.warmSolves+u.coldSolves))
	count("proc.gc_cpu_ratio", u.gcCPUS, u.cpuS, len(untraced))
	count("proc.allocs_per_session", u.allocs, float64(u.succeeded), u.succeeded)
	count("proc.alloc_kb_per_session", u.allocBytes/1024, float64(u.succeeded), u.succeeded)
	count("proc.mutex_wait_ms_per_s", u.mutexWaitS*1000, u.wallS, len(untraced))
	count("proc.steal_ratio", u.stolenCPU, u.machineCPU, len(untraced))
	out["proc.goroutines_end"] = value{v: median(goroutinesEnd), spread: spread(goroutinesEnd), samples: len(goroutinesEnd)}

	// Tracing overhead: each traced pass against the untraced pass run
	// next to it, so that both see the same mood of the machine; the
	// median of the pairs.
	var overheads []float64
	for i := range traced {
		up50, uok := percentile(untraced[i].configure, 0.5)
		tp50, tok := percentile(traced[i].configure, 0.5)
		if uok && tok {
			overheads = append(overheads, ratio(tp50, up50))
		}
	}
	out["trace.overhead_ratio"] = value{v: median(overheads), spread: spread(overheads), samples: len(t.configure)}
	if len(overheads) == 0 {
		out["trace.overhead_ratio"] = value{note: fmt.Sprintf("n/a (%d traced samples)", len(t.configure))}
	}

	// The ladder's samples, pooled over its passes. An exact count must
	// read the same in every pass.
	pooled := make(map[string][]float64)
	for _, l := range ladders {
		for name, s := range l.samples {
			pooled[name] = append(pooled[name], s...)
		}
	}
	for _, m := range perLayerMetrics {
		if _, done := out[m.name]; done {
			continue
		}
		s := pooled[m.name]
		v := value{v: median(s), samples: len(s)}
		if m.exact {
			v.v = mean(s)
			for _, l := range ladders[1:] {
				if a, b := mean(ladders[0].samples[m.name]), mean(l.samples[m.name]); !sameCount(a, b) {
					bad = append(bad, fmt.Sprintf("%s is %v in one ladder pass and %v in another", m.name, a, b))
				}
			}
		}
		if len(s) == 0 {
			v.note = "n/a (not measured on this workload)"
		}
		out[m.name] = v
	}
	full, bare := median(pooled["core.configure_full_us"]), median(pooled["core.configure_bare_us"])
	out["observers.overhead_ratio"] = value{v: ratio(full, bare), samples: len(pooled["core.configure_full_us"])}
	stageSum := median(pooled["core.stage_sum_us"])
	out["core.self_us"] = value{v: bare - stageSum, samples: len(pooled["core.stage_sum_us"])}
	if len(pooled["core.scaling_2c"]) == 0 {
		out["core.scaling_2c"] = value{note: "refused (GOMAXPROCS < 2)"}
	}

	return out, bad
}

// shapes states the relations the numbers are expected to show at the
// seed commit and whether this run shows them. They are findings about
// the program, not checks of its outputs: a shape that does not hold is
// printed, and does not fail the run.
func shapes(wl *workloadDef, e2e, layers map[string]value) []string {
	var out []string
	say := func(held bool, format string, args ...any) {
		verdict := "held"
		if !held {
			verdict = "NOT HELD"
		}
		out = append(out, fmt.Sprintf("shape %s: %s", verdict, fmt.Sprintf(format, args...)))
	}
	if v, ok := e2e["success_ratio"]; ok && v.ok() {
		failed := 1 - v.v
		switch wl.name {
		case "fill":
			say(failed >= 0.15 && failed <= 0.35, "failed_ratio %.3f within 0.15-0.35", failed)
		case "bigraph":
			say(failed <= 0.01, "failed_ratio %.3f at most 0.01", failed)
		default:
			say(failed == 0, "failed_ratio %.3f is 0", failed)
		}
	}
	if v, ok := layers["distributor.cache_hit_ratio"]; ok && v.ok() {
		switch wl.name {
		case "mix4":
			say(v.v >= 0.9, "plan cache hit ratio %.3f at least 0.9", v.v)
		case "bigraph":
			say(v.v <= 0.05, "plan cache hit ratio %.3f at most 0.05", v.v)
		}
	}
	levels := []string{"wire.call_us", "wire.handle_us", "domain.startapp_us", "core.configure_full_us", "core.configure_bare_us"}
	if v, ok := layers[levels[0]]; ok && v.ok() {
		ordered := true
		text := ""
		for i, name := range levels {
			if i > 0 {
				// The levels are separate executions; medians 5 % apart
				// at most are not told apart.
				ordered = ordered && layers[levels[i-1]].v >= 0.95*layers[name].v
				text += " >= "
			}
			text += fmt.Sprintf("%s %.0f", name, layers[name].v)
		}
		say(ordered, "%s (to within 5%%)", text)
		sum, bare := layers["core.stage_sum_us"].v, layers["core.configure_bare_us"].v
		say(sum <= 1.10*bare, "stages sum to %.0f us of a bare configure's %.0f us (at most 1.10x); the other %.0f us (%.0f%%) are core's own",
			sum, bare, bare-sum, 100*ratio(bare-sum, bare))
		say(layers["observers.overhead_ratio"].v <= 1.10, "observers cost %.2fx a bare configure, budget 1.10", layers["observers.overhead_ratio"].v)
	}
	if v, ok := layers["trace.overhead_ratio"]; ok && v.ok() {
		say(v.v <= 1.10, "traced pass p50 is %.2fx the untraced, at most 1.10", v.v)
	}
	return out
}
