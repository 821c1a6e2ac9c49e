// Command benchmark is the repository's one benchmark: it builds smart
// spaces from the public constructors, serves them with an in-process
// wire.Server, drives them over loopback TCP with wire.Client, and prints
// every end-to-end and per-layer metric by name. See README.md.
//
// With -workload it measures one workload for -seconds and prints one JSON
// object as its last line (the form BENCHMARK.json's command is run in);
// without, it runs all four workloads in interleaved rounds, then their
// traced passes, and prints the tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	repeat   int
	smoke    bool
	traceOut string
	// out receives everything the run prints.
	out io.Writer
}

func main() {
	o := options{out: os.Stdout}
	flag.StringVar(&o.workload, "workload", "", "measure one workload (mix4, bigraph, fill, churn) and print one JSON result line; empty runs all four")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 15, "with -workload: keep measuring rounds until this much time is measured")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	flag.IntVar(&o.repeat, "repeat", 1, "without -workload: run this many full sets back to back and compare them")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny request counts: every workload, pass and check in a few seconds")
	flag.StringVar(&o.traceOut, "trace-out", "", "directory the traced runs write their spans to, one JSON-lines file a workload (default: a directory under the system's temporary directory)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(os.TempDir(), "qosbench-trace")
	}
	var err error
	if o.workload != "" {
		err = runOne(o)
	} else {
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func (o options) sizes(wl *workloadDef) sizes {
	if o.smoke {
		return wl.smoke
	}
	return wl.full
}

// printHeader records where and on what the numbers were taken.
func printHeader(o options, wls []*workloadDef) {
	fmt.Fprintf(o.out, "commit %s  %s  cpu %q  nproc %d  GOMAXPROCS %d  seed %d\n",
		commit(), runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.seed)
	for _, wl := range wls {
		sz := o.sizes(wl)
		unit := "requests"
		if wl.population > 0 {
			unit = fmt.Sprintf("fail/rejoin cycles over %d standing sessions", wl.population)
		}
		fmt.Fprintf(o.out, "  %-8s %d wire clients, %s placer, a round: %d warm-up + %d measured %s; traced pass %d, ladder %d\n",
			wl.name, wl.clients, wl.placer, sz.warmup, sz.requests, unit, sz.traced, sz.ladder)
	}
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report is everything one workload produced in one set.
type report struct {
	wl         *workloadDef
	e2e        map[string]value
	layers     map[string]value
	attempted  int
	failed     int
	violations []string
}

// account folds a pass's operation counts and violations into the report.
// A refusal on a workload that offers more than fits is a correct answer;
// anywhere else it is a failed operation.
func (r *report) account(p *passResult) {
	r.attempted += p.attempted
	r.failed += p.failed
	if !r.wl.refusalsExpected {
		r.failed += p.refused
		if p.refused > 0 {
			r.violations = append(r.violations, fmt.Sprintf("%d starts refused on a space sized to hold them all", p.refused))
		}
	}
	r.violations = append(r.violations, p.violations...)
}

func (r *report) finishRounds(rounds []*passResult) {
	r.e2e = endToEnd(rounds)
	if r.wl.clients == 1 {
		r.violations = append(r.violations, serialExact(rounds)...)
	}
}

// tracedRun is the workload's traced run: untraced and traced passes of
// the same size, interleaved, then the ladder. It runs at least pairs
// pairs of passes and one ladder pass, and goes on until the passes have
// taken half of seconds and passes and ladder together all of it.
func tracedRun(o options, wl *workloadDef, r *report, pairs int, seconds float64) error {
	sz := o.sizes(wl)
	rec := newRecorder()
	var untraced, traced []*passResult
	var spent float64
	for len(untraced) < pairs || spent < seconds/2 {
		// Alternate which kind goes first: a pass inherits the heap and
		// the machine's mood from the one before it.
		recs := []*recorder{nil, rec}
		if len(untraced)%2 == 1 {
			recs = []*recorder{rec, nil}
		}
		for _, pr := range recs {
			p, err := runPass(wl, o.seed, sz.warmup, sz.traced, pr)
			if err != nil {
				return err
			}
			if pr == nil {
				untraced = append(untraced, p)
			} else {
				traced = append(traced, p)
			}
			r.account(p)
			spent += p.wallS
		}
	}
	var hits, misses int64
	for _, u := range untraced {
		hits, misses = hits+u.cacheHits, misses+u.cacheMisses
	}
	hot := hits > misses
	var ladders []*ladder
	for len(ladders) == 0 || spent < seconds {
		t0 := time.Now()
		l, err := runLadder(wl, o.seed, sz, hot, rec)
		if err != nil {
			return err
		}
		spent += time.Since(t0).Seconds()
		ladders = append(ladders, l)
		r.violations = append(r.violations, l.bad...)
	}
	var bad []string
	r.layers, bad = perLayer(untraced, traced, ladders)
	r.violations = append(r.violations, bad...)
	path := filepath.Join(o.traceOut, wl.name+".jsonl")
	n, err := rec.writeJSONL(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.out, "%s: %d spans written to %s\n", wl.name, n, path)
	return nil
}

// ---- one workload, for the driver --------------------------------------------

// result is the one JSON object the driver reads from the last line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runOne(o options) error {
	wl := workloadByName(o.workload)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	printHeader(o, []*workloadDef{wl})
	r := &report{wl: wl}
	defs := endToEndMetrics
	var values map[string]value
	if o.trace == 0 {
		sz := o.sizes(wl)
		var rounds []*passResult
		var measured float64
		for len(rounds) == 0 || measured < o.seconds {
			p, err := runPass(wl, o.seed, sz.warmup, sz.requests, nil)
			if err != nil {
				return err
			}
			rounds = append(rounds, p)
			r.account(p)
			measured += p.wallS
			printRound(o.out, wl.name, len(rounds), p)
		}
		r.finishRounds(rounds)
		fmt.Fprintf(o.out, "%d rounds, %.1f s measured\n", len(rounds), measured)
		values = r.e2e
	} else {
		// Half the time goes to the interleaved passes, half to the ladder.
		err := tracedRun(o, wl, r, 1, o.seconds)
		if err != nil {
			return err
		}
		defs, values = listed(perLayerMetrics), r.layers
	}
	printValues(o.out, wl.name, defs, values)
	printFindings(o, r)

	res := result{Correct: len(r.violations) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric)}
	for _, m := range defs {
		v := values[m.name]
		if !v.ok() {
			if m.name != "core.scaling_2c" {
				return fmt.Errorf("%s on %s: %s", m.name, wl.name, v.note)
			}
			v.v = 0 // refused; the note is printed above
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("%s on %s is %v", m.name, wl.name, v.v)
		}
		res.Metrics[m.name] = jsonMetric{Value: v.v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(o.out, string(line))
	return nil
}

// printRound records one round as it ends, with the share of the machine's
// processor time the hypervisor gave away while it ran: a round that reads
// slow beside a high share was slowed by a neighbour, not by the program.
func printRound(w io.Writer, workload string, i int, p *passResult) {
	p50, _ := percentile(p.configure, 0.5)
	fmt.Fprintf(w, "%-8s round %2d: %.2f s, %d configured, p50 %.4g ms, %.5g /s, %.4g cpu-ms each, steal %.1f%%\n",
		workload, i, p.wallS, p.succeeded, p50, ratio(float64(p.succeeded), p.wallS),
		ratio(p.cpuS*1000, float64(p.succeeded)), 100*ratio(p.stolenCPU, p.machineCPU))
}

// ---- all workloads -------------------------------------------------------------

const fullRounds = 3

// runSet runs every workload's rounds, interleaved so that a slow minute
// of the machine touches all of them, then every workload's traced run.
func runSet(o options) ([]*report, error) {
	reports := make([]*report, len(workloads))
	rounds := make([][]*passResult, len(workloads))
	for i, wl := range workloads {
		reports[i] = &report{wl: wl}
	}
	n := fullRounds
	if o.smoke {
		n = 2
	}
	for round := 0; round < n; round++ {
		for i, wl := range workloads {
			sz := o.sizes(wl)
			p, err := runPass(wl, o.seed, sz.warmup, sz.requests, nil)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", wl.name, round+1, err)
			}
			rounds[i] = append(rounds[i], p)
			reports[i].account(p)
			printRound(o.out, wl.name, round+1, p)
		}
	}
	// Four pairs of passes, so that each kind runs first twice.
	pairs := 4
	if o.smoke {
		pairs = 1
	}
	for i, wl := range workloads {
		reports[i].finishRounds(rounds[i])
		if err := tracedRun(o, wl, reports[i], pairs, 0); err != nil {
			return nil, fmt.Errorf("%s traced run: %w", wl.name, err)
		}
	}
	return reports, nil
}

func runAll(o options) error {
	printHeader(o, workloads)
	var sets [][]*report
	failed := false
	for s := 0; s < o.repeat; s++ {
		reports, err := runSet(o)
		if err != nil {
			return err
		}
		sets = append(sets, reports)
		for _, r := range reports {
			fmt.Fprintf(o.out, "\n== set %d  %s: %s\n", s+1, r.wl.name, r.wl.why)
			printValues(o.out, r.wl.name, endToEndMetrics, r.e2e)
			printValues(o.out, r.wl.name, perLayerMetrics, r.layers)
			fmt.Fprintf(o.out, "%s: %d operations attempted, %d failed\n", r.wl.name, r.attempted, r.failed)
			printFindings(o, r)
			failed = failed || len(r.violations) > 0
		}
	}
	if len(sets) > 1 && !compareSets(o.out, sets[0], sets[len(sets)-1]) {
		failed = true
	}
	if failed {
		return fmt.Errorf("checks failed")
	}
	fmt.Fprintln(o.out, "\nall checks passed")
	return nil
}

// compareSets prints the relative difference of every end-to-end metric
// between two sets of the same code and reports whether all stay within
// their bounds and all exact counts agree exactly.
func compareSets(w io.Writer, a, b []*report) bool {
	ok := true
	fmt.Fprintln(w, "\n== two sets of the same code")
	for i := range a {
		for _, m := range endToEndMetrics {
			va, vb := a[i].e2e[m.name], b[i].e2e[m.name]
			if !va.ok() || !vb.ok() {
				continue
			}
			diff := ratio(vb.v-va.v, va.v)
			verdict := "ok"
			if math.Abs(diff) > m.bound {
				verdict, ok = fmt.Sprintf("EXCEEDS bound %.2f", m.bound), false
			}
			fmt.Fprintf(w, "%-8s %-22s %12.6g %12.6g  %+7.2f%%  %s\n", a[i].wl.name, m.name, va.v, vb.v, diff*100, verdict)
		}
		for _, m := range perLayerMetrics {
			va, vb := a[i].layers[m.name], b[i].layers[m.name]
			if m.exact && va.ok() && vb.ok() && !sameCount(va.v, vb.v) {
				fmt.Fprintf(w, "%-8s %-22s %v in one set, %v in the other: an exact count differs\n", a[i].wl.name, m.name, va.v, vb.v)
				ok = false
			}
		}
		if a[i].wl.clients == 1 {
			for _, name := range []string{"success_ratio", "placement_cost_mean"} {
				if !sameCount(a[i].e2e[name].v, b[i].e2e[name].v) {
					fmt.Fprintf(w, "%-8s %-22s differs between sets on a serial trace\n", a[i].wl.name, name)
					ok = false
				}
			}
		}
	}
	return ok
}

func printValues(w io.Writer, workload string, defs []metricDef, values map[string]value) {
	for _, m := range defs {
		v, ok := values[m.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-8s %-38s %14s %-6s", workload, m.name, v.String(), m.unit)
		if v.ok() {
			line += fmt.Sprintf("  n=%d", v.samples)
			if v.spread > 0 {
				line += fmt.Sprintf("  spread %.1f%%", v.spread*100)
			}
		}
		fmt.Fprintln(w, line)
	}
}

// printFindings prints the expected shapes, which do not fail a run, and
// the violated checks, which do.
func printFindings(o options, r *report) {
	// A smoke run's handful of samples shows no shape.
	for _, line := range shapes(r.wl, r.e2e, r.layers) {
		if !o.smoke {
			fmt.Fprintf(o.out, "%s: %s\n", r.wl.name, line)
		}
	}
	sort.Strings(r.violations)
	for i, v := range r.violations {
		if i == 10 {
			fmt.Fprintf(o.out, "%s: ... and %d more\n", r.wl.name, len(r.violations)-i)
			break
		}
		fmt.Fprintf(o.out, "%s: CHECK FAILED: %s\n", r.wl.name, v)
	}
}
