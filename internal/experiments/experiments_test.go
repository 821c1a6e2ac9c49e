package experiments

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestTable1Shape verifies the regenerated Table 1 preserves the paper's
// shape: the heuristic is near-optimal on average (paper: 91%) and finds
// the exact optimum on a majority of graphs (paper: 60%); the random
// baseline is far below (paper: 25% average) and never exactly optimal.
// A reduced graph count keeps the test fast; the shape is stable.
func TestTable1Shape(t *testing.T) {
	cfg := DefaultTable1Config()
	cfg.Graphs = 60
	r, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	random, ours, optimal := r.Rows[0], r.Rows[1], r.Rows[2]
	if random.Name != "Random" || ours.Name != "Our Heuristic" || optimal.Name != "Optimal" {
		t.Fatalf("row order: %v %v %v", random.Name, ours.Name, optimal.Name)
	}
	if optimal.AvgRatio != 1 || optimal.OptimalPct != 100 {
		t.Errorf("optimal row = %+v", optimal)
	}
	if ours.AvgRatio < 0.80 || ours.AvgRatio > 1 {
		t.Errorf("heuristic average ratio = %.2f, want ≈0.91", ours.AvgRatio)
	}
	if ours.OptimalPct < 50 {
		t.Errorf("heuristic optimal%% = %.0f, want a majority", ours.OptimalPct)
	}
	if random.AvgRatio > 0.5 {
		t.Errorf("random average ratio = %.2f, want far below heuristic", random.AvgRatio)
	}
	if random.OptimalPct > 5 {
		t.Errorf("random optimal%% = %.0f, want ≈0", random.OptimalPct)
	}
	if ours.AvgRatio <= random.AvgRatio {
		t.Error("heuristic must dominate random")
	}
	out := FormatTable1(cfg, r)
	for _, want := range []string{"Algorithms", "Random", "Our Heuristic", "Optimal"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable1 missing %q:\n%s", want, out)
		}
	}
}

// TestTable1DocumentsMatchHarness holds the measured Table 1 cells of
// EXPERIMENTS.md (every row, extension rows included) and README.md (the
// paper's three rows and first-fit) to what the harness prints at its
// default setting, rounded as FormatTable1 rounds them.
func TestTable1DocumentsMatchHarness(t *testing.T) {
	cfg := DefaultTable1Config()
	cfg.Extended = true
	r, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	avg, opt := map[string]string{}, map[string]string{}
	for _, row := range r.Rows {
		avg[row.Name] = fmt.Sprintf("%.0f%%", row.AvgRatio*100)
		opt[row.Name] = fmt.Sprintf("%.0f%%", row.OptimalPct)
	}

	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "## Table 1")
	section, _, _ = strings.Cut(section, "\n## ")
	cells := regexp.MustCompile(`(?m)^\| ([^|]+) \| [^|]+ \| \*\*([^*]+)\*\* \| [^|]+ \| \*\*([^*]+)\*\* \|$`)
	matches := cells.FindAllStringSubmatch(section, -1)
	for _, m := range matches {
		if m[2] != avg[m[1]] || m[3] != opt[m[1]] {
			t.Errorf("EXPERIMENTS.md: %s measured %s / %s, the harness prints %s / %s", m[1], m[2], m[3], avg[m[1]], opt[m[1]])
		}
	}
	if len(matches) != len(r.Rows) {
		t.Errorf("EXPERIMENTS.md's Table 1 has %d measured rows, the harness %d", len(matches), len(r.Rows))
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("| %s / %s / %s (first-fit %s) |", avg["Random"], avg["Our Heuristic"], avg["Optimal"], avg["First-Fit"]),
		fmt.Sprintf("| %s / %s / %s (first-fit %s) |", opt["Random"], opt["Our Heuristic"], opt["Optimal"], opt["First-Fit"]),
	} {
		if !strings.Contains(string(readme), want) {
			t.Errorf("README.md has no Table 1 cell %q", want)
		}
	}
}

// TestFig5DocumentsMatchHarness: EXPERIMENTS.md's bold Fig. 5 overall
// rates are the overall line of testdata/fig5.golden, which
// TestFigureGoldens holds to what the harness prints.
func TestFig5DocumentsMatchHarness(t *testing.T) {
	golden, err := os.ReadFile("testdata/fig5.golden")
	if err != nil {
		t.Fatal(err)
	}
	var policies, overall []string
	for _, line := range strings.Split(string(golden), "\n") {
		switch {
		case strings.HasPrefix(line, "time(hr)"):
			policies = regexp.MustCompile(`\s{2,}`).Split(strings.TrimSpace(line), -1)[1:]
		case strings.HasPrefix(line, "overall"):
			overall = strings.Fields(line)[1:]
		}
	}
	if len(policies) == 0 || len(policies) != len(overall) {
		t.Fatalf("fig5.golden: policies %q, overall rates %q", policies, overall)
	}
	rate := map[string]string{}
	for i, p := range policies {
		rate[p] = overall[i]
	}

	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "## Figure 5")
	section, _, _ = strings.Cut(section, "\n## ")
	cells := regexp.MustCompile(`(?m)^\| ([^|]+) \| [^|]+ \| \*\*([^*]+)\*\* \|$`)
	matches := cells.FindAllStringSubmatch(section, -1)
	for _, m := range matches {
		if m[2] != rate[m[1]] {
			t.Errorf("EXPERIMENTS.md: %s measured %s overall, fig5.golden says %s", m[1], m[2], rate[m[1]])
		}
	}
	if len(matches) != len(policies) {
		t.Errorf("EXPERIMENTS.md's Fig. 5 table has %d measured rows, fig5.golden %d policies", len(matches), len(policies))
	}
}

func TestTable1ConfigValidation(t *testing.T) {
	cfg := DefaultTable1Config()
	cfg.Graphs = 0
	if _, err := RunTable1(cfg); err == nil {
		t.Error("zero graphs should fail")
	}
	// Impossible devices: every draw is infeasible.
	cfg = DefaultTable1Config()
	cfg.Graphs = 1
	cfg.MaxAttemptsPerGraph = 2
	cfg.Devices[0].Avail = cfg.Devices[0].Avail.Scale(0)
	cfg.Devices[1].Avail = cfg.Devices[1].Avail.Scale(0)
	if _, err := RunTable1(cfg); err == nil {
		t.Error("infeasible setting should fail")
	}
}

// TestFig5Shape verifies the regenerated Figure 5 preserves the paper's
// shape: the heuristic consistently maintains the highest success rate,
// random benefits from dynamic distribution (beats fixed), and fixed is
// lowest. A shortened horizon keeps the test fast.
func TestFig5Shape(t *testing.T) {
	cfg := DefaultFig5Config()
	cfg.Requests = 1000
	cfg.HorizonHours = 200
	r, err := RunFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("series = %d", len(r.Series))
	}
	heu, rnd, fix := r.Series[0], r.Series[1], r.Series[2]
	if heu.Name != "Our Heuristic" || rnd.Name != "Random" || fix.Name != "Fixed" {
		t.Fatalf("series order: %v %v %v", heu.Name, rnd.Name, fix.Name)
	}
	if !(heu.Overall > rnd.Overall && rnd.Overall > fix.Overall) {
		t.Errorf("ordering violated: heuristic %.3f, random %.3f, fixed %.3f",
			heu.Overall, rnd.Overall, fix.Overall)
	}
	if heu.Overall < 0.6 {
		t.Errorf("heuristic overall = %.3f, too low", heu.Overall)
	}
	// "Our heuristic algorithm consistently maintains the highest success
	// rate": per-window, the heuristic never drops below the others.
	for i := range r.WindowStartHours {
		h, rr := heu.Rates[i], rnd.Rates[i]
		if math.IsNaN(h) || math.IsNaN(rr) {
			continue
		}
		if h < rr {
			t.Errorf("window %d: heuristic %.3f below random %.3f", i, h, rr)
		}
	}
	out := FormatFig5(r)
	if !strings.Contains(out, "time(hr)") || !strings.Contains(out, "overall") {
		t.Errorf("FormatFig5 output:\n%s", out)
	}
}

func TestFig5ConfigValidation(t *testing.T) {
	cfg := DefaultFig5Config()
	cfg.Requests = 0
	if _, err := RunFig5(cfg); err == nil {
		t.Error("zero requests should fail")
	}
}

// TestFig34Scenario verifies the Figure 3/4 reproduction: the per-event
// service configuration results match the paper's, sessions sustain the
// requested rates across handoffs, downloading dominates the conferencing
// overhead, and the PC→PDA handoff costs more than PDA→PC.
func TestFig34Scenario(t *testing.T) {
	cfg := DefaultFig34Config()
	// A generous scale keeps frame intervals far above timer granularity
	// even when the whole test suite runs in parallel under -race.
	cfg.Scale = 0.15
	cfg.PlayModeled = 3 * time.Second
	r, err := RunFig34(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Events) != 4 {
		t.Fatalf("events = %d", len(r.Events))
	}
	e1, e2, e3, e4 := r.Events[0], r.Events[1], r.Events[2], r.Events[3]

	// Figure 3: configuration results.
	if e1.Configuration["audio-server(audio-server-1)"] != "desktop1" ||
		e1.Configuration["audio-player(audio-player-pc)"] != "desktop2" {
		t.Errorf("event 1 configuration = %v", e1.Configuration)
	}
	if e2.Configuration["transcoder(mpeg2wav-1)"] != "desktop2" ||
		e2.Configuration["audio-player(audio-player-pda)"] != "jornada" {
		t.Errorf("event 2 configuration = %v", e2.Configuration)
	}
	if e3.Configuration["audio-player(audio-player-pc)"] != "desktop3" {
		t.Errorf("event 3 configuration = %v", e3.Configuration)
	}
	if e4.Configuration["gateway(gateway-1)"] != "ws2" ||
		e4.Configuration["lip-synchronizer(lipsync-1)"] != "ws2" ||
		e4.Configuration["video-recorder(video-recorder-1)"] != "ws1" ||
		e4.Configuration["video-player(video-player-1)"] != "ws3" {
		t.Errorf("event 4 configuration = %v", e4.Configuration)
	}

	// Figure 3: measured QoS ≈ 40 fps audio; 25/6 fps A/V conferencing.
	for i, ev := range []Fig34Event{e1, e2, e3} {
		if got := ev.MeasuredQoS["audio"]; math.Abs(got-40) > 10 {
			t.Errorf("event %d audio = %.1f fps, want ≈40", i+1, got)
		}
	}
	if got := e4.MeasuredQoS["video"]; math.Abs(got-25) > 7 {
		t.Errorf("event 4 video = %.1f fps, want ≈25", got)
	}
	if got := e4.MeasuredQoS["audio"]; math.Abs(got-6) > 2.5 {
		t.Errorf("event 4 audio = %.1f fps, want ≈6", got)
	}

	// Figure 4: overhead shapes.
	if e1.Timing.Downloading != 0 || e2.Timing.Downloading != 0 || e3.Timing.Downloading != 0 {
		t.Error("audio events must have no downloading overhead (pre-installed)")
	}
	if e4.Timing.Downloading <= e4.Timing.Composition+e4.Timing.Distribution+e4.Timing.InitOrHandoff {
		t.Errorf("downloading must dominate event 4: %+v", e4.Timing)
	}
	if e4.Timing.Downloading < 500*time.Millisecond {
		t.Errorf("event 4 downloading = %v, want on the order of the paper's ~1.5s", e4.Timing.Downloading)
	}
	if e2.Timing.InitOrHandoff <= e3.Timing.InitOrHandoff {
		t.Errorf("PC→PDA handoff (%v) must exceed PDA→PC (%v)",
			e2.Timing.InitOrHandoff, e3.Timing.InitOrHandoff)
	}
	if e1.Timing.InitOrHandoff >= e2.Timing.InitOrHandoff {
		t.Error("initial start must be cheaper than the wireless handoff")
	}

	// Formatting helpers cover all events.
	f3 := FormatFig3(r)
	if !strings.Contains(f3, "Event 4") || !strings.Contains(f3, "measured QoS") {
		t.Errorf("FormatFig3:\n%s", f3)
	}
	f4 := FormatFig4(r)
	if !strings.Contains(f4, "downloading") {
		t.Errorf("FormatFig4:\n%s", f4)
	}
}

func TestFig34ConfigValidation(t *testing.T) {
	if _, err := RunFig34(Fig34Config{}); err == nil {
		t.Error("zero config should fail")
	}
}

// TestExperimentsDeterministic pins the reproducibility contract: the same
// seed yields bit-identical experiment outputs.
func TestExperimentsDeterministic(t *testing.T) {
	t1 := DefaultTable1Config()
	t1.Graphs = 15
	a, err := RunTable1(t1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTable1(t1)
	if err != nil {
		t.Fatal(err)
	}
	if FormatTable1(t1, a) != FormatTable1(t1, b) {
		t.Error("Table 1 is not deterministic for a fixed seed")
	}

	f5 := DefaultFig5Config()
	f5.Requests = 150
	f5.HorizonHours = 50
	ra, err := RunFig5(f5)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunFig5(f5)
	if err != nil {
		t.Fatal(err)
	}
	if FormatFig5(ra) != FormatFig5(rb) {
		t.Error("Figure 5 is not deterministic for a fixed seed")
	}
	// Different seeds genuinely change the trace.
	f5.Seed++
	rc, err := RunFig5(f5)
	if err != nil {
		t.Fatal(err)
	}
	if FormatFig5(ra) == FormatFig5(rc) {
		t.Error("different seeds produced identical Figure 5 output")
	}
}

// TestFig5OrderingRobustAcrossSeeds verifies the headline ordering is not
// an artifact of one trace: within every independently seeded run the
// heuristic beats random beats fixed, and the means across seeds keep the
// same ordering. (Short traces make the cross-seed min/max bands overlap,
// so per-seed ordering — not band separation — is the right claim.)
func TestFig5OrderingRobustAcrossSeeds(t *testing.T) {
	cfg := DefaultFig5Config()
	cfg.Requests = 400
	cfg.HorizonHours = 80
	for s := int64(0); s < 3; s++ {
		run := cfg
		run.Seed = cfg.Seed + s
		r, err := RunFig5(run)
		if err != nil {
			t.Fatal(err)
		}
		h, rr, f := r.Series[0].Overall, r.Series[1].Overall, r.Series[2].Overall
		if !(h > rr && rr > f) {
			t.Errorf("seed %d: ordering violated: %.3f / %.3f / %.3f", run.Seed, h, rr, f)
		}
	}
	sums, err := RunFig5Seeds(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 3 {
		t.Fatalf("summaries = %d", len(sums))
	}
	heu, rnd, fix := sums[0], sums[1], sums[2]
	if !(heu.Mean > rnd.Mean && rnd.Mean > fix.Mean) {
		t.Errorf("mean ordering violated: %.3f / %.3f / %.3f", heu.Mean, rnd.Mean, fix.Mean)
	}
	if heu.Min > heu.Max || rnd.Min > rnd.Max || fix.Min > fix.Max {
		t.Error("min/max bookkeeping inverted")
	}
	if _, err := RunFig5Seeds(cfg, 0); err == nil {
		t.Error("zero seeds should fail")
	}
}
