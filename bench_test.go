// Package ubiqos's benchmark suite regenerates, at reduced size, every
// table and figure of the paper's evaluation (run the cmd/table1, cmd/fig3,
// cmd/fig4, cmd/fig5 binaries for the full-size reproductions), and
// additionally benchmarks the core algorithms and the design-choice
// ablations called out in DESIGN.md. Custom metrics carry the experiment
// outputs: ratios are reported via b.ReportMetric so `go test -bench`
// output doubles as a results table.
package ubiqos

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ubiqos/internal/composer"
	"ubiqos/internal/device"
	"ubiqos/internal/distributor"
	"ubiqos/internal/experiments"
	"ubiqos/internal/graph"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
	"ubiqos/internal/wire"
	"ubiqos/internal/workload"
)

// --- Table 1: algorithm comparison -----------------------------------------

// BenchmarkTable1 regenerates Table 1 (random vs heuristic vs optimal) at
// reduced graph count per iteration and reports the two table columns for
// the heuristic as custom metrics.
func BenchmarkTable1(b *testing.B) {
	cfg := experiments.DefaultTable1Config()
	cfg.Graphs = 30
	var last *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(2002 + i)
		r, err := experiments.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	ours := last.Rows[1]
	random := last.Rows[0]
	b.ReportMetric(ours.AvgRatio*100, "ours-avg-%")
	b.ReportMetric(ours.OptimalPct, "ours-optimal-%")
	b.ReportMetric(random.AvgRatio*100, "random-avg-%")
}

// --- Figure 5: success-rate simulation --------------------------------------

// BenchmarkFig5 regenerates Figure 5 at reduced trace length per iteration
// and reports the three overall success rates.
func BenchmarkFig5(b *testing.B) {
	cfg := experiments.DefaultFig5Config()
	cfg.Requests = 400
	cfg.HorizonHours = 80
	var last *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(2002 + i)
		r, err := experiments.RunFig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Series[0].Overall, "heuristic-rate")
	b.ReportMetric(last.Series[1].Overall, "random-rate")
	b.ReportMetric(last.Series[2].Overall, "fixed-rate")
}

// --- Figures 3 and 4: prototype scenario ------------------------------------

// BenchmarkFig3 runs the four-event prototype scenario per iteration and
// reports the measured end-to-end QoS (Figure 3's observable).
func BenchmarkFig3(b *testing.B) {
	cfg := experiments.Fig34Config{Scale: 0.1, PlayModeled: 2 * time.Second}
	var last *experiments.Fig34Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig34(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Events[0].MeasuredQoS["audio"], "e1-audio-fps")
	b.ReportMetric(last.Events[3].MeasuredQoS["video"], "e4-video-fps")
	b.ReportMetric(last.Events[3].MeasuredQoS["audio"], "e4-audio-fps")
}

// BenchmarkFig4 runs the same scenario and reports the overhead breakdown
// (Figure 4's observable): downloading dominance and the handoff asymmetry.
func BenchmarkFig4(b *testing.B) {
	cfg := experiments.Fig34Config{Scale: 0.1, PlayModeled: 2 * time.Second}
	var last *experiments.Fig34Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig34(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	toMs := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	b.ReportMetric(toMs(last.Events[1].Timing.InitOrHandoff), "e2-pc2pda-ms")
	b.ReportMetric(toMs(last.Events[2].Timing.InitOrHandoff), "e3-pda2pc-ms")
	b.ReportMetric(toMs(last.Events[3].Timing.Downloading), "e4-download-ms")
}

// --- Core algorithm micro-benchmarks ----------------------------------------

// table1Problems pre-draws feasible Table-1-sized problems.
func table1Problems(b *testing.B, n int) []*distributor.Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(99))
	devices := []distributor.DeviceInfo{
		{ID: "pc", Avail: resource.MB(256, 300)},
		{ID: "pda", Avail: resource.MB(32, 100)},
	}
	bw := func(a, c device.ID) float64 { return 100 }
	out := make([]*distributor.Problem, 0, n)
	for len(out) < n {
		g := workload.MustRandomGraph(rng, workload.Table1Params())
		p := &distributor.Problem{
			Graph:     g,
			Devices:   devices,
			Bandwidth: bw,
			Weights:   workload.RandomWeights(rng, resource.Dims),
		}
		if _, _, err := distributor.Heuristic(p); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// BenchmarkHeuristic measures the paper's greedy distribution algorithm on
// Table-1-sized graphs (10-20 components, 2 devices).
func BenchmarkHeuristic(b *testing.B) {
	probs := table1Problems(b, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := distributor.Heuristic(probs[i%len(probs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimal measures the branch-and-bound exact solver on the same
// instances — the exponential baseline the heuristic replaces.
func BenchmarkOptimal(b *testing.B) {
	probs := table1Problems(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := distributor.Optimal(probs[i%len(probs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeuristicLarge measures the heuristic on Figure-5-sized graphs
// (50-100 components, 3 devices) — the admission-control hot path of the
// success-rate simulation.
func BenchmarkHeuristicLarge(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	devices := []distributor.DeviceInfo{
		{ID: "desktop", Avail: resource.MB(256, 300)},
		{ID: "laptop", Avail: resource.MB(128, 100)},
		{ID: "pda", Avail: resource.MB(32, 50)},
	}
	w, err := resource.NewWeights(0.3, 0.3, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	var probs []*distributor.Problem
	for len(probs) < 8 {
		g := workload.MustRandomGraph(rng, workload.Fig5Params())
		probs = append(probs, &distributor.Problem{
			Graph:     g,
			Devices:   devices,
			Bandwidth: func(a, c device.ID) float64 { return 1000 },
			Weights:   w,
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := distributor.Heuristic(probs[i%len(probs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAbstractGraphDecode measures decoding the abstract graphs of
// the same Figure-5 size off the wire — what every `start` request pays
// before composition, duplicate-edge check included.
func BenchmarkAbstractGraphDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var encoded [][]byte
	for len(encoded) < 8 {
		g := workload.MustRandomGraph(rng, workload.Fig5Params())
		ag := composer.NewAbstractGraph()
		for _, n := range g.Nodes() {
			ag.MustAddNode(&composer.AbstractNode{ID: n.ID, Spec: registry.Spec{Type: n.Type}})
		}
		for _, e := range g.Edges() {
			ag.MustAddEdge(e.From, e.To, e.ThroughputMbps)
		}
		data, err := json.Marshal(ag)
		if err != nil {
			b.Fatal(err)
		}
		encoded = append(encoded, data)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ag composer.AbstractGraph
		if err := json.Unmarshal(encoded[i%len(encoded)], &ag); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAbstractGraphBuild measures building the abstract graphs of the
// same Figure-5 size through AddNode and AddEdge — what a generator or an
// application spec pays per graph, duplicate-edge check included.
func BenchmarkAbstractGraphBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var graphs []*graph.Graph
	for len(graphs) < 8 {
		graphs = append(graphs, workload.MustRandomGraph(rng, workload.Fig5Params()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := graphs[i%len(graphs)]
		ag := composer.NewAbstractGraph()
		for _, n := range g.Nodes() {
			ag.MustAddNode(&composer.AbstractNode{ID: n.ID, Spec: registry.Spec{Type: n.Type}})
		}
		for _, e := range g.Edges() {
			ag.MustAddEdge(e.From, e.To, e.ThroughputMbps)
		}
	}
}

// BenchmarkCostAggregation measures the Definition-3.5 objective.
func BenchmarkCostAggregation(b *testing.B) {
	probs := table1Problems(b, 4)
	assigns := make([]distributor.Assignment, len(probs))
	for i, p := range probs {
		a, _, err := distributor.Heuristic(p)
		if err != nil {
			b.Fatal(err)
		}
		assigns[i] = a
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = probs[i%len(probs)].CostAggregation(assigns[i%len(assigns)])
	}
}

// BenchmarkFitInto measures the Definition-3.4 feasibility check.
func BenchmarkFitInto(b *testing.B) {
	probs := table1Problems(b, 4)
	assigns := make([]distributor.Assignment, len(probs))
	for i, p := range probs {
		a, _, err := distributor.Heuristic(p)
		if err != nil {
			b.Fatal(err)
		}
		assigns[i] = a
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := probs[i%len(probs)].FitInto(assigns[i%len(assigns)]); err != nil {
			b.Fatal(err)
		}
	}
}

// composeFixture builds a registry and abstract app exercising the OC
// algorithm's correction paths (adjustment + transcoder insertion).
func composeFixture() (*composer.Composer, composer.Request) {
	reg := registry.New()
	reg.MustRegister(&registry.Instance{
		Name:          "server",
		Type:          "audio-server",
		Output:        qos.V(qos.P(qos.DimFormat, qos.Symbol("MPEG")), qos.P(qos.DimFrameRate, qos.Scalar(48))),
		OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(5, 60))),
		Adjustable:    map[string]bool{qos.DimFrameRate: true},
		Resources:     resource.MB(64, 50),
	})
	reg.MustRegister(&registry.Instance{
		Name:      "player",
		Type:      "audio-player",
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol("WAV")), qos.P(qos.DimFrameRate, qos.Range(10, 44))),
		Resources: resource.MB(8, 10),
	})
	reg.MustRegister(&registry.Instance{
		Name:        "tc",
		Type:        composer.TypeTranscoder,
		Attrs:       map[string]string{"from": "MPEG", "to": "WAV"},
		Input:       qos.V(qos.P(qos.DimFormat, qos.Symbol("MPEG"))),
		Output:      qos.V(qos.P(qos.DimFormat, qos.Symbol("WAV"))),
		PassThrough: map[string]bool{qos.DimFrameRate: true},
		Resources:   resource.MB(12, 25),
	})
	app := composer.NewAbstractGraph()
	app.MustAddNode(&composer.AbstractNode{ID: "s", Spec: registry.Spec{Type: "audio-server"}})
	app.MustAddNode(&composer.AbstractNode{ID: "p", Spec: registry.Spec{Type: "audio-player"}})
	app.MustAddEdge("s", "p", 1.5)
	return composer.New(reg), composer.Request{
		App:     app,
		UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44))),
	}
}

// BenchmarkCompose measures the full composition tier including the
// Ordered Coordination algorithm with a transcoder insertion and a rate
// adjustment cascade.
func BenchmarkCompose(b *testing.B) {
	c, req := composeFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Compose(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSatisfy measures the inter-component "satisfy" relation check.
func BenchmarkSatisfy(b *testing.B) {
	out := qos.V(
		qos.P(qos.DimFormat, qos.Symbol("MPEG")),
		qos.P(qos.DimFrameRate, qos.Scalar(40)),
		qos.P(qos.DimResolution, qos.Scalar(1600)),
	)
	in := qos.V(
		qos.P(qos.DimFormat, qos.Symbol("MPEG")),
		qos.P(qos.DimFrameRate, qos.Range(10, 50)),
		qos.P(qos.DimResolution, qos.Range(640, 1920)),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !qos.Satisfies(out, in) {
			b.Fatal("unexpected mismatch")
		}
	}
}

// --- Design-choice ablations (DESIGN.md §7) ----------------------------------

// BenchmarkAblationFirstFit replaces the heuristic's
// largest-requirement-neighbor selection with first-fit placement. Two
// metrics tell the whole story: on instances where both fit, first-fit
// often yields a cheaper cut (it packs everything onto the big device and
// cuts nothing), but its fit rate collapses on tight instances — exactly
// the dynamic-distribution advantage Figure 5 measures. Problems here are
// drawn fresh (not pre-filtered for feasibility).
func BenchmarkAblationFirstFit(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	devices := []distributor.DeviceInfo{
		{ID: "pc", Avail: resource.MB(256, 300)},
		{ID: "pda", Avail: resource.MB(32, 100)},
	}
	params := workload.Table1Params()
	// Tighter instances than Table 1's, where balancing matters.
	params.MemMB, params.CPUPct = 24, 36
	var ratioSum float64
	var both, heuOK, ffOK, total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := workload.MustRandomGraph(rng, params)
		p := &distributor.Problem{
			Graph:     g,
			Devices:   devices,
			Bandwidth: func(a, c device.ID) float64 { return 100 },
			Weights:   workload.RandomWeights(rng, resource.Dims),
		}
		total++
		_, heuCost, heuErr := distributor.Heuristic(p)
		if heuErr == nil {
			heuOK++
		}
		_, ffCost, ffErr := distributor.FirstFit(p)
		if ffErr == nil {
			ffOK++
		}
		if heuErr == nil && ffErr == nil {
			ratioSum += heuCost / ffCost
			both++
		}
	}
	if total > 0 {
		b.ReportMetric(float64(heuOK)/float64(total), "heu-fit-rate")
		b.ReportMetric(float64(ffOK)/float64(total), "ff-fit-rate")
	}
	if both > 0 {
		b.ReportMetric(ratioSum/float64(both), "heu/ff-cost-ratio")
	}
}

// BenchmarkAblationWeights compares critical-resource weighting (the
// paper's recommendation: weight scarce resources higher) against uniform
// weights, reporting the mean heuristic cost under each on the same
// instances. The absolute costs differ by construction; the metric of
// interest is feasibility preservation, reported as fit rates.
func BenchmarkAblationWeights(b *testing.B) {
	rng := rand.New(rand.NewSource(123))
	devices := []distributor.DeviceInfo{
		{ID: "pc", Avail: resource.MB(256, 300)},
		{ID: "pda", Avail: resource.MB(32, 100)},
	}
	critical, err := resource.NewWeights(0.5, 0.3, 0.2) // memory is scarcest
	if err != nil {
		b.Fatal(err)
	}
	uniform := resource.UniformWeights(resource.Dims)
	var critOK, uniOK, total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := workload.MustRandomGraph(rng, workload.Table1Params())
		mk := func(w resource.Weights) *distributor.Problem {
			return &distributor.Problem{
				Graph:     g,
				Devices:   devices,
				Bandwidth: func(a, c device.ID) float64 { return 100 },
				Weights:   w,
			}
		}
		total++
		if _, _, err := distributor.Heuristic(mk(critical)); err == nil {
			critOK++
		}
		if _, _, err := distributor.Heuristic(mk(uniform)); err == nil {
			uniOK++
		}
	}
	if total > 0 {
		b.ReportMetric(float64(critOK)/float64(total), "critical-fit-rate")
		b.ReportMetric(float64(uniOK)/float64(total), "uniform-fit-rate")
	}
}

// BenchmarkRandomAdmit measures the feasibility-biased random baseline.
func BenchmarkRandomAdmit(b *testing.B) {
	probs := table1Problems(b, 8)
	rng := rand.New(rand.NewSource(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Failures are part of the baseline's behaviour; ignore them.
		_, _, _ = distributor.RandomAdmit(probs[i%len(probs)], rng)
	}
}

// BenchmarkAblationRefine quantifies how much of the heuristic-to-optimal
// gap the local-search refinement recovers on the Table 1 workload: it
// reports the mean CA ratios optimal/heuristic and optimal/refined
// (higher is closer to optimal).
func BenchmarkAblationRefine(b *testing.B) {
	probs := table1Problems(b, 32)
	var heuSum, refSum float64
	var count int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := probs[i%len(probs)]
		opt, optCost, err := distributor.Optimal(p)
		if err != nil {
			continue
		}
		_ = opt
		a, heuCost, err := distributor.Heuristic(p)
		if err != nil {
			continue
		}
		_, refCost, err := distributor.Refine(p, a, 0)
		if err != nil {
			continue
		}
		heuSum += optCost / heuCost
		refSum += optCost / refCost
		count++
	}
	if count > 0 {
		b.ReportMetric(heuSum/float64(count), "opt/heu-ratio")
		b.ReportMetric(refSum/float64(count), "opt/refined-ratio")
	}
}

// BenchmarkAblationOCOrder compares the paper's reverse-topological
// consistency-check order against a forward walk on randomized pipelines
// with pass-through filters: the metric is the composition success rate
// under each order (the reverse order is load-bearing for cascading
// corrections).
func BenchmarkAblationOCOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	type fixture struct {
		fwd, rev *composer.Composer
		req      composer.Request
	}
	mk := func() fixture {
		reg := registry.New()
		reg.MustRegister(&registry.Instance{
			Name:          "src",
			Type:          "src",
			Output:        qos.V(qos.P(qos.DimFormat, qos.Symbol("X")), qos.P(qos.DimFrameRate, qos.Scalar(float64(30+rng.Intn(40))))),
			OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(1, 80))),
			Adjustable:    map[string]bool{qos.DimFrameRate: true},
			Resources:     resource.MB(1, 1),
		})
		chainLen := 1 + rng.Intn(3)
		ag := composer.NewAbstractGraph()
		ag.MustAddNode(&composer.AbstractNode{ID: "n0", Spec: registry.Spec{Type: "src"}})
		for i := 1; i <= chainLen; i++ {
			typ := "f" + string(rune('0'+i))
			reg.MustRegister(&registry.Instance{
				Name:          typ,
				Type:          typ,
				Input:         qos.V(qos.P(qos.DimFormat, qos.Symbol("X")), qos.P(qos.DimFrameRate, qos.Range(1, 80))),
				Output:        qos.V(qos.P(qos.DimFormat, qos.Symbol("X")), qos.P(qos.DimFrameRate, qos.Scalar(float64(30+rng.Intn(40))))),
				OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(1, 80))),
				Adjustable:    map[string]bool{qos.DimFrameRate: true},
				PassThrough:   map[string]bool{qos.DimFrameRate: true},
				Resources:     resource.MB(1, 1),
			})
			id := "n" + string(rune('0'+i))
			ag.MustAddNode(&composer.AbstractNode{ID: graphNodeID(id), Spec: registry.Spec{Type: typ}})
			ag.MustAddEdge(graphNodeID("n"+string(rune('0'+i-1))), graphNodeID(id), 1)
		}
		reg.MustRegister(&registry.Instance{
			Name:      "sink",
			Type:      "sink",
			Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol("X")), qos.P(qos.DimFrameRate, qos.Range(float64(5+rng.Intn(10)), float64(20+rng.Intn(15))))),
			Resources: resource.MB(1, 1),
		})
		ag.MustAddNode(&composer.AbstractNode{ID: "sink", Spec: registry.Spec{Type: "sink"}})
		ag.MustAddEdge(graphNodeID("n"+string(rune('0'+chainLen))), "sink", 1)

		fwd := composer.New(reg)
		fwd.SetCheckOrder(composer.OrderForwardTopological)
		rev := composer.New(reg)
		return fixture{fwd: fwd, rev: rev, req: composer.Request{App: ag}}
	}
	var fwdOK, revOK, total int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := mk()
		total++
		if _, _, err := f.rev.Compose(f.req); err == nil {
			revOK++
		}
		if _, _, err := f.fwd.Compose(f.req); err == nil {
			fwdOK++
		}
	}
	if total > 0 {
		b.ReportMetric(float64(revOK)/float64(total), "reverse-success")
		b.ReportMetric(float64(fwdOK)/float64(total), "forward-success")
	}
}

// graphNodeID is a tiny readability alias for bench fixtures.
func graphNodeID(s string) graph.NodeID { return graph.NodeID(s) }

// --- Parallel experiment harness ---------------------------------------------

// BenchmarkTable1Parallel measures the fanned-out Table 1 harness (one
// worker per service graph, sub-seeded random streams) against the serial
// harness and reports the observed speedup as a custom metric
// ("speedup-x", sequential-ns / parallel-ns); the tables produced are
// byte-identical either way.
func BenchmarkTable1Parallel(b *testing.B) {
	cfg := experiments.DefaultTable1Config()
	cfg.Graphs = 30
	cfg.Workers = 0
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable1(cfg); err != nil {
			b.Fatal(err)
		}
	}
	parNs := float64(time.Since(start).Nanoseconds()) / float64(b.N)
	b.StopTimer()
	cfg.Workers = 1
	seqStart := time.Now()
	if _, err := experiments.RunTable1(cfg); err != nil {
		b.Fatal(err)
	}
	seqNs := float64(time.Since(seqStart).Nanoseconds())
	b.ReportMetric(seqNs/parNs, "speedup-x")
	b.ReportMetric(float64(runtime.NumCPU()), "cpus")
}

// BenchmarkWireRoundTrip measures one request/response over a real TCP
// loopback connection — the protocol cost of the daemon path.
func BenchmarkWireRoundTrip(b *testing.B) {
	dom, err := experiments.BuildAudioSpace(0.05)
	if err != nil {
		b.Fatal(err)
	}
	defer dom.Close()
	srv, err := wire.NewServer(dom)
	if err != nil {
		b.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := wire.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Call(wire.Request{Op: wire.OpListDevices}); err != nil {
			b.Fatal(err)
		}
	}
}
