package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[199-i] = float64(i + 1) // 200..1, unsorted on purpose
	}
	for _, c := range []struct {
		q    float64
		want float64
		ok   bool
	}{
		{0.50, 100, true},
		{0.90, 180, true},
		{0.95, 190, true},  // exactly ten samples beyond
		{0.96, 192, false}, // eight beyond
		{0.99, 198, false},
	} {
		got, ok := percentile(samples, c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..200, %v) = %v, %v; want %v, %v", c.q, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(samples[:19], 0.5); ok {
		t.Error("median of 19 samples has nine beyond it and must not be reported")
	}
	if _, ok := percentile(samples[:20], 0.5); !ok {
		t.Error("median of 20 samples has ten beyond it and must be reported")
	}
	if v, ok := percentile(nil, 0.5); v != 0 || ok {
		t.Errorf("percentile of nothing = %v, %v", v, ok)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if s := spread([]float64{9, 10, 12}); s != 0.3 {
		t.Errorf("spread = %v, want (12-9)/10", s)
	}
	if s := spread([]float64{5}); s != 0 {
		t.Errorf("spread of one value = %v", s)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, Name: "p", Start: 100, End: 200}
	children := []span{
		{ID: 2, Parent: 1, Start: 110, End: 130},
		{ID: 3, Parent: 1, Start: 120, End: 150}, // overlaps the first
		{ID: 4, Parent: 1, Start: 125, End: 128}, // inside both
		{ID: 5, Parent: 1, Start: 190, End: 250}, // sticks out of the parent
		{ID: 6, Parent: 1, Start: 10, End: 90},   // wholly outside
	}
	// Covered: [110,150] and [190,200] = 50 of 100.
	if got := selfTime(parent, children); got != 50*time.Nanosecond {
		t.Errorf("selfTime = %v, want 50ns", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Nanosecond {
		t.Errorf("selfTime without children = %v, want 100ns", got)
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var r *recorder
	if id := r.add("x", time.Now(), time.Now(), 0, ""); id != 0 {
		t.Errorf("nil recorder returned span %d", id)
	}
	r.close(r.open("x", 0, ""), time.Now(), time.Now())
	if n := len(r.snapshot()); n != 0 {
		t.Errorf("nil recorder holds %d spans", n)
	}
}

// Generators are pure functions of the seed: byte-identical for one seed,
// different for two.
func TestGeneratorsRepeatOnASeed(t *testing.T) {
	encode := func(wl *workloadDef, seed int64) string {
		reqs := wl.generate(seed, 40)
		var all []any
		for _, r := range reqs {
			all = append(all, r.wire, r.hold, r.expect)
		}
		b, err := json.Marshal(all)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		return string(b)
	}
	for _, wl := range workloads {
		a, b, c := encode(wl, 7), encode(wl, 7), encode(wl, 8)
		if a != b {
			t.Errorf("%s: two generations from seed 7 differ", wl.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generate the same requests", wl.name)
		}
	}
}

// BENCHMARK.json and the metric tables in metrics.go say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonDef struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jsonDef                    `json:"end_to_end"`
		PerLayer  []jsonDef                    `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name || spec.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, wl.name, wl.why)
		}
	}
	compare := func(kind string, got []jsonDef, want []metricDef) {
		want = listed(want)
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better || g.Bound != m.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, m)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEndMetrics)
	compare("per_layer", spec.PerLayer, perLayerMetrics)
}

// The smoke run is the whole benchmark at tiny counts: four workloads,
// their rounds, both traced passes, the ladder and every check.
func TestSmokeEndToEnd(t *testing.T) {
	o := options{seed: 1, repeat: 1, smoke: true, traceOut: t.TempDir(), out: io.Discard}
	if err := runAll(o); err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		if fi, err := os.Stat(o.traceOut + "/" + wl.name + ".jsonl"); err != nil || fi.Size() == 0 {
			t.Errorf("%s: no spans written: %v", wl.name, err)
		}
	}
}
