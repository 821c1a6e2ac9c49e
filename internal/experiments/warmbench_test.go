package experiments

import "testing"

// TestWarmBenchSmall runs the crash re-solve comparison at the paper's
// native scale: the warm re-solve must reuse most of the incumbent and
// never explore more nodes than the cold re-solve.
func TestWarmBenchSmall(t *testing.T) {
	cfg := DefaultWarmBenchConfig()
	cfg.Trials = 4
	cfg.Scales = cfg.Scales[:1] // 1x only: keep the unit test fast
	res, err := RunWarmBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scales) != 1 {
		t.Fatalf("got %d scale results, want 1", len(res.Scales))
	}
	sr := res.Scales[0]
	if sr.Nodes.P50 < 10 || sr.Nodes.Max > 20 {
		t.Errorf("node counts %+v outside the Table 1 range", sr.Nodes)
	}
	if sr.ColdExplored.P95 <= 0 || sr.WarmExplored.P95 <= 0 {
		t.Fatalf("empty explored samples: cold %+v warm %+v", sr.ColdExplored, sr.WarmExplored)
	}
	if sr.WarmExplored.P95 > sr.ColdExplored.P95 {
		t.Errorf("warm explored p95 %v exceeds cold %v", sr.WarmExplored.P95, sr.ColdExplored.P95)
	}
	if sr.Reused.P50 <= 0 {
		t.Errorf("warm re-solve reused nothing: %+v", sr.Reused)
	}
	if sr.ExploredSpeedup < 1 {
		t.Errorf("explored speedup %v < 1", sr.ExploredSpeedup)
	}
}

// TestWarmBenchDefaultSpeedup runs the default drill (1x/10x/50x Table 1
// sizes) and pins its verdict: at 10x and 50x the warm re-solve explores
// at least 3x fewer nodes at p95 than the cold one. Explored counts are
// deterministic per seed, so this does not depend on the machine.
func TestWarmBenchDefaultSpeedup(t *testing.T) {
	res, err := RunWarmBench(DefaultWarmBenchConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scales) != 3 {
		t.Fatalf("got %d scale results, want 3", len(res.Scales))
	}
	for _, sr := range res.Scales {
		t.Logf("%s: cold p95 %.0f nodes, warm p95 %.0f nodes, speedup %.1fx",
			sr.Scale.Name, sr.ColdExplored.P95, sr.WarmExplored.P95, sr.ExploredSpeedup)
		if sr.Scale.Mult >= 10 && sr.ExploredSpeedup < 3 {
			t.Errorf("%s: explored-node speedup %.2fx, want >= 3x (cold p95 %.0f, warm p95 %.0f)",
				sr.Scale.Name, sr.ExploredSpeedup, sr.ColdExplored.P95, sr.WarmExplored.P95)
		}
	}
}

// TestWarmBenchRejectsBadConfig: zero trials is an error, not a panic.
func TestWarmBenchRejectsBadConfig(t *testing.T) {
	cfg := DefaultWarmBenchConfig()
	cfg.Trials = 0
	if _, err := RunWarmBench(cfg); err == nil {
		t.Fatal("want error for zero trials")
	}
}
