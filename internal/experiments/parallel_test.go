package experiments

import (
	"runtime"
	"testing"
)

// TestSubSeedInjective spot-checks that neighboring harness seeds and job
// indices produce distinct sub-seeds.
func TestSubSeedInjective(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(2002); seed < 2005; seed++ {
		for i := 0; i < 1000; i++ {
			s := SubSeed(seed, i)
			if seen[s] {
				t.Fatalf("collision at seed %d index %d", seed, i)
			}
			seen[s] = true
		}
	}
}

// TestTable1WorkerCountInvariant is the acceptance contract for the
// parallel Table 1 harness: worker counts 1, 4, and NumCPU produce a
// byte-identical table (and identical diagnostics), because each graph
// index owns a sub-seeded random stream and aggregation runs in graph
// order.
func TestTable1WorkerCountInvariant(t *testing.T) {
	cfg := DefaultTable1Config()
	cfg.Graphs = 25
	cfg.Extended = true

	var wantText string
	var wantGenerated int
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		cfg.Workers = workers
		r, err := RunTable1(cfg)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		text := FormatTable1(cfg, r)
		if wantText == "" {
			wantText, wantGenerated = text, r.Generated
			continue
		}
		if text != wantText {
			t.Errorf("workers %d table differs from serial run:\n%s\nwant:\n%s", workers, text, wantText)
		}
		if r.Generated != wantGenerated {
			t.Errorf("workers %d generated %d graphs, serial run generated %d", workers, r.Generated, wantGenerated)
		}
	}
}

// TestFig5WorkerCountInvariant is the same contract for Figure 5: the
// three policy replays run concurrently but each owns its smart-space
// state and random stream, so the figure is byte-identical for worker
// counts 1, 4, and NumCPU.
func TestFig5WorkerCountInvariant(t *testing.T) {
	cfg := DefaultFig5Config()
	cfg.Requests = 250
	cfg.HorizonHours = 60

	var want string
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		cfg.Workers = workers
		r, err := RunFig5(cfg)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		text := FormatFig5(r)
		if want == "" {
			want = text
			continue
		}
		if text != want {
			t.Errorf("workers %d figure differs from serial run:\n%s\nwant:\n%s", workers, text, want)
		}
	}
}

// TestFig5SeedsWorkerCountInvariant covers the seed-level fan-out of the
// robustness sweep.
func TestFig5SeedsWorkerCountInvariant(t *testing.T) {
	cfg := DefaultFig5Config()
	cfg.Requests = 150
	cfg.HorizonHours = 50

	var want []Fig5SeedSummary
	for _, workers := range []int{1, 3} {
		cfg.Workers = workers
		sums, err := RunFig5Seeds(cfg, 3)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if want == nil {
			want = sums
			continue
		}
		if len(sums) != len(want) {
			t.Fatalf("workers %d: %d summaries, want %d", workers, len(sums), len(want))
		}
		for i := range sums {
			if sums[i] != want[i] {
				t.Errorf("workers %d summary %d = %+v, want %+v", workers, i, sums[i], want[i])
			}
		}
	}
}
