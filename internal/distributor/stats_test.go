package distributor

import (
	"math/rand"
	"testing"

	"ubiqos/internal/resource"
	"ubiqos/internal/trace"
)

// TestSearchStats checks that every solver fills Problem.Stats and emits
// solver spans, and that instrumentation output is present without
// affecting the solution.
func TestSearchStats(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	devices := []DeviceInfo{
		{ID: "pc", Avail: resource.MB(96, 160)},
		{ID: "pda", Avail: resource.MB(48, 90)},
	}
	p := randomTestProblem(rng, 10, devices, 40)

	// Sequential optimal.
	tc := trace.NewTracer(8)
	tr := tc.Start("solve", "s")
	p.Span = tr.Root()
	p.Stats = &SearchStats{}
	seqA, seqCost, err := Optimal(p)
	if err != nil {
		t.Skipf("instance infeasible: %v", err)
	}
	seq := *p.Stats
	if seq.Algorithm != "optimal" || seq.Warm {
		t.Errorf("sequential stats = %+v", seq)
	}
	if seq.Explored == 0 || seq.Incumbents == 0 {
		t.Errorf("sequential counters empty: %+v", seq)
	}
	tr.Finish()
	td := tc.Latest()
	if len(td.Spans) != 2 || td.Spans[1].Name != "branch-and-bound" {
		t.Fatalf("sequential spans = %+v", td.Spans)
	}
	if td.Spans[1].Attrs["explored"] != seq.Explored {
		t.Errorf("span explored = %v, stats %d", td.Spans[1].Attrs["explored"], seq.Explored)
	}

	// Warm optimal from that optimum: same cost, the warm span and stats.
	tr2 := tc.Start("solve", "s2")
	p.Span = tr2.Root()
	p.Stats = &SearchStats{}
	_, warmCost, err := OptimalWarm(p, incumbentOf(p, seqA, seqCost))
	if err != nil {
		t.Fatal(err)
	}
	if warmCost != seqCost {
		t.Fatalf("instrumentation changed the answer: %v != %v", warmCost, seqCost)
	}
	warm := *p.Stats
	if warm.Algorithm != "optimal-warm" || !warm.Warm || warm.Reused != 10 || warm.SeedCost != seqCost {
		t.Errorf("warm stats = %+v", warm)
	}
	if warm.Explored == 0 || warm.Incumbents == 0 {
		t.Errorf("warm counters empty: %+v", warm)
	}
	tr2.Finish()
	td2 := tc.Latest()
	if len(td2.Spans) != 2 || td2.Spans[1].Name != "branch-and-bound-warm" {
		t.Fatalf("warm spans = %+v", td2.Spans)
	}
	if td2.Spans[1].Attrs["explored"] != warm.Explored || td2.Spans[1].Attrs["reused"] != int64(10) {
		t.Errorf("warm span attrs = %v, stats %+v", td2.Spans[1].Attrs, warm)
	}

	// Heuristic.
	p.Span = nil
	p.Stats = &SearchStats{}
	if _, _, err := Heuristic(p); err != nil {
		t.Skipf("heuristic infeasible: %v", err)
	}
	h := *p.Stats
	if h.Algorithm != "heuristic" || h.Explored != 10 {
		t.Errorf("heuristic stats = %+v (want 10 placements)", h)
	}
}

// TestStatsNilSafe: solvers must run untraced with nil Span and Stats.
func TestStatsNilSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p := randomTestProblem(rng, 8, []DeviceInfo{
		{ID: "pc", Avail: resource.MB(96, 160)},
		{ID: "pda", Avail: resource.MB(48, 90)},
	}, 40)
	a, cost, err := Optimal(p)
	if err != nil {
		t.Skipf("infeasible: %v", err)
	}
	if _, _, err := OptimalWarm(p, incumbentOf(p, a, cost)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Heuristic(p); err != nil && err != ErrInfeasible {
		t.Fatal(err)
	}
}
