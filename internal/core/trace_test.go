package core

import (
	"testing"

	"ubiqos/internal/distributor"
	"ubiqos/internal/qos"
	"ubiqos/internal/trace"
)

// childrenOf collects the names of a span's direct children, in creation
// order.
func childrenOf(td *trace.TraceData, parent int) []string {
	var out []string
	for _, sp := range td.Spans {
		if sp.Parent == parent {
			out = append(out, sp.Name)
		}
	}
	return out
}

// firstNamed returns the first exported span with the given name, or nil.
func firstNamed(td *trace.TraceData, name string) *trace.SpanData {
	for i := range td.Spans {
		if td.Spans[i].Name == name {
			return &td.Spans[i]
		}
	}
	return nil
}

// TestConfigureTrace drives one Configure with optimal placement
// against the fixture's PDA (forcing a transcoder correction) and asserts
// the full span tree of the acceptance criteria: compose → discover →
// OC-correction → distribute, with correction kinds and branch-and-bound
// counters.
func TestConfigureTrace(t *testing.T) {
	f := newFixture(t)
	f.cfg.Observer = &recorder{tracer: trace.NewTracer(8)}
	f.cfg.Place = distributor.Optimal
	c, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Configure(Request{
		SessionID:    "traced-1",
		App:          audioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(35, 44))),
		ClientDevice: "pda1",
	}); err != nil {
		t.Fatal(err)
	}
	defer c.Stop("traced-1")

	td := f.cfg.Observer.(*recorder).tracer.Find("traced-1")
	if td == nil {
		t.Fatal("no trace recorded for the session")
	}
	if td.Name != "configure" || td.Spans[0].Attrs["handoff"] != false {
		t.Errorf("root = %+v", td.Spans[0])
	}
	if cost, ok := td.Spans[0].Attrs["cost"].(float64); !ok || cost <= 0 {
		t.Errorf("root attrs = %v", td.Spans[0].Attrs)
	}

	// The stages hang straight off the root: one run per configure.
	stages := childrenOf(td, td.Spans[0].ID)
	want := []string{"compose", "distribute", "admit", "download", "deploy"}
	if len(stages) != len(want) {
		t.Fatalf("stages = %v, want %v:\n%s", stages, want, td.Render())
	}
	for i, name := range want {
		if stages[i] != name {
			t.Fatalf("stage[%d] = %s, want %s", i, stages[i], name)
		}
	}

	// Composition: discovery attempts and the transcoder correction.
	compose := firstNamed(td, "compose")
	if compose.Attrs["transcoders"] != int64(1) {
		t.Errorf("compose attrs = %v", compose.Attrs)
	}
	discover := firstNamed(td, "discover")
	if discover == nil || discover.Parent != compose.ID {
		t.Fatalf("discover span missing or misparented:\n%s", td.Render())
	}
	correction := firstNamed(td, "correction")
	if correction == nil || correction.Attrs["kind"] != "transcoder" {
		t.Fatalf("correction span = %+v:\n%s", correction, td.Render())
	}

	// Distribution: the branch-and-bound counters.
	dist := firstNamed(td, "distribute")
	if dist.Attrs["algorithm"] != "optimal" {
		t.Errorf("distribute attrs = %v", dist.Attrs)
	}
	explored, ok := dist.Attrs["explored"].(int64)
	if !ok || explored == 0 {
		t.Errorf("distribute explored = %v", dist.Attrs["explored"])
	}
	if _, ok := dist.Attrs["pruned"].(int64); !ok {
		t.Errorf("distribute pruned = %v", dist.Attrs["pruned"])
	}
	if solver := firstNamed(td, "branch-and-bound"); solver == nil || solver.Parent != dist.ID {
		t.Errorf("solver span missing or misparented:\n%s", td.Render())
	}
}

// TestConfigureTraceFailure: a failed configuration still produces a
// finished trace with the error on the root span.
func TestConfigureTraceFailure(t *testing.T) {
	f := newFixture(t)
	f.cfg.Observer = &recorder{tracer: trace.NewTracer(8)}
	c, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Configure(Request{
		SessionID:    "doomed-1",
		App:          audioApp(),
		ClientDevice: "ghost",
	}); err == nil {
		t.Fatal("configure on unknown portal should fail")
	}
	td := f.cfg.Observer.(*recorder).tracer.Find("doomed-1")
	if td == nil {
		t.Fatal("failed configure must still record a trace")
	}
	if _, ok := td.Spans[0].Attrs["error"]; !ok {
		t.Errorf("root must carry the error: %v", td.Spans[0].Attrs)
	}
}

// TestConfigureUntraced: an observer that opens no trace stays a no-op
// end to end.
func TestConfigureUntraced(t *testing.T) {
	f := newFixture(t)
	obs := &recorder{}
	f.cfg.Observer = obs
	c, err := New(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Configure(Request{
		SessionID:    "plain-1",
		App:          audioApp(),
		ClientDevice: "desktop1",
	}); err != nil {
		t.Fatal(err)
	}
	defer c.Stop("plain-1")
	if fin := obs.lastFinished(); fin.traced || fin.err != "" {
		t.Errorf("finished record %+v, want an untraced success", fin)
	}
}
