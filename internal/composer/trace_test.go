package composer

import (
	"testing"

	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
	"ubiqos/internal/trace"
)

// spansNamed collects the exported spans with the given name.
func spansNamed(td *trace.TraceData, name string) []trace.SpanData {
	var out []trace.SpanData
	for _, sp := range td.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

// TestComposeTraceSpans: discovery attempts and OC corrections show up as
// spans, and the report's discovery counters match.
func TestComposeTraceSpans(t *testing.T) {
	tc := trace.NewTracer(4)
	tr := tc.Start("compose-test", "s1")
	c := New(newTestRegistry())
	// The PDA handoff scenario forces a transcoder correction.
	_, rep, err := c.Compose(Request{
		App:     audioApp(map[string]string{"platform": "pda"}),
		UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(35, 44))),
		Span:    tr.Root(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	td := tc.Latest()

	discovers := spansNamed(td, "discover")
	if len(discovers) != 2 {
		t.Fatalf("discover spans = %d, want 2:\n%s", len(discovers), td.Render())
	}
	for _, d := range discovers {
		if d.Attrs["outcome"] != "found" || d.Attrs["depth"] != int64(0) {
			t.Errorf("discover span attrs = %v", d.Attrs)
		}
	}
	if rep.DiscoveryAttempts != 2 || rep.DiscoveryFailures != 0 {
		t.Errorf("discovery counters = %d/%d", rep.DiscoveryAttempts, rep.DiscoveryFailures)
	}

	ocs := spansNamed(td, "ordered-coordination")
	if len(ocs) != 1 {
		t.Fatalf("ordered-coordination spans = %d:\n%s", len(ocs), td.Render())
	}
	if ocs[0].Attrs["transcoders"] != int64(1) {
		t.Errorf("oc span attrs = %v", ocs[0].Attrs)
	}
	corrections := spansNamed(td, "correction")
	if len(corrections) != 1 || corrections[0].Attrs["kind"] != "transcoder" {
		t.Fatalf("correction spans = %+v", corrections)
	}
	if corrections[0].Parent != ocs[0].ID {
		t.Error("correction must nest under ordered-coordination")
	}
}

// TestComposeTraceRecursionDepth: a recursive re-composition's discovery
// spans nest under the triggering node's discover span with depth 1.
func TestComposeTraceRecursionDepth(t *testing.T) {
	r := registry.New()
	r.MustRegister(&registry.Instance{
		Name:      "cam-1",
		Type:      "camera",
		Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol("RAW"))),
		Resources: resource.MB(1, 1),
	})
	r.MustRegister(&registry.Instance{
		Name:      "encoder-1",
		Type:      "encoder",
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol("RAW"))),
		Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3))),
		Resources: resource.MB(1, 1),
	})
	r.MustRegister(&registry.Instance{
		Name:      "player-1",
		Type:      "audio-player",
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3))),
		Resources: resource.MB(1, 1),
	})
	c := New(r)
	// "capture-encode" has no instance; it decomposes into camera -> encoder.
	sub := NewAbstractGraph()
	sub.MustAddNode(&AbstractNode{ID: "cam", Spec: registry.Spec{Type: "camera"}})
	sub.MustAddNode(&AbstractNode{ID: "enc", Spec: registry.Spec{Type: "encoder"}})
	sub.MustAddEdge("cam", "enc", 2)
	if err := c.RegisterDecomposition("capture-encode", sub); err != nil {
		t.Fatal(err)
	}
	ag := NewAbstractGraph()
	ag.MustAddNode(&AbstractNode{ID: "src", Spec: registry.Spec{Type: "capture-encode"}})
	ag.MustAddNode(&AbstractNode{ID: "player", Spec: registry.Spec{Type: "audio-player"}})
	ag.MustAddEdge("src", "player", 1)

	tc := trace.NewTracer(4)
	tr := tc.Start("compose-test", "s2")
	_, rep, err := c.Compose(Request{App: ag, Span: tr.Root()})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	td := tc.Latest()

	discovers := spansNamed(td, "discover")
	if len(discovers) != 4 { // src (recompose), cam, enc, player
		t.Fatalf("discover spans = %d, want 4:\n%s", len(discovers), td.Render())
	}
	var recompose *trace.SpanData
	depth1 := 0
	for i := range discovers {
		d := &discovers[i]
		if d.Attrs["outcome"] == "recompose" {
			recompose = d
		}
		if d.Attrs["depth"] == int64(1) {
			depth1++
		}
	}
	if recompose == nil || depth1 != 2 {
		t.Fatalf("recompose span %v, depth-1 spans %d:\n%s", recompose, depth1, td.Render())
	}
	for _, d := range discovers {
		if d.Attrs["depth"] == int64(1) && d.Parent != recompose.ID {
			t.Errorf("depth-1 discover %v must nest under the recompose span", d.Attrs["node"])
		}
	}
	if rep.DiscoveryAttempts != 4 || rep.DiscoveryFailures != 1 {
		t.Errorf("discovery counters = %d/%d, want 4/1", rep.DiscoveryAttempts, rep.DiscoveryFailures)
	}
}
