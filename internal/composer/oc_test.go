package composer

import (
	"fmt"
	"math/rand"
	"testing"

	"ubiqos/internal/graph"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
)

func TestOCCascadingAdjustmentThroughFilter(t *testing.T) {
	// server(adjustable rate) -> filter(pass-through rate, adjustable) ->
	// player([10,30]). Checking in reverse topological order first narrows
	// the filter's output to 30, which (pass-through) narrows the filter's
	// input requirement to 30, which then narrows the server's output.
	r := registry.New()
	r.MustRegister(&registry.Instance{
		Name:          "server",
		Type:          "server",
		Output:        qos.V(qos.P(qos.DimFormat, qos.Symbol("X")), qos.P(qos.DimFrameRate, qos.Scalar(50))),
		OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(5, 60))),
		Adjustable:    map[string]bool{qos.DimFrameRate: true},
		Resources:     resource.MB(1, 1),
	})
	r.MustRegister(&registry.Instance{
		Name:          "filter",
		Type:          "filter",
		Input:         qos.V(qos.P(qos.DimFormat, qos.Symbol("X")), qos.P(qos.DimFrameRate, qos.Range(5, 60))),
		Output:        qos.V(qos.P(qos.DimFormat, qos.Symbol("X")), qos.P(qos.DimFrameRate, qos.Scalar(50))),
		OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(5, 60))),
		Adjustable:    map[string]bool{qos.DimFrameRate: true},
		PassThrough:   map[string]bool{qos.DimFrameRate: true},
		Resources:     resource.MB(1, 1),
	})
	r.MustRegister(&registry.Instance{
		Name:      "player",
		Type:      "player",
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol("X")), qos.P(qos.DimFrameRate, qos.Range(10, 30))),
		Resources: resource.MB(1, 1),
	})
	ag := NewAbstractGraph()
	ag.MustAddNode(&AbstractNode{ID: "s", Spec: registry.Spec{Type: "server"}})
	ag.MustAddNode(&AbstractNode{ID: "f", Spec: registry.Spec{Type: "filter"}})
	ag.MustAddNode(&AbstractNode{ID: "p", Spec: registry.Spec{Type: "player"}})
	ag.MustAddEdge("s", "f", 2)
	ag.MustAddEdge("f", "p", 2)

	g, rep, err := New(r).Compose(Request{App: ag})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Adjustments) != 2 {
		t.Fatalf("adjustments = %+v, want cascade of 2", rep.Adjustments)
	}
	// The filter is adjusted first (reverse topo order), then the server.
	if rep.Adjustments[0].Node != "f" || rep.Adjustments[1].Node != "s" {
		t.Errorf("cascade order = %v,%v", rep.Adjustments[0].Node, rep.Adjustments[1].Node)
	}
	fOut, _ := g.Node("f").Out.Get(qos.DimFrameRate)
	sOut, _ := g.Node("s").Out.Get(qos.DimFrameRate)
	if !fOut.Equal(qos.Scalar(30)) || !sOut.Equal(qos.Scalar(30)) {
		t.Errorf("outputs after cascade: filter=%s server=%s, want both 30", fOut, sOut)
	}
	assertConsistent(t, g)
}

func TestOCAdjustmentRespectsAllSuccessors(t *testing.T) {
	// A server feeding two players with overlapping windows [10,30] and
	// [20,50]: the adjusted output must land in the intersection [20,30].
	r := registry.New()
	r.MustRegister(&registry.Instance{
		Name:          "server",
		Type:          "server",
		Output:        qos.V(qos.P(qos.DimFrameRate, qos.Scalar(60))),
		OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(1, 100))),
		Adjustable:    map[string]bool{qos.DimFrameRate: true},
		Resources:     resource.MB(1, 1),
	})
	r.MustRegister(&registry.Instance{
		Name:      "p1",
		Type:      "p1",
		Input:     qos.V(qos.P(qos.DimFrameRate, qos.Range(10, 30))),
		Resources: resource.MB(1, 1),
	})
	r.MustRegister(&registry.Instance{
		Name:      "p2",
		Type:      "p2",
		Input:     qos.V(qos.P(qos.DimFrameRate, qos.Range(20, 50))),
		Resources: resource.MB(1, 1),
	})
	ag := NewAbstractGraph()
	ag.MustAddNode(&AbstractNode{ID: "s", Spec: registry.Spec{Type: "server"}})
	ag.MustAddNode(&AbstractNode{ID: "a", Spec: registry.Spec{Type: "p1"}})
	ag.MustAddNode(&AbstractNode{ID: "b", Spec: registry.Spec{Type: "p2"}})
	ag.MustAddEdge("s", "a", 1)
	ag.MustAddEdge("s", "b", 1)

	g, _, err := New(r).Compose(Request{App: ag})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := g.Node("s").Out.Get(qos.DimFrameRate)
	if !out.ContainedIn(qos.Range(20, 30)) {
		t.Errorf("adjusted output %s must satisfy both successors", out)
	}
	assertConsistent(t, g)
}

func TestOCDisjointSuccessorsUncorrectable(t *testing.T) {
	// Two successors with disjoint windows cannot be served by adjusting a
	// single output; with no buffer registered the composition fails.
	r := registry.New()
	r.MustRegister(&registry.Instance{
		Name:          "server",
		Type:          "server",
		Output:        qos.V(qos.P(qos.DimFrameRate, qos.Scalar(60))),
		OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(1, 100))),
		Adjustable:    map[string]bool{qos.DimFrameRate: true},
		Resources:     resource.MB(1, 1),
	})
	r.MustRegister(&registry.Instance{
		Name:      "p1",
		Type:      "p1",
		Input:     qos.V(qos.P(qos.DimFrameRate, qos.Range(10, 20))),
		Resources: resource.MB(1, 1),
	})
	r.MustRegister(&registry.Instance{
		Name:      "p2",
		Type:      "p2",
		Input:     qos.V(qos.P(qos.DimFrameRate, qos.Range(40, 50))),
		Resources: resource.MB(1, 1),
	})
	ag := NewAbstractGraph()
	ag.MustAddNode(&AbstractNode{ID: "s", Spec: registry.Spec{Type: "server"}})
	ag.MustAddNode(&AbstractNode{ID: "a", Spec: registry.Spec{Type: "p1"}})
	ag.MustAddNode(&AbstractNode{ID: "b", Spec: registry.Spec{Type: "p2"}})
	ag.MustAddEdge("s", "a", 1)
	ag.MustAddEdge("s", "b", 1)
	if _, _, err := New(r).Compose(Request{App: ag}); err == nil {
		t.Error("disjoint successor windows without a buffer should fail")
	}
}

func TestOCDisjointSuccessorsSolvedByBuffer(t *testing.T) {
	// Same as above but with a buffer available: each player's edge that
	// the fixed 60 fps output overshoots gets its own pacing buffer (the
	// adjustment is refused because no single operating point satisfies
	// both windows), and the result is consistent.
	r := registry.New()
	r.MustRegister(&registry.Instance{
		Name:          "server",
		Type:          "server",
		Output:        qos.V(qos.P(qos.DimFrameRate, qos.Scalar(60))),
		OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(1, 100))),
		Adjustable:    map[string]bool{qos.DimFrameRate: true},
		Resources:     resource.MB(1, 1),
	})
	r.MustRegister(&registry.Instance{
		Name:      "p1",
		Type:      "p1",
		Input:     qos.V(qos.P(qos.DimFrameRate, qos.Range(10, 20))),
		Resources: resource.MB(1, 1),
	})
	r.MustRegister(&registry.Instance{
		Name:      "p2",
		Type:      "p2",
		Input:     qos.V(qos.P(qos.DimFrameRate, qos.Range(40, 50))),
		Resources: resource.MB(1, 1),
	})
	r.MustRegister(&registry.Instance{Name: "buffer-1", Type: TypeBuffer, Resources: resource.MB(1, 1)})
	ag := NewAbstractGraph()
	ag.MustAddNode(&AbstractNode{ID: "s", Spec: registry.Spec{Type: "server"}})
	ag.MustAddNode(&AbstractNode{ID: "a", Spec: registry.Spec{Type: "p1"}})
	ag.MustAddNode(&AbstractNode{ID: "b", Spec: registry.Spec{Type: "p2"}})
	ag.MustAddEdge("s", "a", 1)
	ag.MustAddEdge("s", "b", 1)

	g, rep, err := New(r).Compose(Request{App: ag})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Buffers) != 2 {
		t.Fatalf("buffers = %v, want one per overshot edge", rep.Buffers)
	}
	assertConsistent(t, g)
}

func TestOCTranscoderRateCascade(t *testing.T) {
	// Server emits MP3@48 (adjustable); the PDA player accepts WAV at
	// [10,44]. A transcoder fixes the format; the rate requirement passes
	// through the transcoder and the server adjusts down to 44.
	r := newTestRegistry()
	srv := r.Get("audio-server-1")
	srv2 := *srv
	srv2.Output = qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3)), qos.P(qos.DimFrameRate, qos.Scalar(48)))
	r.MustRegister(&srv2)

	g, rep, err := New(r).Compose(Request{App: audioApp(map[string]string{"platform": "pda"})})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Transcoders) != 1 {
		t.Fatalf("transcoders = %v", rep.Transcoders)
	}
	sOut, _ := g.Node("server").Out.Get(qos.DimFrameRate)
	if !sOut.ContainedIn(qos.Range(10, 44)) {
		t.Errorf("server rate %s must cascade to the player window [10,44]", sOut)
	}
	assertConsistent(t, g)
}

// TestOCTranscodesEveryInEdge: two MP3 servers feed one WAV player, so
// each of the player's in-edges needs its own transcoder. The splice on
// the first edge changes the player's in-list while it is being walked;
// the walk reads the list it started with and corrects the second edge
// too.
func TestOCTranscodesEveryInEdge(t *testing.T) {
	ag := NewAbstractGraph()
	ag.MustAddNode(&AbstractNode{ID: "music", Spec: registry.Spec{Type: "audio-server"}})
	ag.MustAddNode(&AbstractNode{ID: "voice", Spec: registry.Spec{Type: "audio-server"}})
	ag.MustAddNode(&AbstractNode{ID: "player", Spec: registry.Spec{Type: "audio-player", Attrs: map[string]string{"platform": "pda"}}})
	ag.MustAddEdge("music", "player", 1.5)
	ag.MustAddEdge("voice", "player", 0.5)
	g, rep, err := New(newTestRegistry()).Compose(Request{App: ag})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Transcoders) != 2 {
		t.Fatalf("transcoders = %v, want one on each in-edge", rep.Transcoders)
	}
	for _, e := range g.In("player") {
		if g.Node(e.From).Type != TypeTranscoder {
			t.Errorf("%s feeds the player directly", e.From)
		}
	}
	assertConsistent(t, g)
}

func TestOCPreservesSinkQoS(t *testing.T) {
	// The reverse-topological order means the sink's (user's) QoS is
	// preserved: with user demand [25,28], the server is adjusted into the
	// user window rather than the user requirement relaxed.
	c := New(newTestRegistry())
	g, rep, err := c.Compose(Request{
		App:     audioApp(map[string]string{"platform": "pc"}),
		UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(25, 28))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Adjustments) != 1 {
		t.Fatalf("adjustments = %+v", rep.Adjustments)
	}
	out, _ := g.Node("server").Out.Get(qos.DimFrameRate)
	if !out.ContainedIn(qos.Range(25, 28)) {
		t.Errorf("server output %s must land in the user window", out)
	}
	req, _ := g.Node("player").In.Get(qos.DimFrameRate)
	if !req.Equal(qos.Range(25, 28)) {
		t.Errorf("sink requirement %s must be preserved", req)
	}
}

func TestOCComplexityLinearChecks(t *testing.T) {
	// The OC algorithm performs O(V+E) checks: for a consistent linear
	// chain of n nodes, exactly (n-1) edge checks plus the (n-1)-edge
	// verification pass.
	r := registry.New()
	r.MustRegister(&registry.Instance{Name: "stage", Type: "stage",
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol("X"))),
		Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol("X"))),
		Resources: resource.MB(1, 1),
	})
	const n = 20
	ag := NewAbstractGraph()
	for i := 0; i < n; i++ {
		ag.MustAddNode(&AbstractNode{ID: graph.NodeID(fmt.Sprintf("n%02d", i)), Spec: registry.Spec{Type: "stage"}})
	}
	for i := 1; i < n; i++ {
		ag.MustAddEdge(graph.NodeID(fmt.Sprintf("n%02d", i-1)), graph.NodeID(fmt.Sprintf("n%02d", i)), 1)
	}
	_, rep, err := New(r).Compose(Request{App: ag})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checks != 2*(n-1) {
		t.Errorf("checks = %d, want %d", rep.Checks, 2*(n-1))
	}
}

// TestOCPropertyRandomChainsConsistent is a property test: over random
// linear pipelines with random formats and rates, whenever composition
// succeeds the produced graph is QoS-consistent, and with a full transcoder
// matrix plus buffer available it always succeeds.
func TestOCPropertyRandomChainsConsistent(t *testing.T) {
	formats := []string{"A", "B", "C", "D"}
	r := registry.New()
	// Full transcoder matrix.
	for _, from := range formats {
		for _, to := range formats {
			if from == to {
				continue
			}
			r.MustRegister(&registry.Instance{
				Name:      "tc-" + from + to,
				Type:      TypeTranscoder,
				Attrs:     map[string]string{"from": from, "to": to},
				Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(from))),
				Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol(to))),
				Resources: resource.MB(1, 1),
			})
		}
	}
	r.MustRegister(&registry.Instance{Name: "buffer-1", Type: TypeBuffer, Resources: resource.MB(1, 1)})

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		chainLen := 2 + rng.Intn(5)
		ag := NewAbstractGraph()
		prevType := ""
		for i := 0; i < chainLen; i++ {
			typ := fmt.Sprintf("t%d-%d", trial, i)
			outFmt := formats[rng.Intn(len(formats))]
			// Every stage consumes any rate at or below its window top and
			// emits a fixed rate, so buffers may be needed but never an
			// uncorrectable too-slow producer: window floors are 1.
			inst := &registry.Instance{
				Name:      fmt.Sprintf("inst%d-%d", trial, i),
				Type:      typ,
				Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol(outFmt)), qos.P(qos.DimFrameRate, qos.Scalar(float64(1+rng.Intn(60))))),
				Resources: resource.MB(1, 1),
			}
			if i > 0 {
				inFmt := formats[rng.Intn(len(formats))]
				top := float64(1 + rng.Intn(60))
				inst.Input = qos.V(qos.P(qos.DimFormat, qos.Symbol(inFmt)), qos.P(qos.DimFrameRate, qos.Range(1, top)))
			}
			r.MustRegister(inst)
			ag.MustAddNode(&AbstractNode{ID: graph.NodeID(fmt.Sprintf("c%d", i)), Spec: registry.Spec{Type: typ}})
			if i > 0 {
				ag.MustAddEdge(graph.NodeID(fmt.Sprintf("c%d", i-1)), graph.NodeID(fmt.Sprintf("c%d", i)), 1)
			}
			prevType = typ
		}
		_ = prevType
		g, _, err := New(r).Compose(Request{App: ag})
		if err != nil {
			t.Fatalf("trial %d: compose failed: %v", trial, err)
		}
		for _, e := range g.Edges() {
			p, n := g.Node(e.From), g.Node(e.To)
			if err := qos.Check(string(p.ID), string(n.ID), p.Out, n.In); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
	}
}

func TestSpliceNodeResourcesCarried(t *testing.T) {
	// Spliced corrective components carry their instance's resource
	// requirement so the distribution tier accounts for them.
	c := New(newTestRegistry())
	g, rep, err := c.Compose(Request{App: audioApp(map[string]string{"platform": "pda"})})
	if err != nil {
		t.Fatal(err)
	}
	tc := g.Node(rep.Transcoders[0])
	if !tc.Resources.Equal(resource.MB(12, 25)) {
		t.Errorf("transcoder resources = %v", tc.Resources)
	}
	if tc.SizeMB != 3 {
		t.Errorf("transcoder size = %g", tc.SizeMB)
	}
}

func TestOCFormatNegotiationViaAdjustment(t *testing.T) {
	// A server that can emit either MP3 or WAV (adjustable format set):
	// the OC algorithm negotiates the format down to what the player
	// accepts instead of inserting a transcoder.
	r := registry.New()
	r.MustRegister(&registry.Instance{
		Name:          "multi-server",
		Type:          "server",
		Output:        qos.V(qos.P(qos.DimFormat, qos.Symbol("MP3"))),
		OutCapability: qos.V(qos.P(qos.DimFormat, qos.Set("MP3", "WAV"))),
		Adjustable:    map[string]bool{qos.DimFormat: true},
		Resources:     resource.MB(1, 1),
	})
	r.MustRegister(&registry.Instance{
		Name:      "wav-only",
		Type:      "player",
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol("WAV"))),
		Resources: resource.MB(1, 1),
	})
	ag := NewAbstractGraph()
	ag.MustAddNode(&AbstractNode{ID: "s", Spec: registry.Spec{Type: "server"}})
	ag.MustAddNode(&AbstractNode{ID: "p", Spec: registry.Spec{Type: "player"}})
	ag.MustAddEdge("s", "p", 1)

	g, rep, err := New(r).Compose(Request{App: ag})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Adjustments) != 1 || len(rep.Transcoders) != 0 {
		t.Fatalf("report = %s, want one format adjustment and no transcoder", rep.Summary())
	}
	out, _ := g.Node("s").Out.Get(qos.DimFormat)
	if !out.Equal(qos.Symbol("WAV")) {
		t.Errorf("negotiated format = %s, want WAV", out)
	}
	assertConsistent(t, g)
}

func TestIntersectRequirements(t *testing.T) {
	base := qos.V(qos.P("rate", qos.Range(10, 44)), qos.P("fmt", qos.Symbol("WAV")))
	demand := qos.V(qos.P("rate", qos.Range(38, 50)), qos.P("extra", qos.Scalar(1)))
	got, err := intersectRequirements(base, demand)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("rate"); !v.Equal(qos.Range(38, 44)) {
		t.Errorf("rate = %v, want narrowed [38,44]", v)
	}
	if v, _ := got.Get("extra"); !v.Equal(qos.Scalar(1)) {
		t.Errorf("extra = %v, want added verbatim", v)
	}
	if v, _ := got.Get("fmt"); !v.Equal(qos.Symbol("WAV")) {
		t.Errorf("fmt = %v, want untouched", v)
	}
	// Empty intersections are unsatisfiable.
	if _, err := intersectRequirements(base, qos.V(qos.P("rate", qos.Range(50, 60)))); err == nil {
		t.Error("disjoint demand must fail")
	}
	if _, err := intersectRequirements(base, qos.V(qos.P("fmt", qos.Symbol("MP3")))); err == nil {
		t.Error("conflicting symbol demand must fail")
	}
}

func TestForwardOrderAblationFailsCascade(t *testing.T) {
	// The cascade fixture of TestOCCascadingAdjustmentThroughFilter:
	// server(adjustable) -> filter(pass-through) -> player([10,30]).
	// Reverse order narrows the filter first and cascades to the server;
	// forward order commits the server's operating point before the
	// filter's input requirement has narrowed, leaving an inconsistency.
	build := func() (*Composer, Request) {
		r := registry.New()
		r.MustRegister(&registry.Instance{
			Name:          "server",
			Type:          "server",
			Output:        qos.V(qos.P(qos.DimFormat, qos.Symbol("X")), qos.P(qos.DimFrameRate, qos.Scalar(50))),
			OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(5, 60))),
			Adjustable:    map[string]bool{qos.DimFrameRate: true},
			Resources:     resource.MB(1, 1),
		})
		r.MustRegister(&registry.Instance{
			Name:          "filter",
			Type:          "filter",
			Input:         qos.V(qos.P(qos.DimFormat, qos.Symbol("X")), qos.P(qos.DimFrameRate, qos.Range(5, 60))),
			Output:        qos.V(qos.P(qos.DimFormat, qos.Symbol("X")), qos.P(qos.DimFrameRate, qos.Scalar(50))),
			OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(5, 60))),
			Adjustable:    map[string]bool{qos.DimFrameRate: true},
			PassThrough:   map[string]bool{qos.DimFrameRate: true},
			Resources:     resource.MB(1, 1),
		})
		r.MustRegister(&registry.Instance{
			Name:      "player",
			Type:      "player",
			Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol("X")), qos.P(qos.DimFrameRate, qos.Range(10, 30))),
			Resources: resource.MB(1, 1),
		})
		ag := NewAbstractGraph()
		ag.MustAddNode(&AbstractNode{ID: "s", Spec: registry.Spec{Type: "server"}})
		ag.MustAddNode(&AbstractNode{ID: "f", Spec: registry.Spec{Type: "filter"}})
		ag.MustAddNode(&AbstractNode{ID: "p", Spec: registry.Spec{Type: "player"}})
		ag.MustAddEdge("s", "f", 2)
		ag.MustAddEdge("f", "p", 2)
		return New(r), Request{App: ag}
	}

	cRev, reqRev := build()
	cRev.SetCheckOrder(OrderReverseTopological)
	if _, _, err := cRev.Compose(reqRev); err != nil {
		t.Fatalf("reverse order must solve the cascade: %v", err)
	}

	cFwd, reqFwd := build()
	cFwd.SetCheckOrder(OrderForwardTopological)
	if _, _, err := cFwd.Compose(reqFwd); err == nil {
		t.Fatal("forward order should fail the cascade (the paper's order is load-bearing)")
	}
}
