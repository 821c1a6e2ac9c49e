package composer

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ubiqos/internal/graph"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
)

// newTestRegistry builds the environment of the paper's mobile
// audio-on-demand scenario: an audio server that can emit MP3 at an
// adjustable rate, an MP3 player (PC) and a WAV player (PDA), an
// MP3→WAV transcoder, and a buffer component.
func newTestRegistry() *registry.Registry {
	r := registry.New()
	r.MustRegister(&registry.Instance{
		Name:          "audio-server-1",
		Type:          "audio-server",
		Output:        qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3)), qos.P(qos.DimFrameRate, qos.Scalar(40))),
		OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(5, 60))),
		Adjustable:    map[string]bool{qos.DimFrameRate: true},
		Resources:     resource.MB(64, 50),
		SizeMB:        10,
	})
	r.MustRegister(&registry.Instance{
		Name:      "mp3-player-1",
		Type:      "audio-player",
		Attrs:     map[string]string{"platform": "pc"},
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3)), qos.P(qos.DimFrameRate, qos.Range(10, 50))),
		Resources: resource.MB(16, 30),
		SizeMB:    4,
	})
	r.MustRegister(&registry.Instance{
		Name:      "wav-player-1",
		Type:      "audio-player",
		Attrs:     map[string]string{"platform": "pda"},
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatWAV)), qos.P(qos.DimFrameRate, qos.Range(10, 44))),
		Resources: resource.MB(8, 15),
		SizeMB:    2,
	})
	r.MustRegister(&registry.Instance{
		Name:        "mp32wav-1",
		Type:        TypeTranscoder,
		Attrs:       map[string]string{"from": qos.FormatMP3, "to": qos.FormatWAV},
		Input:       qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3))),
		Output:      qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatWAV))),
		PassThrough: map[string]bool{qos.DimFrameRate: true},
		Resources:   resource.MB(12, 25),
		SizeMB:      3,
	})
	r.MustRegister(&registry.Instance{
		Name:      "buffer-1",
		Type:      TypeBuffer,
		Resources: resource.MB(4, 5),
		SizeMB:    1,
	})
	return r
}

// audioApp is the two-node abstract graph: audio-server -> audio-player.
func audioApp(playerAttrs map[string]string) *AbstractGraph {
	ag := NewAbstractGraph()
	ag.MustAddNode(&AbstractNode{ID: "server", Spec: registry.Spec{Type: "audio-server"}})
	ag.MustAddNode(&AbstractNode{ID: "player", Spec: registry.Spec{Type: "audio-player", Attrs: playerAttrs}, Pin: "client"})
	ag.MustAddEdge("server", "player", 1.5)
	return ag
}

func TestAbstractGraphValidation(t *testing.T) {
	ag := NewAbstractGraph()
	if err := ag.Validate(); err == nil {
		t.Error("empty abstract graph should be invalid")
	}
	if err := ag.AddNode(nil); err == nil {
		t.Error("nil node should fail")
	}
	if err := ag.AddNode(&AbstractNode{ID: "x"}); err == nil {
		t.Error("node without type should fail")
	}
	ag.MustAddNode(&AbstractNode{ID: "a", Spec: registry.Spec{Type: "t"}})
	if err := ag.AddNode(&AbstractNode{ID: "a", Spec: registry.Spec{Type: "t"}}); err == nil {
		t.Error("duplicate node should fail")
	}
	ag.MustAddNode(&AbstractNode{ID: "b", Spec: registry.Spec{Type: "t"}})
	if err := ag.AddEdge("a", "zz", 1); err == nil {
		t.Error("missing endpoint should fail")
	}
	if err := ag.AddEdge("a", "a", 1); err == nil {
		t.Error("self loop should fail")
	}
	if err := ag.AddEdge("a", "b", -1); err == nil {
		t.Error("negative throughput should fail")
	}
	ag.MustAddEdge("a", "b", 1)
	if err := ag.AddEdge("a", "b", 1); err == nil {
		t.Error("duplicate edge should fail")
	}
	if err := ag.Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
	ag.MustAddEdge("b", "a", 1) // creates a cycle
	if err := ag.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestAbstractGraphSinks(t *testing.T) {
	ag := audioApp(nil)
	sinks := ag.Sinks()
	if len(sinks) != 1 || sinks[0] != "player" {
		t.Errorf("Sinks = %v", sinks)
	}
}

func TestAbstractGraphJSONRoundTrip(t *testing.T) {
	ag := audioApp(map[string]string{"platform": "pc"})
	data, err := json.Marshal(ag)
	if err != nil {
		t.Fatal(err)
	}
	var back AbstractGraph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NodeCount() != 2 || len(back.Edges()) != 1 {
		t.Errorf("round trip lost structure: %d nodes %d edges", back.NodeCount(), len(back.Edges()))
	}
	if back.Node("player").Pin != "client" {
		t.Error("pin lost")
	}
	if err := json.Unmarshal([]byte(`{"nodes":[{"id":"a"}]}`), &back); err == nil {
		t.Error("node without type should fail to decode")
	}
}

func TestComposeHappyPath(t *testing.T) {
	c := New(newTestRegistry())
	g, rep, err := c.Compose(Request{
		App:     audioApp(map[string]string{"platform": "pc"}),
		UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(35, 45))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != 2 || g.EdgeCount() != 1 {
		t.Fatalf("graph: V=%d E=%d", g.NodeCount(), g.EdgeCount())
	}
	if rep.Discovered["server"] != "audio-server-1" || rep.Discovered["player"] != "mp3-player-1" {
		t.Errorf("Discovered = %v", rep.Discovered)
	}
	// Server emits MP3@40 which satisfies the MP3 player at [10,50] and the
	// user's [35,45]: no corrections needed.
	if len(rep.Adjustments) != 0 || len(rep.Transcoders) != 0 || len(rep.Buffers) != 0 {
		t.Errorf("unexpected corrections: %s", rep.Summary())
	}
	assertConsistent(t, g)
	// The player keeps its pin.
	if g.Node("player").Pin != "client" {
		t.Error("pin lost on concrete node")
	}
}

// assertConsistent verifies every edge of the graph satisfies the QoS
// relation: the OC post-condition.
func assertConsistent(t *testing.T, g *graph.Graph) {
	t.Helper()
	for _, e := range g.Edges() {
		p, n := g.Node(e.From), g.Node(e.To)
		if err := qos.Check(string(p.ID), string(n.ID), p.Out, n.In); err != nil {
			t.Errorf("inconsistent edge: %v", err)
		}
	}
}

func TestComposeInsertsTranscoderForPDA(t *testing.T) {
	// The paper's handoff scenario: switching to the PDA, whose player only
	// accepts WAV, must splice in an MP3→WAV transcoder.
	c := New(newTestRegistry())
	g, rep, err := c.Compose(Request{
		App:     audioApp(map[string]string{"platform": "pda"}),
		UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(35, 44))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Transcoders) != 1 {
		t.Fatalf("transcoders = %v, want 1", rep.Transcoders)
	}
	if g.NodeCount() != 3 || g.EdgeCount() != 2 {
		t.Fatalf("graph: V=%d E=%d", g.NodeCount(), g.EdgeCount())
	}
	tc := g.Node(rep.Transcoders[0])
	if tc == nil || tc.Type != TypeTranscoder || tc.Instance != "mp32wav-1" {
		t.Fatalf("transcoder node = %+v", tc)
	}
	// server -> tc -> player.
	if len(g.Out("server")) != 1 || g.Out("server")[0].To != tc.ID {
		t.Error("server must feed the transcoder")
	}
	if g.Out(tc.ID)[0].To != "player" {
		t.Error("transcoder must feed the player")
	}
	assertConsistent(t, g)
}

func TestComposeAdjustsFrameRate(t *testing.T) {
	// A player that only accepts [10,30] fps: the server's 40 fps output is
	// adjustable within [5,60], so the OC algorithm adjusts it down instead
	// of inserting anything.
	r := newTestRegistry()
	r.MustRegister(&registry.Instance{
		Name:      "slow-player",
		Type:      "slow-audio-player",
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3)), qos.P(qos.DimFrameRate, qos.Range(10, 30))),
		Resources: resource.MB(8, 10),
	})
	ag := NewAbstractGraph()
	ag.MustAddNode(&AbstractNode{ID: "server", Spec: registry.Spec{Type: "audio-server"}})
	ag.MustAddNode(&AbstractNode{ID: "player", Spec: registry.Spec{Type: "slow-audio-player"}})
	ag.MustAddEdge("server", "player", 1.5)

	c := New(r)
	g, rep, err := c.Compose(Request{App: ag})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Adjustments) != 1 {
		t.Fatalf("adjustments = %+v, want 1", rep.Adjustments)
	}
	adj := rep.Adjustments[0]
	if adj.Node != "server" || adj.Dim != qos.DimFrameRate {
		t.Errorf("adjustment = %+v", adj)
	}
	out, _ := g.Node("server").Out.Get(qos.DimFrameRate)
	if !out.ContainedIn(qos.Range(10, 30)) {
		t.Errorf("adjusted output %s not in [10,30]", out)
	}
	// Best-quality operating point: upper bound of the intersection.
	if !out.Equal(qos.Scalar(30)) {
		t.Errorf("adjusted output = %s, want 30 (highest satisfying value)", out)
	}
	if len(rep.Transcoders)+len(rep.Buffers) != 0 {
		t.Error("no splices expected")
	}
	assertConsistent(t, g)
}

func TestComposeInsertsBufferWhenNotAdjustable(t *testing.T) {
	// A fixed-rate camera at 60 fps feeding a 25 fps-max viewer: the rate is
	// not adjustable, so a buffer paces it down.
	r := registry.New()
	r.MustRegister(&registry.Instance{
		Name:      "camera-1",
		Type:      "camera",
		Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatJPEG)), qos.P(qos.DimFrameRate, qos.Scalar(60))),
		Resources: resource.MB(10, 20),
	})
	r.MustRegister(&registry.Instance{
		Name:      "viewer-1",
		Type:      "viewer",
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatJPEG)), qos.P(qos.DimFrameRate, qos.Range(5, 25))),
		Resources: resource.MB(10, 20),
	})
	r.MustRegister(&registry.Instance{
		Name:      "buffer-1",
		Type:      TypeBuffer,
		Resources: resource.MB(4, 5),
	})
	ag := NewAbstractGraph()
	ag.MustAddNode(&AbstractNode{ID: "cam", Spec: registry.Spec{Type: "camera"}})
	ag.MustAddNode(&AbstractNode{ID: "view", Spec: registry.Spec{Type: "viewer"}})
	ag.MustAddEdge("cam", "view", 8)

	g, rep, err := New(r).Compose(Request{App: ag})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Buffers) != 1 {
		t.Fatalf("buffers = %v, want 1", rep.Buffers)
	}
	buf := g.Node(rep.Buffers[0])
	out, _ := buf.Out.Get(qos.DimFrameRate)
	if !out.Equal(qos.Scalar(25)) {
		t.Errorf("buffer paces to %s, want 25", out)
	}
	assertConsistent(t, g)
}

func TestComposeBufferCannotCreateFrames(t *testing.T) {
	// Producer slower than the consumer's minimum: uncorrectable.
	r := registry.New()
	r.MustRegister(&registry.Instance{
		Name:      "slow-cam",
		Type:      "camera",
		Output:    qos.V(qos.P(qos.DimFrameRate, qos.Scalar(2))),
		Resources: resource.MB(1, 1),
	})
	r.MustRegister(&registry.Instance{
		Name:      "viewer-1",
		Type:      "viewer",
		Input:     qos.V(qos.P(qos.DimFrameRate, qos.Range(5, 25))),
		Resources: resource.MB(1, 1),
	})
	r.MustRegister(&registry.Instance{Name: "buffer-1", Type: TypeBuffer, Resources: resource.MB(1, 1)})
	ag := NewAbstractGraph()
	ag.MustAddNode(&AbstractNode{ID: "cam", Spec: registry.Spec{Type: "camera"}})
	ag.MustAddNode(&AbstractNode{ID: "view", Spec: registry.Spec{Type: "viewer"}})
	ag.MustAddEdge("cam", "view", 8)

	_, _, err := New(r).Compose(Request{App: ag})
	if err == nil || !strings.Contains(err.Error(), "too slow") {
		t.Errorf("err = %v, want producer-too-slow", err)
	}
}

func TestComposeNoTranscoderAvailable(t *testing.T) {
	r := newTestRegistry()
	// Remove the transcoder: the PDA composition must fail informatively.
	r.Unregister("mp32wav-1")
	_, _, err := New(r).Compose(Request{App: audioApp(map[string]string{"platform": "pda"})})
	if err == nil || !strings.Contains(err.Error(), "no transcoder") {
		t.Errorf("err = %v, want no-transcoder", err)
	}
}

func TestComposeMissingMandatoryService(t *testing.T) {
	c := New(newTestRegistry())
	ag := audioApp(nil)
	ag.MustAddNode(&AbstractNode{ID: "lipsync", Spec: registry.Spec{Type: "lip-synchronizer"}})
	ag.MustAddEdge("server", "lipsync", 1)
	_, _, err := c.Compose(Request{App: ag})
	var miss *MissingServiceError
	if !errors.As(err, &miss) {
		t.Fatalf("err = %v, want MissingServiceError", err)
	}
	if len(miss.Types) != 1 || miss.Types[0] != "lip-synchronizer" {
		t.Errorf("missing types = %v", miss.Types)
	}
}

func TestComposeSkipsOptionalAndBypasses(t *testing.T) {
	// server -> equalizer(optional, undiscoverable) -> player: the
	// equalizer is neglected and the edge bypasses it.
	c := New(newTestRegistry())
	ag := NewAbstractGraph()
	ag.MustAddNode(&AbstractNode{ID: "server", Spec: registry.Spec{Type: "audio-server"}})
	ag.MustAddNode(&AbstractNode{ID: "eq", Spec: registry.Spec{Type: "equalizer"}, Optional: true})
	ag.MustAddNode(&AbstractNode{ID: "player", Spec: registry.Spec{Type: "audio-player", Attrs: map[string]string{"platform": "pc"}}})
	ag.MustAddEdge("server", "eq", 1.5)
	ag.MustAddEdge("eq", "player", 1.5)

	g, rep, err := c.Compose(Request{App: ag})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0] != "eq" {
		t.Errorf("Skipped = %v", rep.Skipped)
	}
	if g.NodeCount() != 2 {
		t.Fatalf("V = %d, want 2", g.NodeCount())
	}
	out := g.Out("server")
	if len(out) != 1 || out[0].To != "player" {
		t.Errorf("bypass edge missing: %v", out)
	}
	assertConsistent(t, g)
}

func TestComposeChainedOptionalSkips(t *testing.T) {
	// Two consecutive undiscoverable optional services bypass transitively.
	c := New(newTestRegistry())
	ag := NewAbstractGraph()
	ag.MustAddNode(&AbstractNode{ID: "server", Spec: registry.Spec{Type: "audio-server"}})
	ag.MustAddNode(&AbstractNode{ID: "eq1", Spec: registry.Spec{Type: "equalizer"}, Optional: true})
	ag.MustAddNode(&AbstractNode{ID: "eq2", Spec: registry.Spec{Type: "reverb"}, Optional: true})
	ag.MustAddNode(&AbstractNode{ID: "player", Spec: registry.Spec{Type: "audio-player", Attrs: map[string]string{"platform": "pc"}}})
	ag.MustAddEdge("server", "eq1", 1.5)
	ag.MustAddEdge("eq1", "eq2", 1.5)
	ag.MustAddEdge("eq2", "player", 1.5)

	g, _, err := c.Compose(Request{App: ag})
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != 2 || g.EdgeCount() != 1 {
		t.Fatalf("V=%d E=%d, want 2/1", g.NodeCount(), g.EdgeCount())
	}
	assertConsistent(t, g)
}

func TestComposeAllOptionalNoneFound(t *testing.T) {
	c := New(newTestRegistry())
	ag := NewAbstractGraph()
	ag.MustAddNode(&AbstractNode{ID: "eq", Spec: registry.Spec{Type: "equalizer"}, Optional: true})
	_, _, err := c.Compose(Request{App: ag})
	if err == nil {
		t.Error("composing nothing should fail")
	}
}

func TestComposeRecursiveDecomposition(t *testing.T) {
	// No "av-player" instance exists, but it decomposes into
	// audio-player + video-viewer... here: transcoder-less audio chain.
	r := newTestRegistry()
	c := New(r)
	sub := NewAbstractGraph()
	sub.MustAddNode(&AbstractNode{ID: "decoder", Spec: registry.Spec{Type: "audio-player", Attrs: map[string]string{"platform": "pc"}}})
	if err := c.RegisterDecomposition("av-player", sub); err != nil {
		t.Fatal(err)
	}

	ag := NewAbstractGraph()
	ag.MustAddNode(&AbstractNode{ID: "server", Spec: registry.Spec{Type: "audio-server"}})
	ag.MustAddNode(&AbstractNode{ID: "avp", Spec: registry.Spec{Type: "av-player"}, Pin: "client-pc"})
	ag.MustAddEdge("server", "avp", 1.5)

	g, rep, err := c.Compose(Request{App: ag})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Expanded["avp"] != "av-player" {
		t.Errorf("Expanded = %v", rep.Expanded)
	}
	if g.Node("avp/decoder") == nil {
		t.Fatalf("decomposed node missing; nodes = %v", g.NodeIDs())
	}
	if g.Node("avp/decoder").Pin != "client-pc" {
		t.Error("pin must propagate to decomposition boundary")
	}
	if len(g.Out("server")) != 1 || g.Out("server")[0].To != "avp/decoder" {
		t.Error("edge must splice into decomposition entry")
	}
	assertConsistent(t, g)
}

func TestComposeRecursionDepthLimit(t *testing.T) {
	// a decomposes to b decomposes to c decomposes to d (never
	// discoverable): depth limit 2 stops the recursion and reports d... or
	// rather the type at the limit.
	r := registry.New()
	c := New(r)
	mk := func(inner string) *AbstractGraph {
		ag := NewAbstractGraph()
		ag.MustAddNode(&AbstractNode{ID: "n", Spec: registry.Spec{Type: inner}})
		return ag
	}
	if err := c.RegisterDecomposition("a", mk("b")); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDecomposition("b", mk("c")); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterDecomposition("c", mk("d")); err != nil {
		t.Fatal(err)
	}
	app := mk("a")
	_, _, err := c.Compose(Request{App: app})
	var miss *MissingServiceError
	if !errors.As(err, &miss) {
		t.Fatalf("err = %v, want MissingServiceError", err)
	}
	// Depth 0 instantiates "a"→decomposes; depth 1 "b"→decomposes; depth 2
	// "c" may not decompose further, so "c" is reported missing.
	if len(miss.Types) != 1 || miss.Types[0] != "c" {
		t.Errorf("missing = %v, want [c]", miss.Types)
	}
}

func TestRegisterDecompositionValidation(t *testing.T) {
	c := New(registry.New())
	if err := c.RegisterDecomposition("", NewAbstractGraph()); err == nil {
		t.Error("empty type should fail")
	}
	if err := c.RegisterDecomposition("x", NewAbstractGraph()); err == nil {
		t.Error("empty decomposition should fail")
	}
}

func TestComposeRequestValidation(t *testing.T) {
	c := New(newTestRegistry())
	if _, _, err := c.Compose(Request{}); err == nil {
		t.Error("nil app should fail")
	}
	if _, _, err := c.Compose(Request{App: NewAbstractGraph()}); err == nil {
		t.Error("empty app should fail")
	}
	if _, _, err := c.Compose(Request{
		App:     audioApp(nil),
		UserQoS: qos.Vector{qos.P("", qos.Scalar(1))},
	}); err == nil {
		t.Error("invalid user QoS should fail")
	}
}

func TestComposeClientAttrsSteerDiscovery(t *testing.T) {
	// With no platform attr in the app spec, the client attrs decide which
	// player is discovered for the pinned node.
	c := New(newTestRegistry())
	g, _, err := c.Compose(Request{
		App:          audioApp(nil),
		ClientDevice: "client",
		ClientAttrs:  map[string]string{"platform": "pda"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Node("player").Instance != "wav-player-1" {
		t.Errorf("player instance = %s, want wav-player-1", g.Node("player").Instance)
	}
}

// TestComposeResolvesClientRole: the application's ClientRole pins land on
// the client device, whose attributes steer their discovery, while the
// request's own graph — which a client may start again from another
// device — is left as it was; with no client device the pin stays.
func TestComposeResolvesClientRole(t *testing.T) {
	r := newTestRegistry()
	r.MustRegister(&registry.Instance{Name: "mixer-1", Type: "mixer", Resources: resource.MB(1, 1)})
	app := NewAbstractGraph()
	app.MustAddNode(&AbstractNode{ID: "server", Spec: registry.Spec{Type: "audio-server"}})
	app.MustAddNode(&AbstractNode{ID: "mix", Spec: registry.Spec{Type: "mixer"}, Pin: "desktop"})
	app.MustAddNode(&AbstractNode{ID: "player", Spec: registry.Spec{Type: "audio-player"}, Pin: ClientRole})
	app.MustAddEdge("server", "player", 1.5)
	app.MustAddEdge("server", "mix", 0.5)
	before, err := json.Marshal(app)
	if err != nil {
		t.Fatal(err)
	}
	c := New(r)
	for _, tc := range []struct{ client, player, instance string }{
		{"pda", "pda", "wav-player-1"},
		{"", ClientRole, ""},
	} {
		g, _, err := c.Compose(Request{App: app, ClientDevice: tc.client, ClientAttrs: map[string]string{"platform": "pda"}})
		if err != nil {
			t.Fatal(err)
		}
		pins := map[graph.NodeID]string{}
		for _, id := range []graph.NodeID{"server", "mix", "player"} {
			pins[id] = g.Node(id).Pin
		}
		want := map[graph.NodeID]string{"server": "", "mix": "desktop", "player": tc.player}
		if !reflect.DeepEqual(pins, want) {
			t.Errorf("client %q: pins %v, want %v", tc.client, pins, want)
		}
		if got := g.Node("player").Instance; tc.instance != "" && got != tc.instance {
			t.Errorf("client %q: player instance %s, want %s", tc.client, got, tc.instance)
		}
	}
	if after, _ := json.Marshal(app); !bytes.Equal(before, after) {
		t.Errorf("request graph changed:\n before %s\n after  %s", before, after)
	}
}

func TestComposeUserQoSConflictFails(t *testing.T) {
	// User demands 100 fps; the server caps at 60 and the player at 50:
	// composition must fail rather than silently degrade.
	c := New(newTestRegistry())
	_, _, err := c.Compose(Request{
		App:     audioApp(map[string]string{"platform": "pc"}),
		UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(100, 120))),
	})
	if err == nil {
		t.Error("unsatisfiable user QoS should fail")
	}
}

func TestReportSummary(t *testing.T) {
	rep := newReport(0)
	rep.Discovered["a"] = "x"
	rep.Skipped = append(rep.Skipped, "b")
	rep.Expanded["c"] = "t"
	rep.Adjustments = append(rep.Adjustments, Adjustment{})
	rep.Transcoders = append(rep.Transcoders, "tc")
	rep.Buffers = append(rep.Buffers, "buf")
	rep.Checks = 7
	s := rep.Summary()
	for _, want := range []string{"1 services discovered", "1 optional skipped", "1 recursively composed", "1 QoS adjustments", "1 transcoders", "1 buffers", "7 checks"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary %q missing %q", s, want)
		}
	}
}

// TestCallerMutationDoesNotReachComposedNode: a composed node shares its
// vectors and maps with the registry's copy of the instance, never with
// the caller's: what the caller does to the instance it registered, after
// Register, does not show in the node.
func TestCallerMutationDoesNotReachComposedNode(t *testing.T) {
	mk := func() *registry.Instance {
		return &registry.Instance{
			Name: "filter-1", Type: "filter",
			Input:         qos.V(qos.P(qos.DimFrameRate, qos.Range(10, 60))),
			Output:        qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3)), qos.P(qos.DimFrameRate, qos.Scalar(40))),
			OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(5, 60))),
			Adjustable:    map[string]bool{qos.DimFrameRate: true},
			PassThrough:   map[string]bool{qos.DimFrameRate: true},
			Resources:     resource.MB(8, 10),
			SizeMB:        1,
		}
	}
	r := registry.New()
	in, want := mk(), mk()
	r.MustRegister(in)
	in.Input[0].Value = qos.Scalar(1)
	in.Output[1].Value = qos.Scalar(1)
	in.OutCapability[0].Value = qos.Scalar(1)
	in.Adjustable[qos.DimFrameRate] = false
	in.PassThrough[qos.DimFormat] = true
	in.Resources[0] = 999

	ag := NewAbstractGraph()
	ag.MustAddNode(&AbstractNode{ID: "f", Spec: registry.Spec{Type: "filter"}})
	g, _, err := New(r).Compose(Request{App: ag})
	if err != nil {
		t.Fatal(err)
	}
	n := g.Node("f")
	got := []any{n.In, n.Out, n.OutCapability, n.Adjustable, n.PassThrough, n.Resources}
	exp := []any{want.Input, want.Output, want.OutCapability, want.Adjustable, want.PassThrough, want.Resources}
	if !reflect.DeepEqual(got, exp) {
		t.Errorf("composed node carries %v, registered %v", got, exp)
	}
}
