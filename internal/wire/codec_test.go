package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/domain"
	"ubiqos/internal/experiments"
	"ubiqos/internal/graph"
	"ubiqos/internal/metrics"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
	"ubiqos/internal/workload"
)

// fig5App turns a Fig. 5-size random service graph into an abstract graph
// of "svc" services with the same structure, its last node (the only sink)
// pinned to the client.
func fig5App(rng *rand.Rand) *composer.AbstractGraph {
	return randomApp(rng, workload.Fig5Params(), func() string { return "svc" })
}

// catalogueApp is randomApp over a 64-type catalogue: the shape of the
// benchmark's bigraph (Fig. 5 size) and fill (Table 1 size) requests.
func catalogueApp(rng *rand.Rand, p workload.GraphParams) *composer.AbstractGraph {
	return randomApp(rng, p, func() string { return fmt.Sprintf("svc%02d", rng.Intn(64)) })
}

// randomApp turns a random service graph into an abstract graph with the
// same structure, each node of the type typ draws, its last node (the
// only sink) pinned to the client.
func randomApp(rng *rand.Rand, p workload.GraphParams, typ func() string) *composer.AbstractGraph {
	g := workload.MustRandomGraph(rng, p)
	ag := composer.NewAbstractGraph()
	nodes := g.Nodes()
	for i, n := range nodes {
		an := &composer.AbstractNode{ID: n.ID, Spec: registry.Spec{Type: typ()}}
		if i == len(nodes)-1 {
			an.Pin = core.ClientRole
		}
		ag.MustAddNode(an)
	}
	for _, e := range g.Edges() {
		ag.MustAddEdge(e.From, e.To, e.ThroughputMbps)
	}
	return ag
}

// encodeLine is the line the client writes for req.
func encodeLine(t testing.TB, req Request) []byte {
	t.Helper()
	line, err := appendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// encodeRequestJSON is the client's encoder before appendRequest, kept
// verbatim (renamed) as the oracle appendRequest is held to byte for byte.
func encodeRequestJSON(enc *json.Encoder, req Request) error {
	wr := wireRequest{Request: req}
	if req.App != nil {
		wr.App = &composer.PlainGraph{Nodes: req.App.Nodes(), Edges: req.App.Edges()}
	}
	return enc.Encode(wr)
}

// checkEncodeMatchesJSON requires appendRequest to write what the oracle
// writes for req, byte for byte, or to fail in its words.
func checkEncodeMatchesJSON(t *testing.T, what string, req Request) {
	t.Helper()
	var want bytes.Buffer
	wantErr := encodeRequestJSON(json.NewEncoder(&want), req)
	got, err := appendRequest([]byte("stale"), req)
	switch {
	case fmt.Sprint(err) != fmt.Sprint(wantErr):
		t.Errorf("%s: appendRequest says %v, encoding/json %v", what, err, wantErr)
	case err == nil && !bytes.Equal(got[len("stale"):], want.Bytes()):
		t.Errorf("%s: appendRequest writes\n%s\nencoding/json\n%s", what, clip(got[len("stale"):]), clip(want.Bytes()))
	}
}

// sameRequest reports whether two requests are the same document to
// encoding/json: what a server can tell apart.
func sameRequest(a, b Request) bool {
	ab, aerr := json.Marshal(a)
	bb, berr := json.Marshal(b)
	return aerr == nil && berr == nil && bytes.Equal(ab, bb)
}

// checkSameGraph requires got to equal want in node order, edge order,
// pins, specs and throughput bits. Nodes are compared by their JSON, in
// which an empty and an absent attribute map or QoS vector are the same
// thing, as they are on the wire.
func checkSameGraph(t *testing.T, what string, got, want *composer.AbstractGraph) {
	t.Helper()
	if got == nil {
		t.Errorf("%s: no graph", what)
		return
	}
	gn, wn := got.Nodes(), want.Nodes()
	if len(gn) != len(wn) {
		t.Errorf("%s: %d nodes, want %d", what, len(gn), len(wn))
		return
	}
	for i := range wn {
		g, _ := json.Marshal(gn[i])
		w, _ := json.Marshal(wn[i])
		if !bytes.Equal(g, w) {
			t.Errorf("%s: node %d = %s, want %s", what, i, g, w)
		}
	}
	ge, we := got.Edges(), want.Edges()
	if len(ge) != len(we) {
		t.Errorf("%s: %d edges, want %d", what, len(ge), len(we))
		return
	}
	for i := range we {
		if ge[i].From != we[i].From || ge[i].To != we[i].To ||
			math.Float64bits(ge[i].ThroughputMbps) != math.Float64bits(we[i].ThroughputMbps) {
			t.Errorf("%s: edge %d = %+v, want %+v", what, i, ge[i], we[i])
		}
	}
}

type codecCase struct {
	name string
	req  Request
}

// codecCases are the requests TestRequestCodecInterop sends both ways: the
// shipped mobile-audio.json, the prototype's two applications, every node
// field, the empty graph, no graph, and 50 Fig. 5-size graphs.
func codecCases(t testing.TB) []codecCase {
	t.Helper()
	src, err := os.ReadFile("../../testdata/mobile-audio.json")
	if err != nil {
		t.Fatal(err)
	}
	var mobileAudio composer.AbstractGraph
	if err := json.Unmarshal(src, &mobileAudio); err != nil {
		t.Fatal(err)
	}
	rich := composer.NewAbstractGraph()
	rich.MustAddNode(&composer.AbstractNode{ID: "src", Optional: true, Spec: registry.Spec{
		Type:   "source",
		Attrs:  map[string]string{"platform": "pc", "vendor": "x"},
		Output: qos.V(qos.P(qos.DimFormat, qos.Set("MPEG", "WAV")), qos.P(qos.DimFrameRate, qos.Range(0.1, 1e21))),
	}})
	rich.MustAddNode(&composer.AbstractNode{ID: "dst", Pin: "pda \"1\"", Spec: registry.Spec{
		Type:  "sink",
		Input: qos.V(qos.P(qos.DimFormat, qos.Symbol("WAV")), qos.P("width", qos.Scalar(1600))),
	}})
	rich.MustAddEdge("src", "dst", math.Nextafter(1.5, 2))

	cases := []codecCase{
		{"mobile-audio.json", Request{Op: OpStart, SessionID: "s", App: &mobileAudio,
			UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(38, 44))), ClientDevice: "desktop2"}},
		{"audio-on-demand", Request{Op: OpStart, SessionID: "a", App: experiments.AudioOnDemandApp(), ClientDevice: "jornada", TraceID: "cafe", SpanID: "client-start"}},
		{"conferencing", Request{Op: OpCheck, App: experiments.VideoConferencingApp(), ClientDevice: "desktop1", MaxFrames: 7}},
		{"every node field", Request{Op: OpStart, App: rich, Class: "video"}},
		{"empty graph", Request{Op: OpStart, App: composer.NewAbstractGraph()}},
		{"no graph", Request{Op: OpStop, SessionID: "s"}},
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 50; i++ {
		cases = append(cases, codecCase{fmt.Sprintf("fig5-%02d", i),
			Request{Op: OpStart, SessionID: fmt.Sprintf("f%d", i), App: fig5App(rng), ClientDevice: "d0"}})
	}
	return cases
}

// TestRequestCodecInterop: an old client's line (json.Marshal of a
// Request, the graph through its MarshalJSON) decodes on the new server,
// and the new client's line decodes on an old server (json.Unmarshal into
// a Request, the graph through its UnmarshalJSON), both to the graph that
// was sent.
func TestRequestCodecInterop(t *testing.T) {
	for _, tc := range codecCases(t) {
		oldLine, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		newLine := encodeLine(t, tc.req)
		if len(newLine) != len(oldLine)+1 {
			t.Errorf("%s: new client writes %d bytes, old one %d plus a newline", tc.name, len(newLine), len(oldLine))
		}

		onNew, err := decodeRequest(oldLine)
		if err != nil {
			t.Errorf("%s: old client → new server: %v", tc.name, err)
			continue
		}
		var onOld Request
		if err := json.Unmarshal(newLine, &onOld); err != nil {
			t.Errorf("%s: new client → old server: %v", tc.name, err)
			continue
		}
		for what, got := range map[string]Request{"old client → new server": onNew, "new client → old server": onOld} {
			what = tc.name + ": " + what
			if tc.req.App == nil {
				if got.App != nil {
					t.Errorf("%s: a graph appeared", what)
				}
			} else {
				checkSameGraph(t, what, got.App, tc.req.App)
			}
			// Everything but the graph is plain data and must match as is.
			got.App = tc.req.App
			if !reflect.DeepEqual(got, tc.req) {
				t.Errorf("%s: request = %+v, want %+v", what, got, tc.req)
			}
		}
	}
}

// ab is two nodes for rejectedGraphs' edges.
const ab = `{"id":"a","spec":{"type":"t"}},{"id":"b","spec":{"type":"t"}}`

// rejectedGraphs are graphs AddNode or AddEdge refuse, with their words.
var rejectedGraphs = []struct{ name, nodes, edges, want string }{
	{"unknown source", ab, `{"from":"zz","to":"b","throughputMbps":1}`, `composer: abstract edge source "zz" does not exist`},
	{"unknown target", ab, `{"from":"a","to":"zz","throughputMbps":1}`, `composer: abstract edge target "zz" does not exist`},
	{"self-loop", ab, `{"from":"a","to":"a","throughputMbps":1}`, `composer: self-loop on "a"`},
	{"negative throughput", ab, `{"from":"a","to":"b","throughputMbps":-1}`, `composer: negative throughput on a->b`},
	{"duplicate edge", ab, `{"from":"a","to":"b","throughputMbps":1},{"from":"a","to":"b","throughputMbps":2}`, `composer: duplicate abstract edge a->b`},
	{"duplicate node", ab + `,{"id":"a","spec":{"type":"t"}}`, ``, `composer: duplicate abstract node "a"`},
	{"empty node ID", `{"id":"","spec":{"type":"t"}}`, ``, `composer: abstract node must have a non-empty ID`},
	{"null node", `null`, ``, `composer: abstract node must have a non-empty ID`},
	{"untyped node", `{"id":"a","spec":{}}`, ``, `composer: abstract node "a" has no service type`},
}

// rejectedLine is a start line carrying one of rejectedGraphs.
func rejectedLine(nodes, edges string) []byte {
	return []byte(`{"op":"start","app":{"nodes":[` + nodes + `],"edges":[` + edges + `]}}`)
}

// TestRequestDecodeRejections: what AddNode and AddEdge refuse, both decode
// paths refuse in the same words; and the two edge cases of "app" behave
// as they always have.
func TestRequestDecodeRejections(t *testing.T) {
	for _, tc := range rejectedGraphs {
		line := rejectedLine(tc.nodes, tc.edges)
		var old Request
		oldErr := json.Unmarshal(line, &old)
		_, newErr := decodeRequest(line)
		if oldErr == nil || oldErr.Error() != tc.want {
			t.Errorf("%s: Unmarshal into Request says %v, want %s", tc.name, oldErr, tc.want)
		}
		if newErr == nil || newErr.Error() != tc.want {
			t.Errorf("%s: decodeRequest says %v, want %s", tc.name, newErr, tc.want)
		}
	}

	// Over the socket a rejected graph is a bad line, counted as one.
	srv, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	exchange := func(line string) Response {
		t.Helper()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		if !sc.Scan() {
			t.Fatalf("no response to %s: %v", line, sc.Err())
		}
		var resp Response
		if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, tc := range []struct{ line, want string }{
		{`{"op":"start","app":{"nodes":[` + ab + `],"edges":[{"from":"a","to":"a","throughputMbps":1}]}}`,
			`wire: bad request: composer: self-loop on "a"`},
		{`{"op":"start","sessionId":"n","app":null,"clientDevice":"desktop2"}`,
			`wire: start requires an app graph`},
		{`{"op":"start","sessionId":"e","app":{},"clientDevice":"desktop2"}`,
			`core: composition: composer: empty abstract service graph`},
	} {
		if resp := exchange(tc.line); resp.OK || resp.Error != tc.want {
			t.Errorf("%s → ok=%v error %q, want %q", tc.line, resp.OK, resp.Error, tc.want)
		}
	}
	if got := srv.dom.Metrics.Counter(metrics.WireBadLines).Value(); got != 1 {
		t.Errorf("bad lines = %d, want 1 (the self-loop; the other two decode)", got)
	}
}

// TestTraceContextOnlyOnStart: the client originates a trace ID and span
// ID for start, whose handler reads them, and for nothing else.
func TestTraceContextOnlyOnStart(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	lines := make(chan string)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		for sc.Scan() {
			lines <- sc.Text()
			if _, err := conn.Write([]byte(`{"ok":true}` + "\n")); err != nil {
				return
			}
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sent := func(req Request) string {
		t.Helper()
		done := make(chan error, 1)
		go func() { _, err := c.Call(req); done <- err }()
		line := <-lines
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return line
	}
	if line := sent(Request{Op: OpStart, SessionID: "s", App: experiments.AudioOnDemandApp()}); !strings.Contains(line, `"traceId":"`) || !strings.Contains(line, `"spanId":"client-start"`) {
		t.Errorf("start line carries no originated trace context: %s", line)
	}
	for _, req := range []Request{
		{Op: OpStop, SessionID: "s"}, {Op: OpPing}, {Op: OpStats}, {Op: OpSession, SessionID: "s"},
		{Op: OpSwitch, SessionID: "s", ToDevice: "d"},
	} {
		if line := sent(req); strings.Contains(line, "traceId") || strings.Contains(line, "spanId") {
			t.Errorf("%s line carries trace context: %s", req.Op, line)
		}
	}
	if line := sent(Request{Op: OpStop, SessionID: "s", TraceID: "cafe"}); !strings.Contains(line, `"traceId":"cafe"`) {
		t.Errorf("a caller-supplied trace ID was dropped: %s", line)
	}
}

// fig5Server boots a server over a space that hosts one Fig. 5-size
// session: three roomy, fully connected PCs and a one-instance catalogue
// installed everywhere.
func fig5Server(t testing.TB) *Server {
	t.Helper()
	dom, err := domain.New("fig5", domain.Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dom.Close)
	ids := []device.ID{"d0", "d1", "d2"}
	for _, id := range ids {
		if _, err := dom.AddDevice(id, device.ClassDesktop, resource.MB(4096, 4000), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if err := dom.Connect(a, b, netsim.Link{BandwidthMbps: 10000, LatencyMs: 0.1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	dom.Registry.MustRegister(&registry.Instance{Name: "svc-1", Type: "svc", Resources: resource.MB(1, 1)})
	for _, id := range ids {
		dom.Repo.MarkInstalled(string(id), "svc-1")
	}
	srv, err := NewServer(dom)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// BenchmarkRequestDecode measures the server's decode of a Fig. 5-size
// start line: one scan of the bytes, the graph's checks included.
func BenchmarkRequestDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var lines [][]byte
	for len(lines) < 8 {
		lines = append(lines, encodeLine(b, Request{Op: OpStart, SessionID: "s", App: fig5App(rng), ClientDevice: "d0"}))
	}
	b.SetBytes(int64(len(lines[0])))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeRequest(lines[i%len(lines)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRequestEncode measures the client's encode of a Fig. 5-size
// start line into a reused buffer.
func BenchmarkRequestEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var reqs []Request
	for len(reqs) < 8 {
		reqs = append(reqs, Request{Op: OpStart, SessionID: "s", App: fig5App(rng), ClientDevice: "d0"})
	}
	var line []byte
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if line, err = appendRequest(line[:0], reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(line)))
}

// startReply is the reply to a Fig. 5-size start and the session it
// describes. The reply carries a rate for each sink the session has heard
// from, so it is captured once every sink has reported one and the
// session's runtime has stopped: the same fields on every run, however
// fast the stream got going, and the same bytes on every iteration of a
// run.
func startReply(t testing.TB) (*core.ActiveSession, []byte) {
	t.Helper()
	srv := fig5Server(t)
	resp := srv.Handle(Request{Op: OpStart, SessionID: "s", App: fig5App(rand.New(rand.NewSource(5))), ClientDevice: "d0", MaxFrames: 1})
	if !resp.OK {
		t.Fatalf("start: %s", resp.Error)
	}
	active := srv.dom.Configurator.Session("s")
	sinks := 0
	for _, id := range active.Graph.Sinks() {
		sinks += len(active.Graph.In(id))
	}
	for deadline := time.Now().Add(10 * time.Second); len(active.Runtime.SinkRates()) < sinks; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d sink rates after 10 s", len(active.Runtime.SinkRates()), sinks)
		}
	}
	active.Runtime.Stop()
	resp.Session = sessionInfoOf(active)
	line, err := appendResponse(nil, &resp)
	if err != nil {
		t.Fatal(err)
	}
	return active, line
}

// TestStartReplySettles: two captures of the start reply carry the same
// fields, so the two benchmarks that time it time one reply. The
// configure's timings and the sink rates are wall-clock measurements, so
// their digits may differ; every other byte may not.
func TestStartReplySettles(t *testing.T) {
	measured := regexp.MustCompile(`:-?[0-9][0-9.e+-]*`)
	_, a := startReply(t)
	_, b := startReply(t)
	if ma, mb := measured.ReplaceAll(a, []byte(":#")), measured.ReplaceAll(b, []byte(":#")); !bytes.Equal(ma, mb) {
		t.Fatalf("two captures of the start reply differ beyond their measured numbers:\n%s\n%s", a, b)
	}
	if !bytes.Contains(a, []byte(`"rates":{`)) {
		t.Fatalf("the start reply carries no sink rate: %s", a)
	}
}

// BenchmarkStartReply measures building and encoding the reply to a
// Fig. 5-size start, which does not render the placed graph.
func BenchmarkStartReply(b *testing.B) {
	active, _ := startReply(b)
	var line []byte
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := Response{OK: true, Session: sessionInfoOf(active)}
		if line, err = appendResponse(line[:0], &resp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(line)), "bytes/reply")
}

// BenchmarkStartReplyDecode measures the client's decode of that reply.
func BenchmarkStartReplyDecode(b *testing.B) {
	_, line := startReply(b)
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeResponse(line); err != nil {
			b.Fatal(err)
		}
	}
}

// hotStarts are start requests of the benchmark's three wire workloads, as
// Client.Call sends them: bigraph and fill graphs with a range user QoS,
// and mix4's small applications (two-parameter QoS, optional nodes, fixed
// pins, no QoS).
func hotStarts(rng *rand.Rand) map[string]Request {
	start := func(class string, app *composer.AbstractGraph, userQoS qos.Vector) Request {
		return Request{Op: OpStart, SessionID: class + "-w-000042", Class: class, App: app, UserQoS: userQoS,
			ClientDevice: "desktop2", MaxFrames: 1, TraceID: "9f86d081884c7d65", SpanID: "client-start"}
	}
	streamReq := qos.V(qos.P(qos.DimFrameRate, qos.Range(20, 40)))
	bestEffort := composer.NewAbstractGraph()
	bestEffort.MustAddNode(&composer.AbstractNode{ID: "cache", Spec: registry.Spec{Type: "web-cache"}})
	bestEffort.MustAddNode(&composer.AbstractNode{ID: "filter", Spec: registry.Spec{Type: "ad-filter"}, Optional: true})
	bestEffort.MustAddNode(&composer.AbstractNode{ID: "browser", Spec: registry.Spec{Type: "browser"}, Pin: core.ClientRole})
	bestEffort.MustAddEdge("cache", "filter", 1)
	bestEffort.MustAddEdge("filter", "browser", 1)
	return map[string]Request{
		"bigraph":           start("bigraph", catalogueApp(rng, workload.Fig5Params()), streamReq),
		"fill":              start("fill", catalogueApp(rng, workload.Table1Params()), streamReq),
		"mix4 voice":        start("voice", experiments.AudioOnDemandApp(), qos.V(qos.P(qos.DimFrameRate, qos.Range(20, 25)))),
		"mix4 video":        start("video", experiments.VideoConferencingApp(), qos.V(qos.P("video-fps", qos.Range(20, 30)), qos.P("audio-fps", qos.Range(5, 8)))),
		"mix4 best-effort":  start("best-effort", bestEffort, nil),
		"mix4 stop":         {Op: OpStop, SessionID: "voice-w-000042"},
		"benchmark warm-up": {Op: OpPing},
	}
}

// opRequests is one request per op as qosctl sends it: every arg the op
// reads filled in, an instance for register, an app for start and
// check, and the trace context Call originates on a start.
func opRequests() map[string]Request {
	out := make(map[string]Request, len(ops))
	for i := range ops {
		o := &ops[i]
		req := o.request(Request{}, func(arg string) string { return "v-" + arg })
		switch o.name {
		case OpStart:
			req.App, req.MaxFrames = experiments.AudioOnDemandApp(), 1
			req.UserQoS = qos.V(qos.P(qos.DimFrameRate, qos.Range(20, 25)), qos.P(qos.DimFormat, qos.Set("PCM", "WAV")))
			req.TraceID, req.SpanID = "0123456789abcdef", "client-start"
		case OpCheck:
			// Every node field the scanner takes, in strings it takes.
			app := composer.NewAbstractGraph()
			app.MustAddNode(&composer.AbstractNode{ID: "src", Optional: true, Spec: registry.Spec{
				Type:   "source",
				Attrs:  map[string]string{"platform": "pc", "vendor": "x"},
				Output: qos.V(qos.P(qos.DimFormat, qos.Set("MPEG", "WAV")), qos.P(qos.DimFrameRate, qos.Range(0.1, 1e21))),
			}})
			app.MustAddNode(&composer.AbstractNode{ID: "dst", Pin: "pda1", Spec: registry.Spec{
				Type:  "sink",
				Attrs: map[string]string{},
				Input: qos.V(qos.P(qos.DimFormat, qos.Symbol("WAV")), qos.P("width", qos.Scalar(-0.5e-7))),
			}})
			app.MustAddEdge("src", "dst", math.Nextafter(1.5, 2))
			req.App = app
		case OpRegister:
			req.Instance = &registry.Instance{Name: "eq-1", Type: "equalizer", Attrs: map[string]string{"platform": "pc"},
				Input: qos.V(qos.P(qos.DimFormat, qos.Symbol("WAV"))), Resources: resource.MB(4, 2), SizeMB: 1.5}
			req.InstalledOn = []string{"*"}
		}
		out[o.name] = req
	}
	return out
}

// checkDecodeMatchesJSON requires decodeRequest to give what the
// encoding/json path gives for line: the same error text, or equal graphs
// and an equal rest. Where the scanner takes the line, its wire form must
// also equal encoding/json's field for field, nil against empty included.
// It reports whether the scanner took the line.
func checkDecodeMatchesJSON(t *testing.T, what string, line []byte) bool {
	t.Helper()
	got, gotErr := decodeRequest(line)
	want, wantErr := decodeRequestJSON(line)
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: decodeRequest says %v, encoding/json %v\nline %s", what, gotErr, wantErr, clip(line))
		}
	} else {
		if (got.App == nil) != (want.App == nil) {
			t.Errorf("%s: graph %v, encoding/json's %v\nline %s", what, got.App, want.App, clip(line))
		} else if want.App != nil {
			checkSameGraph(t, what, got.App, want.App)
		}
		got.App, want.App = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: request %+v, encoding/json's %+v\nline %s", what, got, want, clip(line))
		}
	}
	scanned, took, err := scanRequest(line)
	if took {
		var viaJSON wireRequest
		if jerr := json.Unmarshal(line, &viaJSON); jerr != nil {
			t.Errorf("%s: the scanner took a line encoding/json refuses (%v)\nline %s", what, jerr, clip(line))
		} else if want, _ := viaJSON.request(); err == nil && !sameForm(scanned, want) {
			t.Errorf("%s: scanned request differs from encoding/json's field for field\nline %s", what, clip(line))
		}
	}
	return took
}

// sameForm reports whether two decoded requests are equal field for field,
// nil against empty included, their graphs node for node and edge for
// edge.
func sameForm(a, b Request) bool {
	if (a.App == nil) != (b.App == nil) {
		return false
	}
	if a.App != nil {
		if !reflect.DeepEqual(a.App.Nodes(), b.App.Nodes()) || !reflect.DeepEqual(a.App.Edges(), b.App.Edges()) {
			return false
		}
		a.App, b.App = nil, nil
	}
	return reflect.DeepEqual(a, b)
}

// clip quotes at most the first 300 bytes of a line for a failure message.
func clip(line []byte) string {
	if len(line) > 300 {
		return strconv.Quote(string(line[:300])) + "..."
	}
	return strconv.Quote(string(line))
}

// Mutation material: numbers JSON and strconv disagree on or that strconv
// refuses, string contents the scanner must not take verbatim, values of
// every JSON type, and whitespace JSON does and does not allow.
var (
	numberRE    = regexp.MustCompile(`-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?`)
	stringRE    = regexp.MustCompile(`"[^"]*"`)
	keyRE       = regexp.MustCompile(`"[A-Za-z]+":`)
	valueRE     = regexp.MustCompile(`:("[^"]*"|[-0-9.eE+]+|true|false)`)
	numberForms = []string{"-0", "1E+2", ".5", "0x10", "1e400", "-1e400", "1e-400", "01", "1.", "1.0", "-",
		"+1", "1e", "1e+", "-.5", "00", "9223372036854775808", "Infinity", "NaN", "1_0", "2", "0.25", "-3"}
	stringForms = []string{`\"`, `\\`, `\/`, `\n`, `\u0041`, `\u00e9`, `\ud83d\ude00`, `\x`, "é", "\xff", "\x01", "\t", "\x7f", " "}
	valueForms  = []string{`"s"`, `""`, `1`, `-0`, `1.5`, `null`, `true`, `false`, `[]`, `{}`, `["a"]`, `[null]`, `{"a":"b"}`}
	spaceForms  = []string{" ", "\t", "\r", "\n", "\v", "\f", "\xc2\xa0", "\x00"}
	tailForms   = []string{"x", "}", " ", "\n\n", "{}", ",", "\x00", "]", " \t", "null"}
)

// mutations are the ways mutate may change a line.
var mutations = []func(rng *rand.Rand, line []byte) []byte{
	// Replace a number.
	func(rng *rand.Rand, line []byte) []byte {
		return replaceMatch(rng, line, numberRE, func([]byte) string { return numberForms[rng.Intn(len(numberForms))] })
	},
	// Insert an escape, a non-ASCII or a control byte into a string.
	func(rng *rand.Rand, line []byte) []byte {
		return replaceMatch(rng, line, stringRE, func(s []byte) string {
			i := 1 + rng.Intn(len(s)-1)
			return string(s[:i]) + stringForms[rng.Intn(len(stringForms))] + string(s[i:])
		})
	},
	// Respell a key: another case, another object's key, or an unknown one.
	func(rng *rand.Rand, line []byte) []byte {
		return replaceMatch(rng, line, keyRE, func(k []byte) string {
			key := string(k[1 : len(k)-2])
			switch rng.Intn(3) {
			case 0:
				key = strings.ToUpper(key[:1]) + key[1:]
			case 1:
				key = strings.ToUpper(key)
			default:
				key = anyKey(rng)
			}
			return `"` + key + `":`
		})
	},
	// Insert a member of any type under any key at the head of an object.
	func(rng *rand.Rand, line []byte) []byte {
		return insertAt(rng, line, '{', `"`+anyKey(rng)+`":`+valueForms[rng.Intn(len(valueForms))]+`,`)
	},
	// Repeat a member of the line in an object that holds the same key.
	func(rng *rand.Rand, line []byte) []byte { return repeatMember(rng, line) },
	// Replace a string or number value with null.
	func(rng *rand.Rand, line []byte) []byte {
		return replaceMatch(rng, line, valueRE, func([]byte) string { return ":null" })
	},
	// Insert whitespace, JSON's or not, anywhere.
	func(rng *rand.Rand, line []byte) []byte {
		i := rng.Intn(len(line) + 1)
		return splice(line, i, i, spaceForms[rng.Intn(len(spaceForms))])
	},
	// Append bytes after the object.
	func(rng *rand.Rand, line []byte) []byte {
		return splice(line, len(line), len(line), tailForms[rng.Intn(len(tailForms))])
	},
	// Truncate.
	func(rng *rand.Rand, line []byte) []byte { return line[:rng.Intn(len(line)+1)] },
	// Overwrite one byte.
	func(rng *rand.Rand, line []byte) []byte {
		if len(line) == 0 {
			return line
		}
		i := rng.Intn(len(line))
		return splice(line, i, i+1, string(rune(rng.Intn(128))))
	},
}

// mutate applies one to three mutations to a copy of line.
func mutate(rng *rand.Rand, line []byte) []byte {
	line = bytes.TrimRight(line, "\n")
	for n := 1 + rng.Intn(3); n > 0; n-- {
		line = mutations[rng.Intn(len(mutations))](rng, line)
	}
	return line
}

// repeatMember repeats a member of line in an object that holds the same
// key, ahead of the member already there, with one of the values that key
// has in line.
func repeatMember(rng *rand.Rand, line []byte) []byte {
	locs := keyRE.FindAllIndex(line, -1)
	if len(locs) == 0 {
		return line
	}
	at := locs[rng.Intn(len(locs))]
	key := line[at[0]:at[1]]
	var values []json.RawMessage
	for _, l := range locs {
		var v json.RawMessage
		if bytes.Equal(line[l[0]:l[1]], key) && json.NewDecoder(bytes.NewReader(line[l[1]:])).Decode(&v) == nil {
			values = append(values, v)
		}
	}
	if len(values) == 0 {
		return line
	}
	return splice(line, at[0], at[0], string(key)+string(values[rng.Intn(len(values))])+",")
}

// repeatedKeys are lines with a key repeated where encoding/json decodes
// the second value into what the first left: a QoS value's fields, a
// node's pin, an attribute map's keys survive. Replacing the first value
// instead would give another request.
var repeatedKeys = map[string]string{
	"userQoS":   `{"op":"start","userQoS":[{"name":"a","value":{"kind":1,"sym":"x"}}],"userQoS":[{"name":"b","value":{"kind":2,"num":3}}]}`,
	"app":       `{"op":"check","app":{"nodes":[{"id":"a","optional":true,"spec":{"type":"t"}}]},"app":{"nodes":[{"id":"a","spec":{"type":"t"}}]}}`,
	"nodes":     `{"op":"check","app":{"nodes":[{"id":"a","pin":"p","spec":{"type":"t"}}],"nodes":[{"id":"b","spec":{"type":"t"}}]}}`,
	"attrs":     `{"op":"check","app":{"nodes":[{"id":"a","spec":{"type":"t","attrs":{"k":"1"},"attrs":{"l":"2"}}}]}}`,
	"attr key":  `{"op":"check","app":{"nodes":[{"id":"a","spec":{"type":"t","attrs":{"k":"1","k":"2"}}}]}}`,
	"input":     `{"op":"check","app":{"nodes":[{"id":"a","spec":{"type":"t","input":[{"name":"f","value":{"kind":3,"lo":1,"hi":2}}],"input":[{"name":"g","value":{"kind":1,"sym":"s"}}]}}]}}`,
	"edges":     `{"op":"check","app":{"nodes":[{"id":"a","spec":{"type":"t"}},{"id":"b","spec":{"type":"t"}}],"edges":[{"from":"a","to":"b","throughputMbps":2}],"edges":[{"from":"a","to":"b"}]}}`,
	"spec":      `{"op":"check","app":{"nodes":[{"id":"a","spec":{"type":"t","output":[{"name":"f","value":{"kind":1,"sym":"s"}}]},"spec":{"type":"u"}}]}}`,
	"value":     `{"op":"start","userQoS":[{"name":"a","value":{"kind":4,"syms":["x"]},"value":{"kind":3,"lo":1,"hi":2}}]}`,
	"op":        `{"op":"stop","sessionId":"s","op":"session"}`,
	"maxFrames": `{"op":"start","maxFrames":1,"maxFrames":2}`,
	"syms":      `{"op":"start","userQoS":[{"name":"a","value":{"kind":4,"syms":["x","y"],"syms":["z"]}}]}`,
	"installed": `{"op":"unregister-service","name":"n","installedOn":["a","b"],"installedOn":["c"]}`,
}

// anyKey draws a key from every object of the request document, "instance"
// and one no object has.
func anyKey(rng *rand.Rand) string {
	lists := [][]string{keys(requestFields), graphFields, keys(nodeFields), keys(specFields),
		{"from", "to", "throughputMbps"}, keys(paramFields), keys(valueFields), {"instance", "extra"}}
	l := lists[rng.Intn(len(lists))]
	return l[rng.Intn(len(l))]
}

func keys[T any](fields []field[T]) []string {
	out := make([]string, len(fields))
	for i, f := range fields {
		out[i] = f.key
	}
	return out
}

// splice returns a copy of line with line[i:j] replaced by s.
func splice(line []byte, i, j int, s string) []byte {
	return append(append(append([]byte(nil), line[:i]...), s...), line[j:]...)
}

// replaceMatch replaces one random match of re in line by what with makes
// of it.
func replaceMatch(rng *rand.Rand, line []byte, re *regexp.Regexp, with func([]byte) string) []byte {
	locs := re.FindAllIndex(line, -1)
	if len(locs) == 0 {
		return line
	}
	l := locs[rng.Intn(len(locs))]
	return splice(line, l[0], l[1], with(line[l[0]:l[1]]))
}

// insertAt inserts s after a random occurrence of c in line.
func insertAt(rng *rand.Rand, line []byte, c byte, s string) []byte {
	var at []int
	for i, b := range line {
		if b == c {
			at = append(at, i+1)
		}
	}
	if len(at) == 0 {
		return line
	}
	i := at[rng.Intn(len(at))]
	return splice(line, i, i, s)
}

// equivalenceLines are the lines TestRequestDecodeMatchesJSON decodes both
// ways, by name: every interop case, 20 Table 1-size graphs, every op
// qosctl sends, the benchmark's hot shapes, 600 mutations of the smaller
// of these, and the repeated keys above.
func equivalenceLines(t testing.TB) map[string][]byte {
	lines := make(map[string][]byte)
	for _, tc := range codecCases(t) {
		lines["interop "+tc.name] = encodeLine(t, tc.req)
	}
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 20; i++ {
		lines[fmt.Sprintf("table1-%02d", i)] = encodeLine(t, Request{Op: OpStart, SessionID: "t", App: catalogueApp(rng, workload.Table1Params()), ClientDevice: "pda1"})
	}
	for name, req := range opRequests() {
		lines["op "+name] = encodeLine(t, req)
	}
	for name, req := range hotStarts(rng) {
		lines["hot "+name] = encodeLine(t, req)
	}
	var small []string
	for name, line := range lines {
		if len(line) < 4096 {
			small = append(small, name)
		}
	}
	sort.Strings(small)
	for i := 0; i < 600; i++ {
		base := small[rng.Intn(len(small))]
		lines[fmt.Sprintf("mutation %03d of %s", i, base)] = mutate(rng, lines[base])
	}
	for name, line := range repeatedKeys {
		lines["repeated "+name] = []byte(line)
	}
	for _, tc := range rejectedGraphs {
		line := rejectedLine(tc.nodes, tc.edges)
		lines["rejected "+tc.name] = line
		// The same graph in a line that goes on to fail: encoding/json's
		// words, not the graph's.
		lines["rejected then malformed "+tc.name] = append(line[:len(line)-1:len(line)-1], `,"maxFrames":"x"}`...)
	}
	lines["edges before nodes"] = []byte(`{"op":"check","app":{"edges":[{"from":"a","to":"b","throughputMbps":1}],"nodes":[` + ab + `]}}`)
	return lines
}

// TestRequestDecodeMatchesJSON: on every line, generated or mutated,
// decodeRequest gives what encoding/json gives, accepted or refused; and
// the mutations exercise both paths, some taken by the scanner and some
// deferred.
func TestRequestDecodeMatchesJSON(t *testing.T) {
	lines := equivalenceLines(t)
	names := make([]string, 0, len(lines))
	for name := range lines {
		names = append(names, name)
	}
	sort.Strings(names)
	scanned, mutated, mutatedScanned := 0, 0, 0
	for _, name := range names {
		took := checkDecodeMatchesJSON(t, name, lines[name])
		if took {
			scanned++
		}
		if strings.HasPrefix(name, "mutation") {
			mutated++
			if took {
				mutatedScanned++
			}
		}
	}
	t.Logf("%d lines, %d scanned; %d mutations, %d scanned", len(lines), scanned, mutated, mutatedScanned)
	if mutated < 500 || mutatedScanned < 25 || mutated-mutatedScanned < 25 {
		t.Errorf("%d mutations of which the scanner took %d: want ≥ 500, ≥ 25 taken and ≥ 25 deferred", mutated, mutatedScanned)
	}
}

// TestHotShapesTakeTheScanner: the benchmark's request shapes and every
// op but register-service (whose instance the scanner leaves to
// encoding/json) decode without deferring.
func TestHotShapesTakeTheScanner(t *testing.T) {
	reqs := hotStarts(rand.New(rand.NewSource(3)))
	for name, req := range opRequests() {
		if name != OpRegister {
			reqs["op "+name] = req
		}
	}
	for name, req := range reqs {
		if _, took, _ := scanRequest(encodeLine(t, req)); !took {
			t.Errorf("%s: the scanner deferred", name)
		}
	}
	if _, took, _ := scanRequest(encodeLine(t, opRequests()[OpRegister])); took {
		t.Error("register-service: the scanner took an instance")
	}
}

// TestRequestDecodeAllocationCeiling holds the decode of a Fig. 5 start
// line, graph built, to the 208 allocations it makes with its edge arrays
// sized before the edges are scanned (235 when they grew by doubling, 223
// on the old PlainGraph path; encoding/json alone makes 1 079).
func TestRequestDecodeAllocationCeiling(t *testing.T) {
	line := encodeLine(t, Request{Op: OpStart, SessionID: "s", App: fig5App(rand.New(rand.NewSource(5))), ClientDevice: "d0"})
	var err error
	allocs := testing.AllocsPerRun(20, func() { _, err = decodeRequest(line) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 208 {
		t.Errorf("decode of a %d-byte Fig. 5 line makes %.0f allocations, want ≤ 208", len(line), allocs)
	}
}

// TestRequestEncodeAllocationCeiling: a Fig. 5 start encoded into a
// reused buffer allocates nothing.
func TestRequestEncodeAllocationCeiling(t *testing.T) {
	req := Request{Op: OpStart, SessionID: "s", App: fig5App(rand.New(rand.NewSource(5))), ClientDevice: "d0",
		UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(20, 40))), MaxFrames: 1, TraceID: "9f86d081884c7d65", SpanID: "client-start"}
	var line []byte
	var err error
	allocs := testing.AllocsPerRun(20, func() { line, err = appendRequest(line[:0], req) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("encoding a %d-byte Fig. 5 line makes %.0f allocations, want 0", len(line), allocs)
	}
}

// TestRequestEncodeMatchesJSON: the client's lines are encoding/json's to
// the byte over the interop cases, the benchmark's hot shapes, every op
// qosctl sends and every line of the fuzz corpus that decodes; values
// encoding/json refuses are refused in its words; and a buffer too small
// for the line is grown, not overrun.
func TestRequestEncodeMatchesJSON(t *testing.T) {
	reqs := map[string]Request{}
	for _, tc := range codecCases(t) {
		reqs["interop "+tc.name] = tc.req
	}
	for name, req := range hotStarts(rand.New(rand.NewSource(3))) {
		reqs["hot "+name] = req
	}
	for name, req := range opRequests() {
		reqs["op "+name] = req
	}
	for name, line := range fuzzCorpus(t) {
		if req, err := decodeRequest(line); err == nil {
			reqs["corpus "+name] = req
		}
	}
	// Strings and numbers at the edges of encoding/json's escaping and
	// float formats.
	odd := composer.NewAbstractGraph()
	odd.MustAddNode(&composer.AbstractNode{ID: "<a&b>", Pin: "\u2028\u2029\x00\x1f\b\f\n\r\t\"\\\x7f", Spec: registry.Spec{
		Type:  "t\xff\xfe é 😀",
		Attrs: map[string]string{"z": "1", "a": "<>", "é": "", "A": "x"},
		Input: qos.V(qos.P("n", qos.Scalar(-0.0)), qos.P("r", qos.Range(1e-7, 1e21)), qos.P("s", qos.Set())),
	}})
	odd.MustAddNode(&composer.AbstractNode{ID: "b", Spec: registry.Spec{Type: "t"}})
	odd.MustAddEdge("<a&b>", "b", 123456789e-15)
	reqs["odd strings and numbers"] = Request{Op: "\u00e9", App: odd, MaxFrames: -1, InstalledOn: []string{}, UserQoS: qos.Vector{},
		Instance: &registry.Instance{Name: "<i>"}}
	reqs["exponents"] = Request{Op: OpStart, UserQoS: qos.V(qos.P("a", qos.Scalar(1e-6)), qos.P("b", qos.Scalar(9.99e-7)),
		qos.P("c", qos.Scalar(-1e20)), qos.P("d", qos.Range(math.SmallestNonzeroFloat64, math.MaxFloat64)))}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		reqs[fmt.Sprintf("user QoS %v", bad)] = Request{Op: OpStart, UserQoS: qos.Vector{{Name: "f", Value: qos.Value{Kind: qos.KindRange, Lo: 1, Hi: bad}}}}
		g := composer.NewAbstractGraph()
		g.MustAddNode(&composer.AbstractNode{ID: "a", Spec: registry.Spec{Type: "t"}})
		g.MustAddNode(&composer.AbstractNode{ID: "b", Spec: registry.Spec{Type: "t"}})
		if g.AddEdge("a", "b", bad) == nil { // -Inf is a negative throughput
			reqs[fmt.Sprintf("throughput %v", bad)] = Request{Op: OpStart, App: g}
		}
	}
	names := make([]string, 0, len(reqs))
	for name := range reqs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		checkEncodeMatchesJSON(t, name, reqs[name])
	}
	if len(names) < 150 {
		t.Errorf("%d requests, want ≥ 150: the corpus went missing", len(names))
	}
	line, err := appendRequest(make([]byte, 0, 8), reqs["hot bigraph"])
	if err != nil || !bytes.Equal(line, encodeLine(t, reqs["hot bigraph"])) {
		t.Errorf("appending into a short buffer: %v", err)
	}
}

// fuzzCorpus reads the lines of FuzzDecodeRequest's checked-in corpus.
func fuzzCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	const dir = "testdata/fuzz/FuzzDecodeRequest"
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	lines := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(dir + "/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		_, arg, ok := strings.Cut(string(b), "\n[]byte(")
		if !ok || !strings.HasSuffix(strings.TrimSpace(arg), ")") {
			t.Fatalf("%s: not a one-argument corpus file", e.Name())
		}
		line, err := strconv.Unquote(strings.TrimSuffix(strings.TrimSpace(arg), ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		lines[e.Name()] = []byte(line)
	}
	return lines
}

// replyCases are replies the server sends: every op's from opRequests on
// the audio space (most of them errors, or payloads encoding/json keeps),
// a Fig. 5 start's, a switch's, and a start the admission gate rejected,
// which carries its decision.
func replyCases(t *testing.T) map[string]Response {
	t.Helper()
	srv, _ := startServer(t)
	out := map[string]Response{}
	reqs := opRequests()
	for _, name := range []string{OpRegister, OpStart, OpSwitch} {
		out["op "+name] = srv.Handle(reqs[name])
	}
	for name, req := range reqs {
		if _, done := out["op "+name]; !done {
			out["op "+name] = srv.Handle(req)
		}
	}
	out["audio start"] = srv.Handle(Request{Op: OpStart, SessionID: "a", App: experiments.AudioOnDemandApp(), ClientDevice: "desktop2", MaxFrames: 1})
	out["audio switch"] = srv.Handle(Request{Op: OpSwitch, SessionID: "a", ToDevice: "jornada"})
	out["audio stop"] = srv.Handle(Request{Op: OpStop, SessionID: "a"})
	out["fig5 start"] = fig5Server(t).Handle(Request{Op: OpStart, SessionID: "f", App: fig5App(rand.New(rand.NewSource(5))), ClientDevice: "d0", MaxFrames: 1})
	dom, _ := startAdmissionServer(t)
	adm, err := NewServer(dom)
	if err != nil {
		t.Fatal(err)
	}
	out["rejected start"] = adm.Handle(Request{Op: OpStart, SessionID: "r", Class: "video", App: admissionTestApp(), ClientDevice: "desktop1"})
	if r := out["rejected start"]; r.OK || r.Admission == nil {
		t.Fatalf("the gate did not reject the start: %+v", r)
	}
	for _, name := range []string{"fig5 start", "audio start", "audio switch", "audio stop"} {
		if !out[name].OK {
			t.Fatalf("%s failed: %s", name, out[name].Error)
		}
	}
	// Strings and numbers at the edges of encoding/json's formats.
	out["odd session"] = Response{OK: true, Error: "<\u2028\xff\"\\>", Session: &SessionInfo{
		ID: "é", Placement: map[string]string{"b": "x", "a": "<y>", "é": ""}, Cost: 1e-7,
		Timing: TimingInfo{CompositionMs: -0.0, DistributionMs: 1e21, DownloadingMs: 0.1, InitOrHandoffMs: 123456.789},
		Rates:  map[string]float64{"z": 1, "y": 5e-324}, Summary: "s", DOT: "digraph {\n}"}}
	out["nil placement"] = Response{OK: true, Session: &SessionInfo{ID: "s"}}
	out["empty maps"] = Response{OK: true, Session: &SessionInfo{ID: "s", Placement: map[string]string{}, Rates: map[string]float64{}}}
	return out
}

// TestReplyCodecMatchesJSON: the replies the server writes by hand (ok,
// error, session) are json.Encoder's to the byte; the client scans every
// reply, by hand or through encoding/json, to what json.Unmarshal gives;
// and the start, stop and switch replies take the hand-written path.
func TestReplyCodecMatchesJSON(t *testing.T) {
	plain := 0
	for name, resp := range replyCases(t) {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.plain() {
			plain++
			got, err := appendResponse([]byte("stale"), &resp)
			if err != nil || !bytes.Equal(got[len("stale"):], want.Bytes()) {
				t.Errorf("%s: appendResponse writes (%v)\n%s\nencoding/json\n%s", name, err, got[len("stale"):], want.Bytes())
			}
		} else if strings.Contains(name, "start") && name != "rejected start" || strings.Contains(name, "stop") || strings.Contains(name, "switch") {
			t.Errorf("%s: the reply is not plain", name)
		}
		var viaJSON Response
		if err := json.Unmarshal(want.Bytes(), &viaJSON); err != nil {
			t.Fatal(err)
		}
		got, err := decodeResponse(want.Bytes())
		if err != nil || !reflect.DeepEqual(got, viaJSON) {
			t.Errorf("%s: the client reads %+v (%v), json.Unmarshal %+v", name, got, err, viaJSON)
		}
		if scanned, took := scanResponse(want.Bytes()); took && !reflect.DeepEqual(scanned, viaJSON) {
			t.Errorf("%s: scanned %+v, json.Unmarshal %+v", name, scanned, viaJSON)
		}
	}
	if plain < 8 {
		t.Errorf("%d plain replies, want ≥ 8", plain)
	}
	// Refused as encoding/json refuses.
	for _, bad := range []float64{math.NaN(), math.Inf(-1)} {
		resp := Response{OK: true, Session: &SessionInfo{Rates: map[string]float64{"r": bad}}}
		_, err := appendResponse(nil, &resp)
		if want := json.NewEncoder(io.Discard).Encode(resp); fmt.Sprint(err) != fmt.Sprint(want) {
			t.Errorf("rate %v: appendResponse says %v, encoding/json %v", bad, err, want)
		}
	}
	// A hand-scanned reply shares no bytes with the line.
	line := []byte(`{"ok":true,"session":{"id":"s","clientDevice":"d","placement":{"a":"b"},"cost":1,"timing":{"compositionMs":1,"distributionMs":2,"downloadingMs":3,"initOrHandoffMs":4},"summary":"x"}}`)
	resp, took := scanResponse(line)
	for i := range line {
		line[i] = 'x'
	}
	if !took || resp.Session.ID != "s" || resp.Session.Placement["a"] != "b" || resp.Session.Summary != "x" {
		t.Errorf("after the line was overwritten the reply reads %+v", resp.Session)
	}
}

// TestPlainCoversResponse: setting any field of Response but ok, error
// and session makes a reply not plain, so no field is ever dropped by the
// hand-written encoder.
func TestPlainCoversResponse(t *testing.T) {
	rt := reflect.TypeOf(Response{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Name == "OK" || f.Name == "Error" || f.Name == "Session" {
			continue
		}
		var r Response
		v := reflect.ValueOf(&r).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString("x")
		case reflect.Pointer:
			v.Set(reflect.New(f.Type.Elem()))
		case reflect.Slice:
			v.Set(reflect.MakeSlice(f.Type, 0, 0))
		default:
			t.Fatalf("field %s: kind %s not covered", f.Name, v.Kind())
		}
		if r.plain() {
			t.Errorf("a reply with %s set is plain", f.Name)
		}
	}
}

// TestHandCodecCoversEveryField: with every exported field of a request
// (its graph's nodes, specs and QoS values too) and of a session reply set,
// the hand-written encoders still write encoding/json's bytes and the
// scanners still take the lines and read them back whole. A field added to
// any of these structs and left out of the encoder or the scanner fails
// here.
func TestHandCodecCoversEveryField(t *testing.T) {
	var req Request
	fillAll(t, reflect.ValueOf(&req).Elem())
	app := composer.NewAbstractGraph()
	for _, id := range []graph.NodeID{"a", "b"} {
		var n composer.AbstractNode
		fillAll(t, reflect.ValueOf(&n).Elem())
		n.ID = id
		app.MustAddNode(&n)
	}
	app.MustAddEdge("a", "b", 1.5)
	req.App = app
	checkEncodeMatchesJSON(t, "every request field", req)
	req.Instance = nil // the scanner leaves an instance to encoding/json
	got, took, err := scanRequest(encodeLine(t, req))
	if !took || err != nil || !sameRequest(got, req) {
		t.Errorf("every request field: the scanner took %v (%v) and read %+v", took, err, got)
	}

	resp := Response{OK: true, Error: "x", Session: new(SessionInfo)}
	fillAll(t, reflect.ValueOf(resp.Session).Elem())
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(resp); err != nil {
		t.Fatal(err)
	}
	if line, err := appendResponse(nil, &resp); err != nil || !bytes.Equal(line, want.Bytes()) {
		t.Errorf("every session field: appendResponse writes (%v)\n%s\nencoding/json\n%s", err, line, want.Bytes())
	}
	if scanned, took := scanResponse(want.Bytes()); !took || !reflect.DeepEqual(scanned, resp) {
		t.Errorf("every session field: the scanner took %v and read %+v", took, scanned.Session)
	}
}

// fillAll sets every exported field under v, through pointers and through
// slices and maps of one element, to a value that is not its zero, so
// that no omitempty hides it.
func fillAll(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(2)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1.5)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillAll(t, v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillAll(t, v.Index(0))
	case reflect.Map:
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fillAll(t, k)
		fillAll(t, e)
		v.Set(reflect.MakeMapWithSize(v.Type(), 1))
		v.SetMapIndex(k, e)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillAll(t, v.Field(i))
			}
		}
	default:
		t.Fatalf("%s: kind %s not covered", v.Type(), v.Kind())
	}
}

// TestDecodedRequestOwnsItsStrings: the server's scanner reuses its line
// buffer, so a decoded request must not share bytes with the line.
func TestDecodedRequestOwnsItsStrings(t *testing.T) {
	for name, req := range hotStarts(rand.New(rand.NewSource(4))) {
		line := encodeLine(t, req)
		want, err := decodeRequest(bytes.Clone(line))
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRequest(line)
		if err != nil {
			t.Fatal(err)
		}
		for i := range line {
			line[i] = 'x'
		}
		if want.App != nil {
			checkSameGraph(t, name, got.App, want.App)
		}
		got.App, want.App = nil, nil
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: after the line was overwritten the request reads %+v, want %+v", name, got, want)
		}
	}
}

// FuzzDecodeRequest: no line panics the decoder; decodeRequest agrees
// with encoding/json on it; and whatever decodes, appendRequest encodes to
// the oracle's bytes, in a line that decodes to an equal request
// (decode∘encode is the identity) and re-encodes to itself. The seed
// corpus in testdata/ holds the interop cases, the rejection lines, one
// request per op and mutations.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecodeMatchesJSON(t, "fuzz", line)
		req, err := decodeRequest(line)
		if err != nil {
			return
		}
		checkEncodeMatchesJSON(t, "fuzz", req)
		first := encodeLine(t, req)
		again, err := decodeRequest(first)
		if err != nil {
			t.Fatalf("the re-encoded line does not decode: %v\nline %s", err, clip(first))
		}
		if !sameRequest(again, req) {
			t.Errorf("decode∘encode changed the request\n%s", clip(first))
		}
		if second := encodeLine(t, again); !bytes.Equal(first, second) {
			t.Errorf("encode∘decode moved the line\n%s\n%s", clip(first), clip(second))
		}
	})
}
