package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"

	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/domain"
	"ubiqos/internal/experiments"
	"ubiqos/internal/metrics"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
	"ubiqos/internal/spec"
	"ubiqos/internal/workload"
)

// fig5App turns a Fig. 5-size random service graph into an abstract graph
// of "svc" services with the same structure, its last node (the only sink)
// pinned to the client.
func fig5App(rng *rand.Rand) *composer.AbstractGraph {
	g := workload.MustRandomGraph(rng, workload.Fig5Params())
	ag := composer.NewAbstractGraph()
	nodes := g.Nodes()
	for i, n := range nodes {
		an := &composer.AbstractNode{ID: n.ID, Spec: registry.Spec{Type: "svc"}}
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

// encodeLine is the line the new client writes for req.
func encodeLine(t testing.TB, req Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeRequest(json.NewEncoder(&buf), req); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

// TestRequestCodecInterop: an old client's line (json.Marshal of a
// Request, the graph through its MarshalJSON) decodes on the new server,
// and the new client's line decodes on an old server (json.Unmarshal into
// a Request, the graph through its UnmarshalJSON), both to the graph that
// was sent.
func TestRequestCodecInterop(t *testing.T) {
	src, err := os.ReadFile("../../testdata/mobile-audio.spec")
	if err != nil {
		t.Fatal(err)
	}
	specApp, specQoS, _, err := spec.Load(string(src))
	if err != nil {
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

	type codecCase struct {
		name string
		req  Request
	}
	cases := []codecCase{
		{"mobile-audio.spec", Request{Op: OpStart, SessionID: "s", App: specApp, UserQoS: specQoS, ClientDevice: "desktop2"}},
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

	for _, tc := range cases {
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

// TestRequestDecodeRejections: what AddNode and AddEdge refuse, both decode
// paths refuse in the same words; and the two edge cases of "app" behave
// as they always have.
func TestRequestDecodeRejections(t *testing.T) {
	const ab = `{"id":"a","spec":{"type":"t"}},{"id":"b","spec":{"type":"t"}}`
	cases := []struct{ name, nodes, edges, want string }{
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
	for _, tc := range cases {
		line := []byte(`{"op":"start","app":{"nodes":[` + tc.nodes + `],"edges":[` + tc.edges + `]}}`)
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

// BenchmarkStartReply measures building and encoding the reply to a
// Fig. 5-size start, which no longer renders the placed graph.
func BenchmarkStartReply(b *testing.B) {
	srv := fig5Server(b)
	resp := srv.Handle(Request{Op: OpStart, SessionID: "s", App: fig5App(rand.New(rand.NewSource(5))), ClientDevice: "d0", MaxFrames: 1})
	if !resp.OK {
		b.Fatalf("start: %s", resp.Error)
	}
	active := srv.dom.Configurator.Session("s")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := enc.Encode(Response{OK: true, Session: sessionInfoOf(active)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len()), "bytes/reply")
}
