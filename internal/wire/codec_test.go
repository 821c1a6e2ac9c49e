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
	"regexp"
	"sort"
	"strconv"
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

type codecCase struct {
	name string
	req  Request
}

// codecCases are the requests TestRequestCodecInterop sends both ways: a
// parsed spec, the prototype's two applications, every node field, the
// empty graph, no graph, and 50 Fig. 5-size graphs.
func codecCases(t testing.TB) []codecCase {
	t.Helper()
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
	scanned, ok := scanRequest(line)
	if ok {
		var viaJSON wireRequest
		if err := json.Unmarshal(line, &viaJSON); err != nil {
			t.Errorf("%s: the scanner took a line encoding/json refuses (%v)\nline %s", what, err, clip(line))
		} else if !reflect.DeepEqual(scanned, viaJSON) {
			t.Errorf("%s: scanned wire form differs from encoding/json's\nline %s", what, clip(line))
		}
	}
	return ok
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
	lists := [][]string{keys(requestFields), keys(graphFields), keys(nodeFields), keys(specFields),
		keys(edgeFields), keys(paramFields), keys(valueFields), {"instance", "extra"}}
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
		if _, ok := scanRequest(encodeLine(t, req)); !ok {
			t.Errorf("%s: the scanner deferred", name)
		}
	}
	if _, ok := scanRequest(encodeLine(t, opRequests()[OpRegister])); ok {
		t.Error("register-service: the scanner took an instance")
	}
}

// TestRequestDecodeAllocationCeiling holds the decode of a Fig. 5 start
// line to 300 allocations (encoding/json alone makes 1 079).
func TestRequestDecodeAllocationCeiling(t *testing.T) {
	line := encodeLine(t, Request{Op: OpStart, SessionID: "s", App: fig5App(rand.New(rand.NewSource(5))), ClientDevice: "d0"})
	var err error
	allocs := testing.AllocsPerRun(20, func() { _, err = decodeRequest(line) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 300 {
		t.Errorf("decode of a %d-byte Fig. 5 line makes %.0f allocations, want ≤ 300", len(line), allocs)
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
// with encoding/json on it; and whatever decodes re-encodes to a line that
// decodes and re-encodes to itself. The seed corpus in testdata/ holds the
// interop cases, the rejection lines, one request per op and mutations.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecodeMatchesJSON(t, "fuzz", line)
		req, err := decodeRequest(line)
		if err != nil {
			return
		}
		first := encodeLine(t, req)
		again, err := decodeRequest(first)
		if err != nil {
			t.Fatalf("the re-encoded line does not decode: %v\nline %s", err, clip(first))
		}
		if second := encodeLine(t, again); !bytes.Equal(first, second) {
			t.Errorf("encode∘decode moved the line\n%s\n%s", clip(first), clip(second))
		}
	})
}
