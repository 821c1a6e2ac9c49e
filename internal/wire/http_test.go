package wire

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ubiqos/internal/buildinfo"
	"ubiqos/internal/distributor"
	"ubiqos/internal/experiments"
	"ubiqos/internal/explain"
	"ubiqos/internal/flight"
	"ubiqos/internal/metrics"
	"ubiqos/internal/qos"
	"ubiqos/internal/trace"
)

// TestObservabilityEndToEnd is the acceptance scenario: an in-process
// daemon configured with the optimal solver runs one PDA session
// (forcing a transcoder correction), and the full observability surface
// is checked — the trace op's span tree (compose → discover →
// OC-correction → distribute with correction kinds and branch-and-bound
// counters) and the Prometheus exposition's per-stage p50/p95/p99.
func TestObservabilityEndToEnd(t *testing.T) {
	dom, err := experiments.BuildAudioSpaceWith(0.05, distributor.Optimal)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dom.Close)
	srv, err := NewServer(dom)
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(NewHTTPHandler(dom))
	t.Cleanup(web.Close)

	// The PDA portal only plays WAV; the MPEG audio server forces the OC
	// tier to insert the mpeg2wav transcoder.
	resp := srv.Handle(Request{
		Op:           OpStart,
		SessionID:    "e2e-1",
		App:          experiments.AudioOnDemandApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(35, 44))),
		ClientDevice: "jornada",
	})
	if !resp.OK {
		t.Fatalf("start: %s", resp.Error)
	}
	defer srv.Handle(Request{Op: OpStop, SessionID: "e2e-1"})

	// --- The trace op: the span tree qosctl trace renders. ---
	tresp := srv.Handle(Request{Op: OpTrace, SessionID: "e2e-1"})
	if !tresp.OK {
		t.Fatalf("trace: %s", tresp.Error)
	}
	td := tresp.Trace
	byName := map[string]*trace.SpanData{}
	for i := range td.Spans {
		sp := &td.Spans[i]
		if _, ok := byName[sp.Name]; !ok {
			byName[sp.Name] = sp
		}
	}
	for _, stage := range []string{"compose", "discover", "ordered-coordination", "correction", "distribute"} {
		if byName[stage] == nil {
			t.Fatalf("trace missing %q span:\n%s", stage, td.Render())
		}
	}
	if kind := byName["correction"].Attrs["kind"]; kind != "transcoder" {
		t.Errorf("correction kind = %v, want transcoder", kind)
	}
	dist := byName["distribute"]
	if dist.Attrs["algorithm"] != "optimal" {
		t.Errorf("distribute algorithm = %v", dist.Attrs["algorithm"])
	}
	if explored, ok := dist.Attrs["explored"].(int64); !ok || explored == 0 {
		t.Errorf("distribute explored = %v, want > 0", dist.Attrs["explored"])
	}
	if _, ok := dist.Attrs["pruned"].(int64); !ok {
		t.Errorf("distribute pruned = %v", dist.Attrs["pruned"])
	}
	if byName["branch-and-bound"] == nil {
		t.Errorf("solver span missing:\n%s", td.Render())
	}

	// --- /metrics: Prometheus text with per-stage quantiles. ---
	body := httpGet(t, web.URL+"/metrics")
	for _, want := range []string{
		`composition_time_seconds{quantile="0.5"}`,
		`composition_time_seconds{quantile="0.95"}`,
		`composition_time_seconds{quantile="0.99"}`,
		`distribution_time_seconds{quantile="0.5"}`,
		"composition_time_seconds_count 1",
		"configs_total 1",
		"transcoders_inserted_total 1",
		"bnb_nodes_explored_total",
		`wire_requests_total{op="start"} 1`,
		"# TYPE composition_time_seconds summary",
		// Go runtime health gauges, refreshed per scrape.
		"go_goroutines",
		"go_heap_alloc_bytes",
		"go_gc_pause_p99_seconds",
		"process_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// --- /healthz ---
	var health struct {
		OK       bool           `json:"ok"`
		Domain   string         `json:"domain"`
		Devices  int            `json:"devices"`
		Sessions int            `json:"sessions"`
		Version  buildinfo.Info `json:"version"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, web.URL+"/healthz")), &health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || health.Domain != "audio-space" || health.Devices != 4 || health.Sessions != 1 {
		t.Errorf("healthz = %+v", health)
	}
	if health.Version.GoVersion == "" || health.Version.Path != "ubiqos" {
		t.Errorf("healthz version = %+v, want goVersion and path=ubiqos", health.Version)
	}

	// --- /traces ---
	var list []trace.TraceData
	if err := json.Unmarshal([]byte(httpGet(t, web.URL+"/traces")), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Session != "e2e-1" {
		t.Errorf("traces = %+v", list)
	}
	var one trace.TraceData
	if err := json.Unmarshal([]byte(httpGet(t, web.URL+"/traces?session=e2e-1")), &one); err != nil {
		t.Fatal(err)
	}
	if one.Session != "e2e-1" || len(one.Spans) != len(td.Spans) {
		t.Errorf("trace by session = %d spans, want %d", len(one.Spans), len(td.Spans))
	}

	// --- /flight: fused timeline for the configured session. ---
	var index []flight.SessionInfo
	if err := json.Unmarshal([]byte(httpGet(t, web.URL+"/flight")), &index); err != nil {
		t.Fatal(err)
	}
	if len(index) != 1 || index[0].Session != "e2e-1" {
		t.Errorf("flight index = %+v", index)
	}
	var entries []flight.Entry
	if err := json.Unmarshal([]byte(httpGet(t, web.URL+"/flight/e2e-1")), &entries); err != nil {
		t.Fatal(err)
	}
	kinds := map[flight.Kind]bool{}
	for _, e := range entries {
		kinds[e.Kind] = true
	}
	if !kinds[flight.KindLog] || !kinds[flight.KindSpan] {
		t.Errorf("flight timeline kinds = %v, want log and span entries", kinds)
	}
	if text := httpGet(t, web.URL+"/flight/e2e-1?format=text"); !strings.Contains(text, "flight e2e-1") {
		t.Errorf("text flight rendering = %q", text)
	}

	// --- /explain: decision provenance for the configured session. ---
	var xindex []explain.SessionInfo
	if err := json.Unmarshal([]byte(httpGet(t, web.URL+"/explain")), &xindex); err != nil {
		t.Fatal(err)
	}
	if len(xindex) != 1 || xindex[0].Session != "e2e-1" || xindex[0].Records != 1 {
		t.Errorf("explain index = %+v", xindex)
	}
	var se explain.SessionExplain
	if err := json.Unmarshal([]byte(httpGet(t, web.URL+"/explain/e2e-1")), &se); err != nil {
		t.Fatal(err)
	}
	if len(se.Records) != 1 {
		t.Fatalf("explain records = %d, want 1", len(se.Records))
	}
	rec := se.Records[0]
	if rec.Action != explain.ActionConfigure || rec.TraceID == "" || len(rec.Placement) == 0 {
		t.Errorf("explain record = action %q trace %q placement %v", rec.Action, rec.TraceID, rec.Placement)
	}
	if rec.TraceID != td.TraceID {
		t.Errorf("explain traceId = %q, want the configuration trace %q", rec.TraceID, td.TraceID)
	}
	withCandidates := 0
	for _, d := range rec.Discoveries {
		if len(d.Candidates) > 0 {
			withCandidates++
		}
	}
	if len(rec.Discoveries) == 0 || withCandidates == 0 {
		t.Errorf("explain discoveries = %d (%d with candidate sets), want both > 0",
			len(rec.Discoveries), withCandidates)
	}
	foundTranscoder := false
	for _, c := range rec.Corrections {
		if c.Rule == "transcoder" {
			foundTranscoder = true
			if c.BeforeQoS == "" || c.AfterQoS == "" {
				t.Errorf("transcoder correction missing QoS vectors: %+v", c)
			}
		}
	}
	if !foundTranscoder {
		t.Errorf("explain corrections = %+v, want a transcoder rule", rec.Corrections)
	}
	if rec.Search == nil {
		t.Fatal("explain record has no search summary")
	}
	if rec.Search.Algorithm != "optimal" || rec.Search.Explored == 0 ||
		rec.Search.Cost <= 0 || len(rec.Search.BoundTrajectory) == 0 {
		t.Errorf("explain search = %+v", rec.Search)
	}
	xtext := httpGet(t, web.URL+"/explain/e2e-1?format=text")
	for _, want := range []string{"explain e2e-1", "discover", "correction transcoder", "search optimal:", "placement:"} {
		if !strings.Contains(xtext, want) {
			t.Errorf("text explain rendering missing %q:\n%s", want, xtext)
		}
	}

	// --- /slo: burn-rate status of the default objectives. ---
	var slo []metrics.Status
	if err := json.Unmarshal([]byte(httpGet(t, web.URL+"/slo")), &slo); err != nil {
		t.Fatal(err)
	}
	if len(slo) < 3 {
		t.Errorf("/slo reported %d objectives, want at least 3", len(slo))
	}
	if text := httpGet(t, web.URL+"/slo?format=text"); !strings.Contains(text, "configure-p95") {
		t.Errorf("text slo rendering = %q", text)
	}
	body = httpGet(t, web.URL+"/metrics")
	if !strings.Contains(body, "slo_burn_rate{") || !strings.Contains(body, "slo_violations") {
		t.Error("/slo did not publish burn-rate gauges into /metrics")
	}
}

// TestExplainPlacementDiffAfterCrash is the recovery half of the
// acceptance scenario: crash the device hosting a session's server
// component and verify /explain/<session> records the recovery as a
// second record, diffs the placements (the server moved off the dead
// device), and captures the supervisor's ladder outcome.
func TestExplainPlacementDiffAfterCrash(t *testing.T) {
	dom, err := experiments.BuildChaosSpace(0.05, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dom.Close)
	srv, err := NewServer(dom)
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(NewHTTPHandler(dom))
	t.Cleanup(web.Close)
	sup := startSupervisor(t, dom)

	resp := srv.Handle(Request{
		Op:           OpStart,
		SessionID:    "diff-1",
		App:          experiments.ChaosAudioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44))),
		ClientDevice: "jornada",
	})
	if !resp.OK {
		t.Fatalf("start: %s", resp.Error)
	}
	victim := resp.Session.Placement["server"]
	if victim == "" || victim == "jornada" {
		t.Fatalf("server placed on %q", victim)
	}
	if resp = srv.Handle(Request{Op: OpCrashDevice, ToDevice: victim}); !resp.OK {
		t.Fatalf("crash: %s", resp.Error)
	}
	awaitIdle(t, sup)

	var se explain.SessionExplain
	if err := json.Unmarshal([]byte(httpGet(t, web.URL+"/explain/diff-1")), &se); err != nil {
		t.Fatal(err)
	}
	if len(se.Records) < 2 {
		t.Fatalf("explain records after crash = %d, want >= 2", len(se.Records))
	}
	last := se.Records[len(se.Records)-1]
	if last.Action == explain.ActionConfigure {
		t.Errorf("last record action = %q, want a recovery/reconfigure action", last.Action)
	}
	if last.Ladder == nil || last.Ladder.Outcome != "recovered" {
		t.Errorf("last record ladder = %+v, want the supervisor's recovered outcome", last.Ladder)
	}
	for comp, dev := range last.Placement {
		if dev == victim {
			t.Errorf("recovered placement still maps %s to crashed %s", comp, victim)
		}
	}
	if len(se.Diffs) == 0 {
		t.Fatal("explain has no placement diffs after recovery")
	}
	diff := se.Diffs[len(se.Diffs)-1]
	movedOff := false
	for _, m := range diff.Moved {
		if m.From == victim {
			movedOff = true
		}
	}
	if !movedOff {
		t.Errorf("placement diff moved = %+v, want a move off %s", diff.Moved, victim)
	}
	text := httpGet(t, web.URL+"/explain/diff-1?format=text")
	if !strings.Contains(text, "placement diffs:") || !strings.Contains(text, "moved") {
		t.Errorf("text rendering missing placement diff:\n%s", text)
	}
}

func TestHTTPHandlerErrors(t *testing.T) {
	dom, err := experiments.BuildAudioSpace(0.05)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dom.Close)
	web := httptest.NewServer(NewHTTPHandler(dom))
	t.Cleanup(web.Close)

	if code := httpStatus(t, web.URL+"/traces?session=ghost"); code != http.StatusNotFound {
		t.Errorf("unknown session status = %d", code)
	}
	if code := httpStatus(t, web.URL+"/traces?n=zero"); code != http.StatusBadRequest {
		t.Errorf("bad n status = %d", code)
	}
	if body := httpGet(t, web.URL+"/traces"); strings.TrimSpace(body) != "[]" {
		t.Errorf("empty traces = %q", body)
	}
	if code := httpStatus(t, web.URL+"/flight/ghost"); code != http.StatusNotFound {
		t.Errorf("unknown flight session status = %d", code)
	}
	if body := httpGet(t, web.URL+"/flight"); strings.TrimSpace(body) != "[]" {
		t.Errorf("empty flight index = %q", body)
	}
	if code := httpStatus(t, web.URL+"/explain/ghost"); code != http.StatusNotFound {
		t.Errorf("unknown explain session status = %d", code)
	}
	if body := httpGet(t, web.URL+"/explain"); strings.TrimSpace(body) != "[]" {
		t.Errorf("empty explain index = %q", body)
	}
	// Read-only surface: writes are rejected with 405 on every endpoint.
	for _, path := range []string{"/metrics", "/healthz", "/traces", "/flight", "/explain", "/slo"} {
		resp, err := http.Post(web.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s status = %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
			t.Errorf("POST %s Allow header = %q", path, allow)
		}
	}
	if !strings.Contains(httpGet(t, web.URL+"/debug/pprof/cmdline"), "wire") {
		t.Error("pprof cmdline endpoint not serving")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func httpStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}
