package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"ubiqos/internal/metrics"

	"ubiqos/internal/experiments"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
)

// startServer boots a server over the paper's audio smart space on a
// random port.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	dom, err := experiments.BuildAudioSpace(0.05)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dom.Close)
	srv, err := NewServer(dom)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, addr
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil); err == nil {
		t.Error("nil domain should fail")
	}
}

func TestPingAndLists(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Call(Request{Op: OpPing}); err != nil {
		t.Fatalf("ping: %v", err)
	}
	resp, err := c.Call(Request{Op: OpListDevices})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Devices) != 4 {
		t.Errorf("devices = %d, want 4", len(resp.Devices))
	}
	found := false
	for _, d := range resp.Devices {
		if d.ID == "jornada" && d.Class == "pda" && d.Up {
			found = true
		}
	}
	if !found {
		t.Errorf("jornada missing from %v", resp.Devices)
	}
	resp, err = c.Call(Request{Op: OpListInst})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Services) != 4 {
		t.Errorf("services = %d, want 4", len(resp.Services))
	}
}

func TestStartSwitchStopLifecycle(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Call(Request{
		Op:           OpStart,
		SessionID:    "audio-1",
		App:          experiments.AudioOnDemandApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(38, 44))),
		ClientDevice: "desktop2",
	})
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	if resp.Session == nil || resp.Session.Placement["player"] != "desktop2" {
		t.Fatalf("session = %+v", resp.Session)
	}
	if resp.Session.Timing.CompositionMs < 0 {
		t.Error("timing missing")
	}

	resp, err = c.Call(Request{Op: OpSessions})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Sessions) != 1 || resp.Sessions[0] != "audio-1" {
		t.Errorf("sessions = %v", resp.Sessions)
	}

	resp, err = c.Call(Request{Op: OpSwitch, SessionID: "audio-1", ToDevice: "jornada"})
	if err != nil {
		t.Fatalf("switch: %v", err)
	}
	if resp.Session.Placement["player"] != "jornada" {
		t.Errorf("placement after switch = %v", resp.Session.Placement)
	}
	if !strings.Contains(resp.Session.Summary, "transcoder") {
		t.Errorf("summary = %q, want transcoder insertion", resp.Session.Summary)
	}

	resp, err = c.Call(Request{Op: OpSession, SessionID: "audio-1"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Session.ClientDevice != "jornada" {
		t.Errorf("client device = %s", resp.Session.ClientDevice)
	}

	if _, err := c.Call(Request{Op: OpStop, SessionID: "audio-1"}); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if _, err := c.Call(Request{Op: OpSession, SessionID: "audio-1"}); err == nil {
		t.Error("stopped session should be unknown")
	}
}

func TestServerErrors(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Call(Request{Op: "bogus"}); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Errorf("err = %v", err)
	}
	if _, err := c.Call(Request{Op: OpStart, SessionID: "x"}); err == nil {
		t.Error("start without app should fail")
	}
	if _, err := c.Call(Request{Op: OpStop, SessionID: "ghost"}); err == nil {
		t.Error("stop unknown session should fail")
	}
	if _, err := c.Call(Request{Op: OpSwitch, SessionID: "ghost", ToDevice: "jornada"}); err == nil {
		t.Error("switch unknown session should fail")
	}
}

func TestMalformedRequestLine(t *testing.T) {
	srv, _ := startServer(t)
	resp := srv.Handle(Request{Op: OpPing})
	if !resp.OK {
		t.Error("direct handle failed")
	}
	// A malformed JSON line yields an error response, not a dropped
	// connection: exercised through the socket path.
	_, addr2 := startServer(t)
	c, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.conn.Write([]byte("{not json}\n")); err != nil {
		t.Fatal(err)
	}
	if !c.sc.Scan() {
		t.Fatal("no response to malformed line")
	}
	if !strings.Contains(c.sc.Text(), "bad request") {
		t.Errorf("response = %s", c.sc.Text())
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t)
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			c, err := Dial(addr)
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				if _, err := c.Call(Request{Op: OpListDevices}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCloseIdempotent(t *testing.T) {
	srv, _ := startServer(t)
	srv.Close()
	srv.Close()
	if _, err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("listen after close should fail")
	}
}

func TestMetricsOp(t *testing.T) {
	srv, _ := startServer(t)
	resp := srv.Handle(Request{Op: OpStart, SessionID: "m", App: experiments.AudioOnDemandApp(), ClientDevice: "desktop2"})
	if !resp.OK {
		t.Fatalf("start: %s", resp.Error)
	}
	resp = srv.Handle(Request{Op: OpMetrics})
	if !resp.OK || !strings.Contains(resp.Metrics, "configs_total 1") {
		t.Errorf("metrics = %q", resp.Metrics)
	}
	srv.Handle(Request{Op: OpStop, SessionID: "m"})
}

func TestCheckOp(t *testing.T) {
	srv, _ := startServer(t)
	resp := srv.Handle(Request{Op: OpCheck, App: experiments.AudioOnDemandApp(), ClientDevice: "jornada"})
	if !resp.OK {
		t.Fatalf("check: %s", resp.Error)
	}
	if !strings.Contains(resp.CheckSummary, "transcoder") {
		t.Errorf("check summary = %q, want transcoder insertion prediction", resp.CheckSummary)
	}
	// Nothing was deployed.
	if got := srv.Handle(Request{Op: OpSessions}); len(got.Sessions) != 0 {
		t.Errorf("check must not create sessions: %v", got.Sessions)
	}
	if resp := srv.Handle(Request{Op: OpCheck}); resp.OK {
		t.Error("check without app should fail")
	}
}

func TestCrashDeviceOp(t *testing.T) {
	srv, _ := startServer(t)
	resp := srv.Handle(Request{Op: OpStart, SessionID: "m", App: experiments.AudioOnDemandApp(), ClientDevice: "desktop2"})
	if !resp.OK {
		t.Fatalf("start: %s", resp.Error)
	}
	// The server component is pinned to desktop1; crashing desktop3 (which
	// hosts nothing) strands nothing.
	resp = srv.Handle(Request{Op: OpCrashDevice, ToDevice: "desktop3"})
	if !resp.OK {
		t.Fatalf("crash: %s", resp.Error)
	}
	if len(resp.Stranded) != 0 {
		t.Errorf("stranded = %v, want none (desktop3 hosted nothing)", resp.Stranded)
	}
	// Crashing desktop1 strands the session and leaves it in place: with
	// no supervisor running, nothing re-places it.
	resp = srv.Handle(Request{Op: OpCrashDevice, ToDevice: "desktop1"})
	if !resp.OK || len(resp.Stranded) != 1 || resp.Stranded[0] != "m" {
		t.Fatalf("crash desktop1: ok %v, error %q, stranded %v; want m stranded", resp.OK, resp.Error, resp.Stranded)
	}
	if resp := srv.Handle(Request{Op: OpSession, SessionID: "m"}); !resp.OK || resp.Session.Placement["server"] != "desktop1" {
		t.Errorf("session after the crash: %+v, want it untouched on desktop1", resp)
	}
	if resp := srv.Handle(Request{Op: OpCrashDevice, ToDevice: "ghost"}); resp.OK {
		t.Error("crashing an unknown device should fail")
	}
	srv.Handle(Request{Op: OpStop, SessionID: "m"})
}

// TestSessionDOT: the session op renders the placed graph; the start and
// switch replies, whose dot nobody reads, carry none.
func TestSessionDOT(t *testing.T) {
	srv, _ := startServer(t)
	resp := srv.Handle(Request{Op: OpStart, SessionID: "d", App: experiments.AudioOnDemandApp(), ClientDevice: "desktop2"})
	if !resp.OK {
		t.Fatalf("start: %s", resp.Error)
	}
	defer srv.Handle(Request{Op: OpStop, SessionID: "d"})
	if resp.Session.DOT != "" {
		t.Errorf("start reply carries a dot: %q", resp.Session.DOT)
	}
	resp = srv.Handle(Request{Op: OpSwitch, SessionID: "d", ToDevice: "desktop3"})
	if !resp.OK {
		t.Fatalf("switch: %s", resp.Error)
	}
	if resp.Session.DOT != "" {
		t.Errorf("switch reply carries a dot: %q", resp.Session.DOT)
	}
	resp = srv.Handle(Request{Op: OpSession, SessionID: "d"})
	if !resp.OK {
		t.Fatalf("session: %s", resp.Error)
	}
	dot := resp.Session.DOT
	if !strings.Contains(dot, `digraph "d"`) || !strings.Contains(dot, "subgraph cluster_0") ||
		!strings.Contains(dot, `label="desktop3"`) || !strings.Contains(dot, "Mbps") {
		t.Errorf("DOT = %q", dot)
	}
}

func TestRegisterUnregisterServiceOps(t *testing.T) {
	srv, _ := startServer(t)
	inst := &registry.Instance{
		Name:      "late-equalizer",
		Type:      "equalizer",
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol("MPEG"))),
		Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol("MPEG"))),
		SizeMB:    2,
		Resources: resource.MB(1, 1),
	}
	resp := srv.Handle(Request{Op: OpRegister, Instance: inst, InstalledOn: []string{"*"}})
	if !resp.OK {
		t.Fatalf("register: %s", resp.Error)
	}
	if got := srv.Handle(Request{Op: OpListInst}); len(got.Services) != 5 {
		t.Errorf("services = %d, want 5 after registration", len(got.Services))
	}
	if resp := srv.Handle(Request{Op: OpRegister}); resp.OK {
		t.Error("register without instance should fail")
	}
	if resp := srv.Handle(Request{Op: OpRegister, Instance: inst, InstalledOn: []string{"ghost"}}); resp.OK {
		t.Error("installing on unknown device should fail")
	}
	if resp := srv.Handle(Request{Op: OpUnregister, Name: "late-equalizer"}); !resp.OK {
		t.Fatalf("unregister: %s", resp.Error)
	}
	if resp := srv.Handle(Request{Op: OpUnregister, Name: "late-equalizer"}); resp.OK {
		t.Error("double unregister should fail")
	}
}

func TestTraceOp(t *testing.T) {
	srv, _ := startServer(t)
	// No traces yet: both forms fail cleanly.
	if resp := srv.Handle(Request{Op: OpTrace}); resp.OK {
		t.Error("trace with no history should fail")
	}
	if resp := srv.Handle(Request{Op: OpTrace, SessionID: "ghost"}); resp.OK {
		t.Error("trace for unknown session should fail")
	}

	resp := srv.Handle(Request{Op: OpStart, SessionID: "t1", App: experiments.AudioOnDemandApp(), ClientDevice: "desktop2"})
	if !resp.OK {
		t.Fatalf("start: %s", resp.Error)
	}
	defer srv.Handle(Request{Op: OpStop, SessionID: "t1"})

	resp = srv.Handle(Request{Op: OpTrace, SessionID: "t1"})
	if !resp.OK || resp.Trace == nil {
		t.Fatalf("trace: %s", resp.Error)
	}
	if resp.Trace.Session != "t1" || resp.Trace.Name != "configure" {
		t.Errorf("trace = %s/%s", resp.Trace.Name, resp.Trace.Session)
	}
	names := make(map[string]bool)
	for _, sp := range resp.Trace.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"compose", "discover", "distribute", "deploy"} {
		if !names[want] {
			t.Errorf("trace missing %q span:\n%s", want, resp.Trace.Render())
		}
	}
	// The empty session ID returns the newest trace.
	if resp := srv.Handle(Request{Op: OpTrace}); !resp.OK || resp.Trace.Session != "t1" {
		t.Errorf("latest trace = %+v", resp.Trace)
	}
}

func TestPerOpMetrics(t *testing.T) {
	srv, _ := startServer(t)
	srv.Handle(Request{Op: OpPing})
	srv.Handle(Request{Op: OpPing})
	srv.Handle(Request{Op: "bogus"})
	srv.Handle(Request{Op: OpSession, SessionID: "ghost"})

	m := srv.dom.Metrics
	if got := m.Counter(metrics.WithLabel(metrics.WireRequests, "op", "ping")).Value(); got != 2 {
		t.Errorf("ping requests = %d, want 2", got)
	}
	// Unknown ops collapse into the registry's overflow label; the error
	// is counted too.
	if got := m.Counter(metrics.WithLabel(metrics.WireRequests, "op", metrics.OverflowLabel)).Value(); got != 1 {
		t.Errorf("overflow requests = %d, want 1", got)
	}
	if got := m.Counter(metrics.WithLabel(metrics.WireErrors, "op", metrics.OverflowLabel)).Value(); got != 1 {
		t.Errorf("overflow errors = %d, want 1", got)
	}
	if got := m.Counter(metrics.WithLabel(metrics.WireErrors, "op", "session")).Value(); got != 1 {
		t.Errorf("session errors = %d, want 1", got)
	}
	if got := m.Histogram(metrics.WithLabel(metrics.WireLatency, "op", "ping")).Count(); got != 2 {
		t.Errorf("ping latency observations = %d, want 2", got)
	}
	snap := m.Exposition()
	for _, want := range []string{
		`wire_requests_total{op="ping"} 2`,
		`wire_request_errors_total{op="` + metrics.OverflowLabel + `"} 1`,
		`wire_request_duration_seconds_count{op="ping"} 2`,
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestUnknownOpLabelCardinality floods the server with bogus op names
// and checks the per-op label space stays bounded: every invented op
// lands on the single overflow label instead of minting its own series.
func TestUnknownOpLabelCardinality(t *testing.T) {
	srv, _ := startServer(t)
	n := metrics.DefaultLabelCardinality + 32
	for i := 0; i < n; i++ {
		resp := srv.Handle(Request{Op: fmt.Sprintf("bogus-%d", i)})
		if resp.OK {
			t.Fatalf("bogus op %d accepted", i)
		}
	}
	m := srv.dom.Metrics
	if got := m.Counter(metrics.WithLabel(metrics.WireRequests, "op", metrics.OverflowLabel)).Value(); got != int64(n) {
		t.Errorf("overflow requests = %d, want %d", got, n)
	}
	snap := m.Exposition()
	if strings.Contains(snap, `op="bogus-`) {
		t.Error("exposition leaked a per-bogus-op series")
	}
	// One series per known op at most, plus the overflow bucket: far
	// below the registry's cardinality cap.
	series := strings.Count(snap, "wire_requests_total{")
	if series > len(ops)+1 {
		t.Errorf("wire_requests_total series = %d, want <= %d", series, len(ops)+1)
	}
}

func TestMalformedLineCountsBadLine(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.conn.Write([]byte("{not json}\n")); err != nil {
		t.Fatal(err)
	}
	if !c.sc.Scan() {
		t.Fatal("no response to malformed line")
	}
	if got := srv.dom.Metrics.Counter(metrics.WireBadLines).Value(); got != 1 {
		t.Errorf("bad lines = %d, want 1", got)
	}
}

func TestOversizedLine(t *testing.T) {
	srv, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One line just over the 4 MB limit: the scanner cannot tokenize it, so
	// the server reports the read error and drops the connection.
	big := bytes.Repeat([]byte{'a'}, maxLineBytes+16)
	big[len(big)-1] = '\n'
	if _, err := conn.Write(big); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatalf("no response to oversized line: %v", sc.Err())
	}
	if !strings.Contains(sc.Text(), "token too long") {
		t.Errorf("response = %s", sc.Text())
	}
	if got := srv.dom.Metrics.Counter(metrics.WireBadLines).Value(); got != 1 {
		t.Errorf("bad lines = %d, want 1", got)
	}
}

func TestClientConcurrentCalls(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One shared client, many goroutines: Call serializes internally.
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if _, err := c.Call(Request{Op: OpPing}); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

func TestStatsOp(t *testing.T) {
	srv, _ := startServer(t)
	resp := srv.Handle(Request{Op: OpStats})
	if !resp.OK || resp.Stats == nil {
		t.Fatalf("stats: ok=%v stats=%v err=%s", resp.OK, resp.Stats, resp.Error)
	}
	if resp.Stats.PlanCache == nil {
		t.Fatal("plan cache stats missing from a cache-enabled domain")
	}
	before := resp.Stats.PlanCache.Misses

	start := srv.Handle(Request{Op: OpStart, SessionID: "s1", App: experiments.AudioOnDemandApp(), ClientDevice: "desktop2"})
	if !start.OK {
		t.Fatalf("start: %s", start.Error)
	}
	resp = srv.Handle(Request{Op: OpStats})
	if !resp.OK || resp.Stats.PlanCache.Misses != before+1 {
		t.Errorf("misses = %d, want %d after one solve", resp.Stats.PlanCache.Misses, before+1)
	}
	if resp.Stats.WarmSolves != 0 {
		t.Errorf("warm solves = %d before any recovery", resp.Stats.WarmSolves)
	}
	srv.Handle(Request{Op: OpStop, SessionID: "s1"})
}
