package flight

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ubiqos/internal/eventbus"
	"ubiqos/internal/explain"
	"ubiqos/internal/ledger"
	"ubiqos/internal/obslog"
	"ubiqos/internal/trace"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Write(obslog.Record{Session: "s"})
	r.RecordEvent("s", eventbus.Event{Topic: eventbus.TopicDeviceLeft})
	r.RecordFault("s", "device.crash", "pc-1", nil)
	r.RecordExplain(explain.Record{Session: "s"})
	r.Finished(trace.Summary{Session: "s"}, explain.Record{Session: "s", Action: explain.ActionConfigure}, "c", nil, 0)
	r.Step(trace.Summary{}, explain.Record{Session: "s"}, 0)
	if r.Timeline("s") != nil || r.Sessions() != nil || r.Explain("s") != nil || r.ExplainSessions() != nil {
		t.Fatal("nil recorder accessors must be empty")
	}
}

func TestFusedStreamsSequenceOrder(t *testing.T) {
	r := New(ledger.Options{})

	// Stream 1: a structured log record.
	log := obslog.New(obslog.LevelDebug, r)
	log.Named("core").ForSession("s1", "t1").Info("configured", obslog.Int("components", 4))

	// Stream 2: a trace summary.
	tc := trace.NewTracer(4)
	tr := tc.StartCtx(trace.Context{TraceID: "t1"}, "configure", "s1")
	tr.Root().Child("compose").End()
	tr.Finish()
	r.Step(tr.Summary(), explain.Record{Session: "s1"}, 0)

	// Stream 3: a bus event.
	r.RecordEvent("s1", eventbus.Event{Topic: eventbus.TopicDeviceLeft, Time: time.Now(), Payload: "pc-2"})

	// Stream 4: a fault marker.
	r.RecordFault("s1", "device.crash", "pc-2", map[string]any{"at": "5s"})

	entries := r.Timeline("s1")
	if len(entries) != 4 {
		t.Fatalf("want 4 fused entries, got %d", len(entries))
	}
	wantKinds := []Kind{KindLog, KindSpan, KindEvent, KindFault}
	for i, e := range entries {
		if e.Kind != wantKinds[i] {
			t.Errorf("entry %d kind = %s, want %s", i, e.Kind, wantKinds[i])
		}
		if e.Session != "s1" {
			t.Errorf("entry %d session = %q", i, e.Session)
		}
		if i > 0 && e.Seq <= entries[i-1].Seq {
			t.Errorf("sequence not monotonic: %d after %d", e.Seq, entries[i-1].Seq)
		}
	}
	if entries[0].TraceID != "t1" || entries[1].TraceID != "t1" {
		t.Error("log and span entries must carry the trace ID")
	}
	if entries[0].Message != "core: configured" || entries[0].Detail["components"] != int64(4) {
		t.Errorf("log entry = %+v", entries[0])
	}
	if entries[1].Message != "trace configure" || entries[1].Detail["spans"] != 2 {
		t.Errorf("span entry = %+v", entries[1])
	}
	if entries[2].Message != string(eventbus.TopicDeviceLeft) || entries[2].Detail["payload"] != "pc-2" {
		t.Errorf("event entry = %+v", entries[2])
	}
	if entries[3].Message != "fault device.crash" || entries[3].Detail["target"] != "pc-2" {
		t.Errorf("fault entry = %+v", entries[3])
	}
}

func TestSessionlessEntriesDropped(t *testing.T) {
	r := New(ledger.Options{})
	r.Write(obslog.Record{Msg: "no session"})
	r.Step(trace.Summary{Name: "anon"}, explain.Record{}, 0)
	if got := len(r.Sessions()); got != 0 {
		t.Fatalf("sessionless entries must be dropped, have %d sessions", got)
	}
}

func TestPerSessionBound(t *testing.T) {
	r := newRecorder(limits{maxSessions, 3, maxRecords}, ledger.Options{})
	for i := 0; i < 10; i++ {
		r.RecordFault("s", "device.crash", fmt.Sprintf("d%d", i), nil)
	}
	entries := r.Timeline("s")
	if len(entries) != 3 {
		t.Fatalf("retained = %d, want 3", len(entries))
	}
	if entries[0].Detail["target"] != "d7" || entries[2].Detail["target"] != "d9" {
		t.Fatalf("eviction kept wrong entries: %v", entries)
	}
	info := r.Sessions()
	if len(info) != 1 || info[0].Total != 10 || info[0].Entries != 3 {
		t.Fatalf("session info = %+v", info)
	}
}

func TestSessionTableEviction(t *testing.T) {
	r := newRecorder(limits{2, maxEntries, maxRecords}, ledger.Options{})
	r.RecordFault("a", "k", "t", nil)
	r.RecordFault("b", "k", "t", nil)
	r.RecordFault("c", "k", "t", nil) // evicts a (least recently touched)
	if r.Timeline("a") != nil {
		t.Fatal("oldest session should have been evicted")
	}
	if r.Timeline("b") == nil || r.Timeline("c") == nil {
		t.Fatal("recent sessions must survive")
	}
}

func TestTapResolvesEvents(t *testing.T) {
	r := New(ledger.Options{})
	bus := eventbus.New()
	defer bus.Close()
	bus.SetRecorder(func(ev eventbus.Event) {
		var sessions []string
		if ev.Topic == eventbus.TopicResourceChanged {
			sessions = []string{"s1", "s2"}
		}
		if ev.Topic == eventbus.TopicSessionRecovered {
			if s, ok := ev.Payload.(string); ok {
				sessions = []string{s}
			}
		}
		for _, s := range sessions {
			r.RecordEvent(s, ev)
		}
	})

	bus.Publish(eventbus.TopicResourceChanged, "pc-1")
	bus.Publish(eventbus.TopicSessionRecovered, "s1")

	s1 := r.Timeline("s1")
	if len(s1) != 2 {
		t.Fatalf("s1 entries = %d, want 2", len(s1))
	}
	if s1[0].Message != "resource.changed" || s1[1].Message != "session.recovered" {
		t.Fatalf("s1 timeline = %+v", s1)
	}
	if got := r.Timeline("s2"); len(got) != 1 {
		t.Fatalf("s2 entries = %d, want 1", len(got))
	}
}

func TestRender(t *testing.T) {
	r := New(ledger.Options{})
	log := obslog.New(obslog.LevelDebug, r)
	log.ForSession("s", "abc").Warn("retry", obslog.Int("attempt", 2))
	r.RecordFault("s", "link.degrade", "pc-1<->pc-2", nil)
	entries := r.Timeline("s")
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}
	if line := entries[0].Format(); !strings.Contains(line, "log") || !strings.Contains(line, "retry") ||
		!strings.Contains(line, "trace=abc") || !strings.Contains(line, "attempt=2") {
		t.Errorf("log line = %q", line)
	}
	if line := entries[1].Format(); !strings.Contains(line, "fault link.degrade") {
		t.Errorf("fault line = %q", line)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := newRecorder(limits{8, 64, maxRecords}, ledger.Options{})
	bus := eventbus.New()
	defer bus.Close()
	bus.SetRecorder(func(ev eventbus.Event) {
		if s, ok := ev.Payload.(string); ok {
			r.RecordEvent(s, ev)
		}
	})

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			session := fmt.Sprintf("s%d", g%4)
			log := obslog.New(obslog.LevelDebug, r).ForSession(session, "t")
			for i := 0; i < 50; i++ {
				log.Info("tick", obslog.Int("i", int64(i)))
				r.RecordFault(session, "k", "t", nil)
				bus.Publish(eventbus.TopicResourceChanged, session)
				r.Timeline(session)
				r.Sessions()
			}
		}(g)
	}
	wg.Wait()
	for _, info := range r.Sessions() {
		entries := r.Timeline(info.Session)
		for i := 1; i < len(entries); i++ {
			if entries[i].Seq <= entries[i-1].Seq {
				t.Fatalf("session %s: seq out of order", info.Session)
			}
		}
	}
}

func TestExcerptWindow(t *testing.T) {
	r := New(ledger.Options{})
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		r.Write(obslog.Record{
			Time:    base.Add(time.Duration(i) * time.Second),
			Msg:     fmt.Sprintf("e%d", i),
			Session: "s",
			TraceID: fmt.Sprintf("t%d", i%2),
		})
	}

	// Window [t2, t6] holds e2..e6; cap 3 keeps the newest three.
	got := r.Excerpt("s", base.Add(2*time.Second), base.Add(6*time.Second), 3)
	if len(got) != 3 {
		t.Fatalf("excerpt len = %d, want 3", len(got))
	}
	for i, want := range []string{"e4", "e5", "e6"} {
		if got[i].Message != want {
			t.Fatalf("excerpt[%d] = %q, want %q (oldest first, newest kept)", i, got[i].Message, want)
		}
	}

	// Zero bounds: no lower/upper limit.
	if got := r.Excerpt("s", time.Time{}, time.Time{}, 100); len(got) != 10 {
		t.Fatalf("unbounded excerpt len = %d, want 10", len(got))
	}
	// Window entirely after the data.
	if got := r.Excerpt("s", base.Add(time.Hour), time.Time{}, 5); got != nil {
		t.Fatalf("future window = %v, want nil", got)
	}
	// Unknown session, nil recorder, bad cap.
	if got := r.Excerpt("nope", time.Time{}, time.Time{}, 5); got != nil {
		t.Fatalf("unknown session = %v, want nil", got)
	}
	var nilRec *Recorder
	if got := nilRec.Excerpt("s", time.Time{}, time.Time{}, 5); got != nil {
		t.Fatalf("nil recorder = %v, want nil", got)
	}
	if got := r.Excerpt("s", time.Time{}, time.Time{}, 0); got != nil {
		t.Fatalf("max=0 = %v, want nil", got)
	}
}

// TestNilRecorderAllocationFree: recording a finished trace or a
// decision record on a nil store — the daemon without one — allocates
// nothing.
func TestNilRecorderAllocationFree(t *testing.T) {
	tr := trace.NewTracer(8).Start("configure", "s1")
	tr.Root().Child("compose").End()
	tr.Finish()
	ts := tr.Summary()
	xr := explain.Record{Session: "s1", Action: explain.ActionConfigure, Search: &explain.Search{Algorithm: "heuristic"}}
	var rec *Recorder
	if allocs := testing.AllocsPerRun(1000, func() { rec.Finished(ts, xr, "c", nil, 0) }); allocs != 0 {
		t.Errorf("nil Finished allocates %.1f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { rec.RecordExplain(xr) }); allocs != 0 {
		t.Errorf("nil RecordExplain allocates %.1f objects per call, want 0", allocs)
	}
}

// TestExcerptKeepsOutOfOrderEntries: a trace summary is stamped with its
// trace's start, so it lands on the timeline after the log lines of the
// same configure while being older than all of them. A window that starts
// at the first log line must still hold every log line after it.
func TestExcerptKeepsOutOfOrderEntries(t *testing.T) {
	r := New(ledger.Options{})
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := 1; i <= 4; i++ {
		r.Write(obslog.Record{Time: base.Add(time.Duration(i) * time.Millisecond), Msg: fmt.Sprintf("e%d", i), Session: "a1"})
	}
	r.Step(trace.Summary{Session: "a1", Name: "configure", Start: base}, explain.Record{Session: "a1"}, 0)
	r.Write(obslog.Record{Time: base.Add(5 * time.Millisecond), Msg: "e5", Session: "a1"})

	got := r.Excerpt("a1", base.Add(time.Millisecond), time.Time{}, 100)
	var msgs []string
	for _, e := range got {
		msgs = append(msgs, e.Message)
	}
	if want := "e1 e2 e3 e4 e5"; strings.Join(msgs, " ") != want {
		t.Fatalf("excerpt = %q, want %q", strings.Join(msgs, " "), want)
	}
	// The cap keeps the newest entries inside the window, by sequence.
	got = r.Excerpt("a1", time.Time{}, base.Add(4*time.Millisecond), 2)
	if len(got) != 2 || got[0].Message != "e4" || got[1].Message != "trace configure" {
		t.Fatalf("capped excerpt = %+v, want e4 then the trace summary", got)
	}
}
