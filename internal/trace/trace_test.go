package trace

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestSpanTreeExport(t *testing.T) {
	tr := NewTracer(8).Start("configure", "s1", Bool("handoff", false))
	root := tr.Root()
	compose := root.Child("compose")
	compose.Child("discover", String("node", "player"), Int("depth", 0)).End()
	compose.Set(Int("checks", 3))
	compose.End()
	dist := root.Child("distribute", String("algorithm", "heuristic"))
	dist.End()
	tr.Finish()

	td := tr.t.Latest()
	if td == nil {
		t.Fatal("no trace retained")
	}
	if td.Name != "configure" || td.Session != "s1" {
		t.Errorf("trace meta = %q/%q", td.Name, td.Session)
	}
	if len(td.Spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(td.Spans))
	}
	if td.Spans[0].Parent != -1 || td.Spans[0].Attrs["session"] != "s1" {
		t.Errorf("root span = %+v", td.Spans[0])
	}
	if td.Spans[1].Name != "compose" || td.Spans[1].Parent != 0 {
		t.Errorf("compose span = %+v", td.Spans[1])
	}
	if td.Spans[2].Name != "discover" || td.Spans[2].Parent != td.Spans[1].ID {
		t.Errorf("discover span = %+v", td.Spans[2])
	}
	if td.Spans[1].Attrs["checks"] != int64(3) {
		t.Errorf("compose attrs = %v", td.Spans[1].Attrs)
	}
	if td.DurMs < 0 {
		t.Errorf("duration = %v", td.DurMs)
	}
	// The export round-trips through JSON.
	data, err := json.Marshal(td)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceData
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != 4 || back.Spans[3].Attrs["algorithm"] != "heuristic" {
		t.Errorf("round-trip = %+v", back)
	}
}

func TestNilSafety(t *testing.T) {
	var tracer *Tracer
	tr := tracer.Start("x", "y")
	if tr != nil {
		t.Fatal("nil tracer must hand out nil traces")
	}
	root := tr.Root()
	if root != nil {
		t.Fatal("nil trace must have a nil root")
	}
	// None of these may panic.
	child := root.Child("a", Int("k", 1))
	child.Set(String("b", "c"))
	child.SetErr(fmt.Errorf("boom"))
	child.End()
	tr.Finish()
	if tracer.Len() != 0 || tracer.Latest() != nil || tracer.Find("y") != nil || tracer.Recent(5) != nil {
		t.Error("nil tracer accessors must be empty")
	}
}

func TestRingBounds(t *testing.T) {
	tc := NewTracer(3)
	for i := 0; i < 10; i++ {
		tc.Start("op", fmt.Sprintf("s%d", i)).Finish()
	}
	if tc.Len() != 3 {
		t.Fatalf("ring = %d, want 3", tc.Len())
	}
	recent := tc.Recent(0)
	if len(recent) != 3 || recent[0].Session != "s9" || recent[2].Session != "s7" {
		t.Errorf("recent = %+v", recent)
	}
	if got := tc.Recent(1); len(got) != 1 || got[0].Session != "s9" {
		t.Errorf("recent(1) = %+v", got)
	}
	if td := tc.Find("s8"); td == nil || td.Session != "s8" {
		t.Errorf("find = %+v", td)
	}
	if td := tc.Find("s0"); td != nil {
		t.Error("evicted trace should not be found")
	}
}

func TestFindPicksMostRecent(t *testing.T) {
	tc := NewTracer(8)
	a := tc.Start("op", "dup")
	a.Root().Set(Int("gen", 1))
	a.Finish()
	b := tc.Start("op", "dup")
	b.Root().Set(Int("gen", 2))
	b.Finish()
	td := tc.Find("dup")
	if td == nil || td.Spans[0].Attrs["gen"] != int64(2) {
		t.Errorf("find = %+v", td)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tc := NewTracer(4)
	tr := tc.Start("parallel", "s")
	root := tr.Root()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := root.Child("worker", Int("w", int64(w)))
				sp.Set(Int("i", int64(i)))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	tr.Finish()
	td := tc.Latest()
	if got := len(td.Spans); got != 1+8*50 {
		t.Errorf("spans = %d, want %d", got, 1+8*50)
	}
}

func TestFinishClosesOpenSpansAndIsIdempotent(t *testing.T) {
	tc := NewTracer(2)
	tr := tc.Start("op", "s")
	open := tr.Root().Child("left-open")
	_ = open
	tr.Finish()
	tr.Finish()
	if tc.Len() != 1 {
		t.Fatalf("ring = %d, want 1 (Finish must be idempotent)", tc.Len())
	}
	td := tc.Latest()
	if td.Spans[1].DurMs < 0 {
		t.Error("open span must be closed at trace end")
	}
}

func TestContextPropagation(t *testing.T) {
	tc := NewTracer(4)

	// A plain Start mints a fresh trace ID.
	tr := tc.Start("configure", "s1")
	if tr.Context().TraceID == "" {
		t.Fatal("Start must mint a trace ID")
	}
	tr.Finish()

	// StartCtx adopts the propagated identity and surfaces the remote
	// parent on the root span and in the export.
	ctx := Context{TraceID: "cafef00d", ParentSpan: "client-0"}
	tr2 := tc.StartCtx(ctx, "configure", "s2")
	if got := tr2.Context(); got.TraceID != "cafef00d" || got.ParentSpan != "client-0" {
		t.Fatalf("context not adopted: %+v", got)
	}
	tr2.Finish()
	td := tc.Latest()
	if td.TraceID != "cafef00d" || td.ParentSpan != "client-0" {
		t.Fatalf("export lost context: %+v", td)
	}
	if td.Spans[0].Attrs["parentSpan"] != "client-0" {
		t.Fatalf("root span missing remote parent: %v", td.Spans[0].Attrs)
	}

	// Nil safety: context and summary of a nil trace are zero.
	var nilTr *Trace
	if nilTr.Context() != (Context{}) {
		t.Error("nil trace context must be zero")
	}
	if got := nilTr.Summary(); got != (Summary{}) {
		t.Errorf("nil trace summary = %+v, want zero", got)
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if len(id) != 16 {
			t.Fatalf("id %q: want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

// TestConcurrentStartExportEviction exercises the tracer's ring under
// simultaneous Start/Finish (which evict), Recent/Find/Latest (which
// export), and live-trace export and Summary calls — the paths the flight
// recorder and /slo read while the configurator is writing. Run with
// -race.
func TestConcurrentStartExportEviction(t *testing.T) {
	tc := NewTracer(4) // tiny ring so eviction happens constantly
	var wg sync.WaitGroup
	const writers, readers, iters = 4, 4, 200

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tr := tc.Start("op", fmt.Sprintf("w%d-%d", w, i))
				sp := tr.Root().Child("step", Int("i", int64(i)))
				_ = tr.export() // export and summarize while in flight
				_ = tr.Summary()
				sp.End()
				tr.Finish()
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, td := range tc.Recent(0) {
					if td.Name != "op" {
						t.Errorf("corrupt export: %+v", td)
						return
					}
				}
				tc.Find(fmt.Sprintf("w%d-%d", r, i))
				tc.Latest()
				tc.Len()
			}
		}(r)
	}
	wg.Wait()
	if tc.Len() != 4 {
		t.Fatalf("ring = %d, want 4 after churn", tc.Len())
	}
}

func TestRender(t *testing.T) {
	tc := NewTracer(2)
	tr := tc.Start("configure", "audio-1")
	sp := tr.Root().Child("compose")
	sp.Child("discover", String("node", "player")).End()
	sp.End()
	tr.Finish()
	out := tc.Latest().Render()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("render lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "configure (") || !strings.Contains(lines[0], "session=audio-1") {
		t.Errorf("root line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  compose (") {
		t.Errorf("child line = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "    discover (") || !strings.Contains(lines[2], "node=player") {
		t.Errorf("grandchild line = %q", lines[2])
	}
}

// TestNilTracerAllocationFree: a whole span tree on a nil tracer — start,
// child, end, finish, as the configure path runs it — allocates nothing.
func TestNilTracerAllocationFree(t *testing.T) {
	var tracer *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr := tracer.StartCtx(Context{TraceID: "cafef00dcafef00d"}, "configure", "s1")
		tr.Root().Child("compose").End()
		tr.Finish()
	})
	if allocs != 0 {
		t.Errorf("nil tracer span tree allocates %.1f objects per run, want 0", allocs)
	}
}
