package explain

import (
	"strings"
	"sync"
	"testing"
	"time"

	"ubiqos/internal/registry"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Record(Record{Session: "s"})
	if r.Explain("s") != nil {
		t.Fatal("nil recorder Explain should return nil")
	}
	if r.Sessions() != nil {
		t.Fatal("nil recorder Sessions should return nil")
	}
	if r.Render("s") != "" {
		t.Fatal("nil recorder Render should return empty")
	}
	var c *Composition
	c.AddDiscovery(Discovery{Node: "n"})
	c.AddCorrection(Correction{Rule: "adjust"})
}

func TestRecordStampsAndBounds(t *testing.T) {
	r := New(Options{PerSession: 3, MaxSessions: 2})
	for i := 0; i < 5; i++ {
		r.Record(Record{Session: "a", Action: ActionConfigure})
	}
	recs := r.Records("a")
	if len(recs) != 3 {
		t.Fatalf("per-session bound: got %d records, want 3", len(recs))
	}
	if recs[0].Seq != 3 || recs[2].Seq != 5 {
		t.Fatalf("expected oldest entries evicted, got seqs %d..%d", recs[0].Seq, recs[2].Seq)
	}
	if recs[0].Time.IsZero() {
		t.Fatal("Record should stamp Time")
	}
	infos := r.Sessions()
	if len(infos) != 1 || infos[0].Total != 5 || infos[0].Records != 3 {
		t.Fatalf("unexpected session info: %+v", infos)
	}

	// Session-table eviction: the least-recently-touched session goes.
	r.Record(Record{Session: "b"})
	r.Record(Record{Session: "c"})
	if r.Records("a") != nil {
		t.Fatal("session a should have been evicted")
	}
	if r.Records("b") == nil || r.Records("c") == nil {
		t.Fatal("sessions b and c should be retained")
	}
}

func TestRecordDropsEmptySession(t *testing.T) {
	r := New(Options{})
	r.Record(Record{Action: ActionConfigure})
	if got := len(r.Sessions()); got != 0 {
		t.Fatalf("record without session should be dropped, got %d sessions", got)
	}
}

func TestDiffPlacements(t *testing.T) {
	from := &Record{Seq: 1, Action: ActionConfigure, Placement: map[string]string{
		"src": "server", "mix": "server", "sink": "pda", "fx": "laptop",
	}}
	to := &Record{Seq: 4, Action: ActionRecover, Placement: map[string]string{
		"src": "server", "mix": "laptop", "sink": "pda", "extra": "server",
	}}
	d := DiffPlacements(from, to)
	if d.FromSeq != 1 || d.ToSeq != 4 || d.FromAction != ActionConfigure || d.ToAction != ActionRecover {
		t.Fatalf("diff header wrong: %+v", d)
	}
	if d.Unchanged != 2 {
		t.Fatalf("unchanged = %d, want 2", d.Unchanged)
	}
	if len(d.Moved) != 1 || d.Moved[0] != (Move{Component: "mix", From: "server", To: "laptop"}) {
		t.Fatalf("moved wrong: %+v", d.Moved)
	}
	if len(d.Added) != 1 || d.Added[0] != (Move{Component: "extra", To: "server"}) {
		t.Fatalf("added wrong: %+v", d.Added)
	}
	if len(d.Removed) != 1 || d.Removed[0] != (Move{Component: "fx", From: "laptop"}) {
		t.Fatalf("removed wrong: %+v", d.Removed)
	}
}

func TestExplainComputesSuccessiveDiffs(t *testing.T) {
	r := New(Options{})
	r.Record(Record{Session: "s", Action: ActionConfigure,
		Placement: map[string]string{"a": "d1", "b": "d1"}})
	// A failed action in between carries no placement and is skipped.
	r.Record(Record{Session: "s", Action: ActionReconfigure, Err: "boom"})
	r.Record(Record{Session: "s", Action: ActionRecover,
		Placement: map[string]string{"a": "d2", "b": "d1"}})
	se := r.Explain("s")
	if se == nil || len(se.Records) != 3 {
		t.Fatalf("unexpected explain: %+v", se)
	}
	if len(se.Diffs) != 1 {
		t.Fatalf("want 1 diff, got %d", len(se.Diffs))
	}
	d := se.Diffs[0]
	if d.FromAction != ActionConfigure || d.ToAction != ActionRecover {
		t.Fatalf("diff should skip the placement-less record: %+v", d)
	}
	if len(d.Moved) != 1 || d.Moved[0].Component != "a" {
		t.Fatalf("moved wrong: %+v", d.Moved)
	}
	if r.Explain("ghost") != nil {
		t.Fatal("unknown session should explain to nil")
	}
}

func TestRenderContainsDecisionProvenance(t *testing.T) {
	r := New(Options{})
	r.Record(Record{
		Session: "sess-1", TraceID: "abc123", Action: ActionConfigure,
		Cost: 1.25, DegradeFactor: 1,
		Placement: map[string]string{"src": "server", "sink": "pda"},
		Attempts: []Attempt{{
			DegradeFactor: 1,
			Discoveries: []Discovery{{
				Node: "sink", Type: "audio-sink", Outcome: "found", Chosen: "pda-speaker",
				Candidates: []registry.Candidate{
					{Name: "pda-speaker", Score: 2, Chosen: true},
					{Name: "hall-speaker", Score: 1, Rejection: "QoS score 1 < 2"},
				},
			}},
			Corrections: []Correction{{
				Rule: "transcoder", Node: "oc-mpeg2wav", Dim: "format",
				Edge: "src->sink", From: "mpeg", To: "wav",
				BeforeQoS: "{format=mpeg}", AfterQoS: "{format=wav}",
			}},
			Search: &Search{Algorithm: "optimal", Devices: 4, Explored: 42, Pruned: 7,
				Incumbents: 2, Cost: 1.25, RunnerUp: 1.5, BoundTrajectory: []float64{1.5, 1.25}},
		}},
	})
	r.Record(Record{
		Session: "sess-1", Action: ActionRecover, Cost: 2, DegradeFactor: 0.5,
		Placement: map[string]string{"src": "laptop", "sink": "pda"},
	})
	r.Record(Record{
		Session: "sess-1", Action: ActionRecoveryStep,
		Ladder: &LadderStep{Attempt: 2, Reason: "device crash", Degraded: true,
			Shed: []string{"fx"}, PlacementFallback: "heuristic", Outcome: "recovered"},
	})
	text := r.Render("sess-1")
	for _, want := range []string{
		"explain sess-1 (3 records)",
		"trace=abc123",
		"rejected: QoS score 1 < 2",
		"correction transcoder on oc-mpeg2wav dim=format edge=src->sink mpeg -> wav",
		"before {format=mpeg}",
		"after  {format=wav}",
		"search optimal: devices=4 explored=42 pruned=7 incumbents=2 cost=1.2500 runnerUp=1.5000",
		"bound trajectory: 1.5000 1.2500",
		"placement: sink->pda src->server",
		"ladder attempt 2: recovered degraded shed=fx place=heuristic",
		"placement diffs:",
		"moved   src: server -> laptop",
		"qosctl flight -session sess-1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q in:\n%s", want, text)
		}
	}
	if r.Render("ghost") != "" {
		t.Fatal("unknown session should render empty")
	}
}

func TestSessionsOrderedByRecency(t *testing.T) {
	r := New(Options{})
	base := time.Now()
	r.Record(Record{Session: "old", Time: base.Add(-time.Minute)})
	r.Record(Record{Session: "new", Time: base})
	infos := r.Sessions()
	if len(infos) != 2 || infos[0].Session != "new" || infos[1].Session != "old" {
		t.Fatalf("sessions not ordered by recency: %+v", infos)
	}
}

func TestConcurrentRecordAndExplain(t *testing.T) {
	r := New(Options{PerSession: 8, MaxSessions: 4})
	var wg sync.WaitGroup
	sessions := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				s := sessions[(i+j)%len(sessions)]
				r.Record(Record{Session: s, Action: ActionConfigure,
					Placement: map[string]string{"n": "d"}})
				_ = r.Explain(s)
				_ = r.Sessions()
				_ = r.Render(s)
			}
		}(i)
	}
	wg.Wait()
	if len(r.Sessions()) > 4 {
		t.Fatalf("session table exceeded bound: %d", len(r.Sessions()))
	}
}

// TestDisabledExplainAllocationFree: with no explain sink attached the
// configurator's Record and the composer's per-discovery/per-correction
// guards allocate nothing.
func TestDisabledExplainAllocationFree(t *testing.T) {
	var rec *Recorder
	var comp *Composition
	xr := Record{Session: "s1", Action: ActionConfigure, Attempts: []Attempt{{DegradeFactor: 1}}}
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"nil recorder", func() { rec.Record(xr) }},
		{"nil composition", func() {
			comp.AddDiscovery(Discovery{Node: "player"})
			comp.AddCorrection(Correction{Rule: "adjust"})
		}},
	} {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", tc.name, allocs)
		}
	}
}
