package explain_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ubiqos/internal/explain"
	"ubiqos/internal/flight"
	"ubiqos/internal/ledger"
	"ubiqos/internal/registry"
)

// The session store's bounds: records kept per session, and sessions.
const perSession, maxSessions = 32, 128

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *flight.Recorder
	r.RecordExplain(explain.Record{Session: "s"})
	if r.Explain("s") != nil {
		t.Fatal("nil store Explain should return nil")
	}
	if r.ExplainSessions() != nil {
		t.Fatal("nil store ExplainSessions should return nil")
	}
	if r.Explain("s").Render() != "" {
		t.Fatal("nil store Render should return empty")
	}
	var c *explain.Record
	c.AddDiscovery(explain.Discovery{Node: "n"})
	c.AddCorrection(explain.Correction{Rule: "adjust"})
}

func TestRecordStampsAndBounds(t *testing.T) {
	r := flight.New(ledger.Options{})
	for i := 0; i < perSession+3; i++ {
		r.RecordExplain(explain.Record{Session: "a", Action: explain.ActionConfigure})
	}
	recs := r.Explain("a").Records
	if len(recs) != perSession {
		t.Fatalf("per-session bound: got %d records, want %d", len(recs), perSession)
	}
	if recs[0].Seq != 4 || recs[perSession-1].Seq != perSession+3 {
		t.Fatalf("expected oldest entries evicted, got seqs %d..%d", recs[0].Seq, recs[perSession-1].Seq)
	}
	if recs[0].Time.IsZero() {
		t.Fatal("RecordExplain should stamp Time")
	}
	infos := r.ExplainSessions()
	if len(infos) != 1 || infos[0].Total != perSession+3 || infos[0].Records != perSession {
		t.Fatalf("unexpected session info: %+v", infos)
	}

	// Session-table eviction: the least-recently-touched session goes.
	for i := 1; i <= maxSessions; i++ {
		r.RecordExplain(explain.Record{Session: fmt.Sprint("s", i)})
	}
	if r.Explain("a") != nil {
		t.Fatal("session a should have been evicted")
	}
	if r.Explain("s1") == nil || r.Explain(fmt.Sprint("s", maxSessions)) == nil {
		t.Fatal("the newer sessions should be retained")
	}
}

func TestRecordDropsEmptySession(t *testing.T) {
	r := flight.New(ledger.Options{})
	r.RecordExplain(explain.Record{Action: explain.ActionConfigure})
	if got := len(r.ExplainSessions()); got != 0 {
		t.Fatalf("record without session should be dropped, got %d sessions", got)
	}
}

func TestExplainComputesSuccessiveDiffs(t *testing.T) {
	r := flight.New(ledger.Options{})
	r.RecordExplain(explain.Record{Session: "s", Action: explain.ActionConfigure,
		Placement: map[string]string{"a": "d1", "b": "d1"}})
	// A failed action in between carries no placement and is skipped.
	r.RecordExplain(explain.Record{Session: "s", Action: explain.ActionReconfigure, Err: "boom"})
	r.RecordExplain(explain.Record{Session: "s", Action: explain.ActionReconfigure,
		Placement: map[string]string{"a": "d2", "b": "d1"}})
	se := r.Explain("s")
	if se == nil || len(se.Records) != 3 {
		t.Fatalf("unexpected explain: %+v", se)
	}
	if len(se.Diffs) != 1 {
		t.Fatalf("want 1 diff, got %d", len(se.Diffs))
	}
	d := se.Diffs[0]
	if d.FromAction != explain.ActionConfigure || d.ToAction != explain.ActionReconfigure {
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
	r := flight.New(ledger.Options{})
	r.RecordExplain(explain.Record{
		Session: "sess-1", TraceID: "abc123", Action: explain.ActionConfigure,
		Cost:      1.25,
		Placement: map[string]string{"src": "server", "sink": "pda"},
		Discoveries: []explain.Discovery{{
			Node: "sink", Type: "audio-sink", Outcome: "found", Chosen: "pda-speaker",
			Candidates: []registry.Candidate{
				{Name: "pda-speaker", Score: 2, Chosen: true},
				{Name: "hall-speaker", Score: 1, Rejection: "QoS score 1 < 2"},
			},
		}},
		Corrections: []explain.Correction{{
			Rule: "transcoder", Node: "oc-mpeg2wav", Dim: "format",
			Edge: "src->sink", From: "mpeg", To: "wav",
			BeforeQoS: "{format=mpeg}", AfterQoS: "{format=wav}",
		}},
		Search: &explain.Search{Algorithm: "optimal", Devices: 4, Explored: 42, Pruned: 7,
			Incumbents: 2, Cost: 1.25, RunnerUp: 1.5, BoundTrajectory: []float64{1.5, 1.25}},
	})
	r.RecordExplain(explain.Record{
		Session: "sess-1", Action: explain.ActionReconfigure, Cost: 2,
		Placement: map[string]string{"src": "laptop", "sink": "pda"},
	})
	r.RecordExplain(explain.Record{
		Session: "sess-1", Action: explain.ActionReconfigure, Err: "core: composition: no player",
		Discoveries: []explain.Discovery{{Node: "sink", Type: "audio-sink", Outcome: "missing"}},
	})
	r.RecordExplain(explain.Record{
		Session: "sess-1", Action: explain.ActionRecoveryStep,
		Ladder: &explain.LadderStep{Attempt: 2, Reason: "device crash", Degraded: true,
			Shed: []string{"fx"}, PlacementFallback: "heuristic", Outcome: "recovered"},
	})
	text := r.Explain("sess-1").Render()
	for _, want := range []string{
		"explain sess-1 (4 records)",
		"reconfigure FAILED: core: composition: no player\n    discover sink (audio-sink): missing\n",
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
	if n := strings.Count(text, "no player"); n != 1 {
		t.Errorf("the failure renders %d times, want once:\n%s", n, text)
	}
	if r.Explain("ghost").Render() != "" {
		t.Fatal("unknown session should render empty")
	}
}

func TestSessionsOrderedByRecency(t *testing.T) {
	r := flight.New(ledger.Options{})
	base := time.Now()
	r.RecordExplain(explain.Record{Session: "old", Time: base.Add(-time.Minute)})
	r.RecordExplain(explain.Record{Session: "new", Time: base})
	infos := r.ExplainSessions()
	if len(infos) != 2 || infos[0].Session != "new" || infos[1].Session != "old" {
		t.Fatalf("sessions not ordered by recency: %+v", infos)
	}
}

func TestConcurrentRecordAndExplain(t *testing.T) {
	r := flight.New(ledger.Options{})
	var wg sync.WaitGroup
	sessions := []string{"a", "b", "c", "d", "e"}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				s := sessions[(i+j)%len(sessions)]
				r.RecordExplain(explain.Record{Session: s, Action: explain.ActionConfigure,
					Placement: map[string]string{"n": "d"}})
				_ = r.Explain(s)
				_ = r.ExplainSessions()
				_ = r.Explain(s).Render()
			}
		}(i)
	}
	wg.Wait()
	for _, info := range r.ExplainSessions() {
		if info.Records > perSession {
			t.Fatalf("session %s holds %d records, bound %d", info.Session, info.Records, perSession)
		}
	}
}
