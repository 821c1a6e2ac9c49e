package flight

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ubiqos/internal/explain"
	"ubiqos/internal/ledger"
	"ubiqos/internal/qos"
	"ubiqos/internal/trace"
)

// TestRecordExplainSeqOrder: records written concurrently to one session
// must sit in the session's ring in Seq order — the report pairs records
// by position to diff their placements.
func TestRecordExplainSeqOrder(t *testing.T) {
	for round := 0; round < 20; round++ {
		r := New(ledger.Options{})
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					r.RecordExplain(explain.Record{Session: "s", Action: explain.ActionConfigure})
				}
			}()
		}
		wg.Wait()
		recs := r.Explain("s").Records
		for i := 1; i < len(recs); i++ {
			if recs[i].Seq <= recs[i-1].Seq {
				t.Fatalf("round %d: record %d has seq %d after seq %d", round, i, recs[i].Seq, recs[i-1].Seq)
			}
		}
	}
}

func askFramerate() qos.Vector {
	return qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44)))
}

// TestEvictionPrefersFinalizedSessions: a new session evicts the least
// recently touched session with nothing left to fold — finalized, or
// never accounted — before any live one, however recently that one was
// touched; every view of the victim goes with its slot.
func TestEvictionPrefersFinalizedSessions(t *testing.T) {
	r := newRecorder(limits{4, maxEntries, maxRecords}, ledger.Options{})
	for i := 0; i < 8; i++ {
		sid := fmt.Sprintf("s%d", i)
		r.Finished(trace.Summary{}, explain.Record{Session: sid, Action: explain.ActionConfigure},
			"voice", askFramerate(), time.Millisecond)
		r.RecordFault(sid, "k", "t", nil)
		if i < 6 {
			r.Step(trace.Summary{}, explain.Record{Session: sid}, 0)
		}
	}
	if got := len(r.LedgerSessions()); got != 4 {
		t.Fatalf("table holds %d sessions, cap 4", got)
	}
	// s6 and s7 are live; of the finalized, the two most recent remain.
	var kept []string
	for _, info := range r.Sessions() {
		kept = append(kept, info.Session)
	}
	if got := strings.Join(kept, " "); got != "s7 s6 s5 s4" {
		t.Fatalf("retained sessions %q, want %q", got, "s7 s6 s5 s4")
	}
	if r.Explain("s0") != nil || r.Timeline("s0") != nil {
		t.Fatal("an evicted session keeps a view")
	}
	// Eviction must not lose class accounting: all 8 sessions admitted,
	// 6 completed, 2 still live.
	sc := r.Scorecards(0)[0]
	if sc.Sessions != 8 || sc.Completed != 6 || sc.Live != 2 {
		t.Fatalf("scorecard after eviction = sessions %d completed %d live %d, want 8/6/2",
			sc.Sessions, sc.Completed, sc.Live)
	}
}
