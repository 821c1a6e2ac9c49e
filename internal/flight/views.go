package flight

import (
	"time"

	"ubiqos/internal/explain"
	"ubiqos/internal/ledger"
	"ubiqos/internal/qos"
	"ubiqos/internal/trace"
)

// RecordExplain stamps and appends one decision record to its session's
// provenance. Records without a session are dropped: provenance is a
// per-session instrument.
func (r *Recorder) RecordExplain(rec explain.Record) {
	if r == nil || rec.Session == "" {
		return
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.explainLocked(rec)
}

func (r *Recorder) explainLocked(rec explain.Record) {
	r.xseq++
	rec.Seq = r.xseq
	s := r.slotLocked(rec.Session)
	s.records.add(rec, rec.Time, r.limits.records)
	r.touchLocked(s)
}

// Explain assembles the session's provenance report, computing the
// placement diff between each pair of successive placement-carrying
// records. It returns nil for a session without records or a nil store.
func (r *Recorder) Explain(session string) *explain.SessionExplain {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	s := r.sessions[session]
	var records []explain.Record
	if s != nil {
		records = append(records, s.records.items...)
	}
	r.mu.Unlock()
	if records == nil {
		return nil
	}
	se := &explain.SessionExplain{Session: session, Records: records}
	var prev *explain.Record
	for i := range records {
		if records[i].Placement == nil {
			continue
		}
		if prev != nil {
			se.Diffs = append(se.Diffs, explain.DiffPlacements(prev, &records[i]))
		}
		prev = &records[i]
	}
	return se
}

// ExplainSessions lists the sessions with provenance records, most
// recently touched first.
func (r *Recorder) ExplainSessions() []explain.SessionInfo {
	return index(r, func(s *slot) (explain.SessionInfo, bool) {
		return explain.SessionInfo{Session: s.id, Records: len(s.records.items), Total: s.records.total, Last: s.records.last}, s.records.total > 0
	})
}

// Finished records one finished configure, reconfigure, resume or
// recover under one lock: its trace summary on the timeline, its
// provenance record, and the ledger step the record folds to (see
// ledger.Ledger.Fold). class and requested are the request's, took the
// configure's latency.
func (r *Recorder) Finished(ts trace.Summary, rec explain.Record, class string, requested qos.Vector, took time.Duration) {
	r.report(ts, rec, true, class, requested, took)
}

// Step records one session step that is not a configuration under one
// lock: the trace summary of the recovery attempt, when one ran; the
// provenance record, when the step is a supervisor's decision (recovered,
// retry or lost); and the ledger step the record folds to. A stop and a
// broken or healed step are not decisions. down is how long a recovered
// session was broken.
func (r *Recorder) Step(ts trace.Summary, rec explain.Record, down time.Duration) {
	decision := rec.Action == explain.ActionRecoveryStep &&
		rec.Ladder.Outcome != "broken" && rec.Ladder.Outcome != "healed"
	r.report(ts, rec, decision, "", nil, down)
}

// report writes one observer report under the store's lock.
func (r *Recorder) report(ts trace.Summary, rec explain.Record, decision bool, class string, requested qos.Vector, took time.Duration) {
	if r == nil || rec.Session == "" {
		return
	}
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	e, traced := traceEntry(ts)
	r.mu.Lock()
	defer r.mu.Unlock()
	if traced {
		r.addLocked(e)
	}
	if decision {
		r.explainLocked(rec)
	}
	s := r.sessions[rec.Session]
	if a, ok := r.ledger.Fold(s.account(), rec, class, requested, took); ok {
		r.settleLocked(s, rec.Session, a)
	}
}

// RecordAdmission records the admission gate's decision for a session
// (see ledger.Ledger.Admission).
func (r *Recorder) RecordAdmission(session, class, verdict, reason string) {
	if r == nil || session == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sessions[session]
	r.settleLocked(s, session, r.ledger.Admission(s.account(), session, class, verdict, reason))
}

// account is the slot's ledger account, nil for no slot.
func (s *slot) account() *ledger.Account {
	if s == nil {
		return nil
	}
	return s.acct
}

// settleLocked keeps the account a ledger step went to in the session's
// slot, s (nil when the session has none): it makes the slot for an
// account the step opened, and touches it.
func (r *Recorder) settleLocked(s *slot, session string, a *ledger.Account) {
	if s == nil {
		if a == nil {
			return
		}
		s = r.slotLocked(session)
	}
	s.acct = a
	r.touchLocked(s)
}

// Report returns the session's ledger report.
func (r *Recorder) Report(session string) (ledger.SessionReport, bool) {
	if r == nil {
		return ledger.SessionReport{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sessions[session]
	if s == nil || s.acct == nil {
		return ledger.SessionReport{}, false
	}
	return r.ledger.Report(s.acct), true
}

// LedgerSessions lists the report of every session with a ledger
// account, most recently touched first.
func (r *Recorder) LedgerSessions() []ledger.SessionReport {
	return index(r, func(s *slot) (ledger.SessionReport, bool) {
		if s.acct == nil {
			return ledger.SessionReport{}, false
		}
		return r.ledger.Report(s.acct), true
	})
}

// Scorecards computes the per-class scorecards over the finalized
// aggregates and the live accounts (see ledger.Ledger.Scorecards).
func (r *Recorder) Scorecards(window time.Duration) []ledger.Scorecard {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var live []*ledger.Account
	for s := r.live.root.next; s != &r.live.root; s = s.next {
		live = append(live, s.acct)
	}
	return r.ledger.Scorecards(live, window)
}

// PublishMetrics refreshes the ledger's labeled gauges from the current
// scorecards. The domain calls this from its capacity sampler so the
// gauges are fresh on every /metrics scrape.
func (r *Recorder) PublishMetrics() {
	if r != nil {
		r.ledger.PublishMetrics(r.Scorecards(0))
	}
}
