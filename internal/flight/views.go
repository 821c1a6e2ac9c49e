package flight

import (
	"time"

	"ubiqos/internal/explain"
	"ubiqos/internal/ledger"
	"ubiqos/internal/qos"
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

// account applies one ledger step to the session's account under the
// store's lock. With open set the account (and the slot) is made when
// the session has none and relabeled with class when it had none;
// without, a session the ledger never heard of gets the step with a nil
// account.
func (r *Recorder) account(session, class string, open bool, step func(*ledger.Account)) {
	if r == nil || session == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sessions[session]
	if open {
		s = r.slotLocked(session)
		s.acct = r.ledger.Open(s.acct, session, class)
	}
	if s == nil {
		step(nil)
		return
	}
	step(s.acct)
	r.touchLocked(s)
}

// RecordAdmission records the admission gate's decision for a session
// (see ledger.Ledger.Admission).
func (r *Recorder) RecordAdmission(session, class, verdict, reason string) {
	r.account(session, class, verdict != "reject", func(a *ledger.Account) {
		r.ledger.Admission(a, class, verdict, reason)
	})
}

// RecordConfigured records a successful (re)configuration (see
// ledger.Ledger.Configured).
func (r *Recorder) RecordConfigured(session, class string, requested qos.Vector, degradeFactor float64, took time.Duration, action string) {
	r.account(session, class, true, func(a *ledger.Account) {
		r.ledger.Configured(a, requested, degradeFactor, took, action)
	})
}

// RecordConfigureFailed records a failed configuration attempt.
func (r *Recorder) RecordConfigureFailed(session, class, reason string) {
	r.account(session, class, true, func(a *ledger.Account) { r.ledger.ConfigureFailed(a, reason) })
}

// RecordBroken records that the session broke and is under recovery.
func (r *Recorder) RecordBroken(session, reason string) {
	r.account(session, "", true, func(a *ledger.Account) { r.ledger.Broken(a, reason) })
}

// RecordRecovered records a recovery success after mttr.
func (r *Recorder) RecordRecovered(session string, mttr time.Duration, degraded bool, shed []string, fallback string) {
	r.account(session, "", true, func(a *ledger.Account) {
		r.ledger.Recovered(a, mttr, degraded, shed, fallback)
	})
}

// RecordLost records that the session was given up.
func (r *Recorder) RecordLost(session, reason string) {
	r.account(session, "", true, func(a *ledger.Account) { r.ledger.Lost(a, reason) })
}

// RecordStopped records a clean session stop.
func (r *Recorder) RecordStopped(session string) {
	r.account(session, "", false, func(a *ledger.Account) { r.ledger.Stopped(a) })
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
