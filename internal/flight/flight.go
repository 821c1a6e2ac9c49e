// Package flight implements the session store: one bounded slot per
// session, under one lock, holding everything the domain records about
// the session, with three views over it. The configurator's observer
// hands each report over whole (Finished, Step), and the store writes its
// trace summary, provenance record and ledger step under one lock; the
// bus hands over each event as it is published (RecordEvent).
//
//   - the flight timeline (Timeline, Excerpt, Sessions) fuses structured
//     log records (internal/obslog), finished span summaries
//     (internal/trace), control-plane bus events (internal/eventbus), and
//     fault-injection markers (internal/faultinject) into one
//     sequence-ordered story of the session;
//   - the decision provenance (RecordExplain, Explain, ExplainSessions)
//     keeps the internal/explain records of why each decision came out
//     the way it did;
//   - the QoS outcome ledger (Report, LedgerSessions, Scorecards) keeps
//     the session's internal/ledger account, folded from the reports and
//     the admission verdicts, and folds it into per-class scorecards.
//
// Timeline entries and provenance records are each numbered store-wide,
// so entries from different goroutines interleave back into one causal
// story. Every ring is bounded per session, and so is the table's share
// of finished sessions: past the bound, a write evicts, in O(1) each, the
// least recently touched sessions with nothing left to fold into the
// ledger. A live session stays until it stops or is lost, so the store
// never reports a playing session as lost. Every method on a nil
// *Recorder is a no-op.
package flight

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"ubiqos/internal/eventbus"
	"ubiqos/internal/explain"
	"ubiqos/internal/ledger"
	"ubiqos/internal/obslog"
	"ubiqos/internal/trace"
)

// Kind classifies a timeline entry by the stream it came from.
type Kind string

// The entry kinds.
const (
	KindLog   Kind = "log"   // structured log record (obslog)
	KindSpan  Kind = "span"  // finished trace summary (trace)
	KindEvent Kind = "event" // control-plane bus event (eventbus)
	KindFault Kind = "fault" // injected fault marker (faultinject)
)

// Entry is one record on a session's timeline.
type Entry struct {
	// Seq is the recorder-wide monotonic sequence number; entries across
	// sessions and streams interleave in Seq order.
	Seq     uint64         `json:"seq"`
	Time    time.Time      `json:"time"`
	Kind    Kind           `json:"kind"`
	Session string         `json:"session"`
	TraceID string         `json:"traceId,omitempty"`
	Message string         `json:"message"`
	Detail  map[string]any `json:"detail,omitempty"`
}

// Format renders the entry as one text line of the timeline.
func (e Entry) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6d %s %-5s %s", e.Seq, e.Time.Format("15:04:05.000"), e.Kind, e.Message)
	if e.TraceID != "" {
		fmt.Fprintf(&b, " trace=%s", e.TraceID)
	}
	keys := make([]string, 0, len(e.Detail))
	for k := range e.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%v", k, e.Detail[k])
	}
	return b.String()
}

// SessionInfo summarizes one recorded session for index listings.
type SessionInfo struct {
	Session string    `json:"session"`
	Entries int       `json:"entries"` // retained (post-eviction) count
	Total   uint64    `json:"total"`   // lifetime count, including evicted
	Last    time.Time `json:"last"`    // time of the newest entry
}

// The store's bounds: one session table serves all three views, and each
// view keeps its own per-session ring in the slot. Provenance records
// are larger than timeline entries, so their ring is smaller; the
// ledger caps its closed episodes itself.
const (
	maxSessions = 128
	maxEntries  = 256
	maxRecords  = 32
)

// limits are the bounds one store runs with: the constants above, or
// tiny ones in tests.
type limits struct{ sessions, entries, records int }

// bounded is one view's retained items in a slot, oldest first, with the
// lifetime count and the time of the newest.
type bounded[T any] struct {
	items []T
	total uint64
	last  time.Time
}

func (b *bounded[T]) add(v T, t time.Time, max int) {
	b.total++
	b.last = t
	b.items = append(b.items, v)
	if len(b.items) > max {
		b.items = b.items[len(b.items)-max:]
	}
}

// slot is one session's place in the store: its flight timeline, its
// decision provenance, and its ledger account.
type slot struct {
	id         string
	prev, next *slot  // links on the recency list holding the slot
	touched    uint64 // store-wide stamp of the slot's latest write

	entries bounded[Entry]
	records bounded[explain.Record]
	acct    *ledger.Account // nil until the ledger hears of the session
}

// recency is a circular list of slots through a sentinel, most recently
// touched first. The slots are the list nodes, so moving one allocates
// nothing.
type recency struct{ root slot }

func (l *recency) init() { l.root.prev, l.root.next = &l.root, &l.root }

func (l *recency) pushFront(s *slot) {
	s.prev, s.next = &l.root, l.root.next
	s.next.prev, l.root.next = s, s
}

// back returns the least recently touched slot, or nil when empty.
func (l *recency) back() *slot {
	if l.root.prev == &l.root {
		return nil
	}
	return l.root.prev
}

func (s *slot) unlink() { s.prev.next, s.next.prev = s.next, s.prev }

// Recorder is the session store. All methods are safe for concurrent
// use; a nil *Recorder is a valid no-op store.
type Recorder struct {
	limits limits

	// mu guards everything below, the ledger's class aggregates included.
	// It also orders sequence stamping with the append it belongs to: a
	// number taken before the lock could reach its ring after a later one.
	mu       sync.Mutex
	seq      uint64 // timeline entries, store-wide
	xseq     uint64 // provenance records, store-wide
	clock    uint64 // slot writes, store-wide: the recency order
	sessions map[string]*slot
	// done holds the slots with nothing left to fold into the ledger (no
	// account, or a finalized one) and live those with an open account,
	// each most recently touched first. Eviction takes the back of done
	// only: a live slot leaves the store at its session's stop or loss.
	done, live recency
	ledger     *ledger.Ledger
}

// New returns an empty store whose ledger view is wired by opts.
func New(opts ledger.Options) *Recorder {
	return newRecorder(limits{maxSessions, maxEntries, maxRecords}, opts)
}

func newRecorder(lim limits, opts ledger.Options) *Recorder {
	r := &Recorder{limits: lim, sessions: make(map[string]*slot), ledger: ledger.New(opts)}
	r.done.init()
	r.live.init()
	return r
}

// slotLocked returns the session's slot, making one for a new session.
func (r *Recorder) slotLocked(session string) *slot {
	s := r.sessions[session]
	if s == nil {
		s = &slot{id: session}
		r.sessions[session] = s
	}
	return s
}

// touchLocked marks a write to the slot: it moves to the front of the
// recency list its account's state puts it on, and the table sheds what
// it holds beyond its bound.
func (r *Recorder) touchLocked(s *slot) {
	r.clock++
	s.touched = r.clock
	if s.prev != nil {
		s.unlink()
	}
	if s.acct != nil && s.acct.Live() {
		r.live.pushFront(s)
	} else {
		r.done.pushFront(s)
	}
	r.evictLocked(s)
}

// evictLocked drops the least recently touched slots with nothing left to
// fold, other than keep, the slot just written, while the table holds
// more than its bound. The bound applies to finished slots only: a live
// one stays until its session stops or is lost, and capacity already
// bounds how many sessions are live.
func (r *Recorder) evictLocked(keep *slot) {
	for len(r.sessions) > r.limits.sessions {
		victim := r.done.back()
		if victim == nil || victim == keep {
			return
		}
		victim.unlink()
		delete(r.sessions, victim.id)
	}
}

// index projects every slot view accepts, most recently touched first:
// the one session index every view's listing is drawn from.
func index[T any](r *Recorder, view func(*slot) (T, bool)) []T {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	slots := make([]*slot, 0, len(r.sessions))
	for _, s := range r.sessions {
		slots = append(slots, s)
	}
	slices.SortFunc(slots, func(a, b *slot) int { return cmp.Compare(b.touched, a.touched) })
	out := make([]T, 0, len(slots))
	for _, s := range slots {
		if v, ok := view(s); ok {
			out = append(out, v)
		}
	}
	return out
}

// add stamps and appends a timeline entry. Entries without a session are
// dropped: the flight recorder is a per-session instrument, and
// unattributed records are already retained by the daemon's log ring.
func (r *Recorder) add(e Entry) {
	if r == nil || e.Session == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addLocked(e)
}

func (r *Recorder) addLocked(e Entry) {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	r.seq++
	e.Seq = r.seq
	s := r.slotLocked(e.Session)
	s.entries.add(e, e.Time, r.limits.entries)
	r.touchLocked(s)
}

// Write implements obslog.Sink: every structured log record that carries
// a session ID lands on that session's timeline. Attach the recorder to
// the domain logger with AddSink.
func (r *Recorder) Write(rec obslog.Record) {
	if r == nil || rec.Session == "" {
		return
	}
	msg := rec.Msg
	if rec.Logger != "" {
		msg = rec.Logger + ": " + msg
	}
	e := Entry{
		Time:    rec.Time,
		Kind:    KindLog,
		Session: rec.Session,
		TraceID: rec.TraceID,
		Message: msg,
	}
	if fm := rec.FieldMap(); len(fm) > 0 {
		fm["level"] = rec.Level.String()
		e.Detail = fm
	} else {
		e.Detail = map[string]any{"level": rec.Level.String()}
	}
	r.add(e)
}

// traceEntry is the timeline entry summarizing a finished trace, and
// whether the trace has a session to record it on.
func traceEntry(ts trace.Summary) (Entry, bool) {
	if ts.Session == "" {
		return Entry{}, false
	}
	detail := map[string]any{
		"durMs": ts.DurMs,
		"spans": ts.Spans,
	}
	if ts.ErrSpans > 0 {
		detail["errSpans"] = ts.ErrSpans
	}
	if ts.ParentSpan != "" {
		detail["parentSpan"] = ts.ParentSpan
	}
	return Entry{
		Time:    ts.Start,
		Kind:    KindSpan,
		Session: ts.Session,
		TraceID: ts.TraceID,
		Message: "trace " + ts.Name,
		Detail:  detail,
	}, true
}

// RecordEvent appends a control-plane bus event to the given session's
// timeline (the caller resolves which sessions an event concerns).
func (r *Recorder) RecordEvent(session string, ev eventbus.Event) {
	if r == nil {
		return
	}
	var detail map[string]any
	if ev.Payload != nil {
		detail = map[string]any{"payload": fmt.Sprint(ev.Payload)}
	}
	r.add(Entry{
		Time:    ev.Time,
		Kind:    KindEvent,
		Session: session,
		Message: string(ev.Topic),
		Detail:  detail,
	})
}

// RecordFault appends an injected-fault marker: kind is the fault kind
// (device.crash, link.degrade, ...), target names the faulted entity.
func (r *Recorder) RecordFault(session, kind, target string, detail map[string]any) {
	if r == nil {
		return
	}
	d := map[string]any{"target": target}
	for k, v := range detail {
		d[k] = v
	}
	r.add(Entry{
		Kind:    KindFault,
		Session: session,
		Message: "fault " + kind,
		Detail:  d,
	})
}

// Timeline returns the session's retained entries in sequence order
// (nil when the session is unknown or the recorder is nil).
func (r *Recorder) Timeline(session string) []Entry {
	return r.Excerpt(session, time.Time{}, time.Time{}, maxEntries)
}

// Excerpt returns up to max of the session's entries whose timestamps
// fall inside [from, to], in sequence order, without copying the rest of
// the timeline. When the window holds more than max entries the newest
// max are kept — an evidence bundle wants the activity closest to the
// incident. Entry times are not monotonic in sequence (a trace summary
// carries its trace's start), so the whole ring is filtered. A zero from
// means "no lower bound" and a zero to means "no upper bound". It returns
// nil for an unknown session, a nil recorder, or a non-positive max.
func (r *Recorder) Excerpt(session string, from, to time.Time, max int) []Entry {
	if r == nil || max <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sessions[session]
	if s == nil {
		return nil
	}
	entries := s.entries.items
	var out []Entry
	for i := len(entries) - 1; i >= 0 && len(out) < max; i-- {
		if e := entries[i]; !e.Time.Before(from) && (to.IsZero() || !e.Time.After(to)) {
			out = append(out, e)
		}
	}
	slices.Reverse(out)
	return out
}

// Sessions lists the sessions with timeline entries, most recently
// touched first.
func (r *Recorder) Sessions() []SessionInfo {
	return index(r, func(s *slot) (SessionInfo, bool) {
		return SessionInfo{Session: s.id, Entries: len(s.entries.items), Total: s.entries.total, Last: s.entries.last}, s.entries.total > 0
	})
}
