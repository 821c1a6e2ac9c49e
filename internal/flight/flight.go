// Package flight implements the session flight recorder: one bounded,
// append-only, concurrency-safe timeline per session, fusing the four
// observability streams the domain emits — structured log records
// (internal/obslog), finished span summaries (internal/trace),
// control-plane bus events (internal/eventbus), and fault-injection
// markers (internal/faultinject) — into a single, sequence-ordered
// record of what happened to a session across qosctl, the daemon,
// recovery, and chaos.
//
// Every entry is stamped with the session ID, the propagated trace ID
// (when known), and a globally monotonic sequence number, so entries
// from different goroutines and subsystems can be interleaved back into
// one causal story. Timelines are bounded per session and the session
// table itself is bounded (least-recently-touched sessions are evicted),
// so the recorder is safe to leave on in a long-running daemon.
//
// Like the rest of the observability stack, the API is nil-safe: every
// method on a nil *Recorder is a no-op.
package flight

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"ubiqos/internal/eventbus"
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

// timeline is one session's bounded entry ring (oldest first).
type timeline struct {
	entries []Entry
	total   uint64
	last    time.Time
}

// Defaults for Options fields left zero.
const (
	DefaultPerSession  = 256
	DefaultMaxSessions = 128
)

// Options bound the recorder.
type Options struct {
	// PerSession caps each session's retained entries (default 256);
	// older entries are evicted first.
	PerSession int
	// MaxSessions caps the session table (default 128); the
	// least-recently-touched session is evicted when a new one arrives.
	MaxSessions int
}

// Recorder maintains the per-session timelines. All methods are safe for
// concurrent use; a nil *Recorder is a valid no-op recorder.
type Recorder struct {
	perSession  int
	maxSessions int

	// mu also orders sequence stamping with the append it belongs to: a
	// number taken before the lock could reach its timeline after a later
	// one.
	mu       sync.Mutex
	seq      uint64
	sessions map[string]*timeline
}

// New returns a recorder with the given bounds.
func New(opts Options) *Recorder {
	if opts.PerSession <= 0 {
		opts.PerSession = DefaultPerSession
	}
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = DefaultMaxSessions
	}
	return &Recorder{
		perSession:  opts.PerSession,
		maxSessions: opts.MaxSessions,
		sessions:    make(map[string]*timeline),
	}
}

// add stamps and appends the entry. Entries without a session are
// dropped: the flight recorder is a per-session instrument, and
// unattributed records are already retained by the daemon's log ring.
func (r *Recorder) add(e Entry) {
	if r == nil || e.Session == "" {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	e.Seq = r.seq
	tl := r.sessions[e.Session]
	if tl == nil {
		r.evictLocked()
		tl = &timeline{}
		r.sessions[e.Session] = tl
	}
	tl.total++
	tl.last = e.Time
	tl.entries = append(tl.entries, e)
	if len(tl.entries) > r.perSession {
		tl.entries = tl.entries[len(tl.entries)-r.perSession:]
	}
}

// evictLocked makes room for one more session by dropping the
// least-recently-touched timeline when the table is full.
func (r *Recorder) evictLocked() {
	if len(r.sessions) < r.maxSessions {
		return
	}
	var victim string
	var oldest time.Time
	for s, tl := range r.sessions {
		if victim == "" || tl.last.Before(oldest) {
			victim, oldest = s, tl.last
		}
	}
	delete(r.sessions, victim)
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

// RecordTrace appends a finished trace's summary — root operation,
// duration, span count, and error spans — to its session's timeline.
func (r *Recorder) RecordTrace(td trace.TraceData) {
	if r == nil || td.Session == "" {
		return
	}
	errs := 0
	for _, sp := range td.Spans {
		if sp.Attrs["error"] != nil {
			errs++
		}
	}
	detail := map[string]any{
		"durMs": td.DurMs,
		"spans": len(td.Spans),
	}
	if errs > 0 {
		detail["errSpans"] = errs
	}
	if td.ParentSpan != "" {
		detail["parentSpan"] = td.ParentSpan
	}
	r.add(Entry{
		Time:    td.Start,
		Kind:    KindSpan,
		Session: td.Session,
		TraceID: td.TraceID,
		Message: "trace " + td.Name,
		Detail:  detail,
	})
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
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tl := r.sessions[session]
	if tl == nil {
		return nil
	}
	return append([]Entry(nil), tl.entries...)
}

// Excerpt returns up to max of the session's entries whose timestamps
// fall inside [from, to], oldest first, without copying the rest of the
// timeline. When the window holds more than max entries the newest max
// are kept — an evidence bundle wants the activity closest to the
// incident. A zero from means "no lower bound" and a zero to means "no
// upper bound". It returns nil for an unknown session, a nil recorder,
// or a non-positive max.
func (r *Recorder) Excerpt(session string, from, to time.Time, max int) []Entry {
	if r == nil || max <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	tl := r.sessions[session]
	if tl == nil {
		return nil
	}
	// Entries are appended in time order, so scan backward from the
	// newest: skip past the upper bound, stop at the lower bound.
	out := make([]Entry, 0, max)
	for i := len(tl.entries) - 1; i >= 0 && len(out) < max; i-- {
		e := tl.entries[i]
		if !to.IsZero() && e.Time.After(to) {
			continue
		}
		if e.Time.Before(from) {
			break
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Sessions lists the recorded sessions, most recently touched first.
func (r *Recorder) Sessions() []SessionInfo {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SessionInfo, 0, len(r.sessions))
	for s, tl := range r.sessions {
		out = append(out, SessionInfo{Session: s, Entries: len(tl.entries), Total: tl.total, Last: tl.last})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Last.Equal(out[j].Last) {
			return out[i].Last.After(out[j].Last)
		}
		return out[i].Session < out[j].Session
	})
	return out
}

// Resolver maps a bus event to the sessions it concerns. Returning nil
// skips the event. The domain installs a resolver that attributes
// session.* events by payload and device/link events to the sessions
// placed on the affected devices.
type Resolver func(eventbus.Event) []string

// TapTopics is the control-plane topic set a Tap subscribes to.
var TapTopics = []eventbus.Topic{
	eventbus.TopicDeviceJoined,
	eventbus.TopicDeviceLeft,
	eventbus.TopicResourceChanged,
	eventbus.TopicDeviceSwitched,
	eventbus.TopicUserMoved,
	eventbus.TopicSessionStarted,
	eventbus.TopicSessionStopped,
	eventbus.TopicSessionRecovered,
	eventbus.TopicSessionRestored,
	eventbus.TopicUserNotification,
}

// Tap subscribes the recorder to the bus's control-plane topics through
// a lossless subscription and records each event on every session the
// resolver attributes it to. It returns a cancel function; cancelling is
// idempotent. A nil recorder taps nothing.
func (r *Recorder) Tap(bus *eventbus.Bus, resolve Resolver) (func(), error) {
	if r == nil || bus == nil {
		return func() {}, nil
	}
	sub, err := bus.SubscribeLossless(TapTopics...)
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range sub.C() {
			if resolve == nil {
				continue
			}
			for _, session := range resolve(ev) {
				r.RecordEvent(session, ev)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			sub.Cancel()
			<-done
		})
	}, nil
}
