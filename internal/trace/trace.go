// Package trace provides lightweight structured tracing for the two-tier
// configuration path: every Configure call produces one Trace made of
// parent/child Spans (compose, per-attempt discovery, Ordered Coordination
// corrections, distribution, admission, deployment), each carrying typed
// attributes. A Tracer keeps a bounded ring buffer of recently finished
// traces, exportable as JSON for the wire protocol and the daemon's HTTP
// observability endpoint, or rendered as an indented text tree for qosctl.
//
// The API is nil-safe end to end: methods on a nil *Tracer, *Trace, or
// *Span are no-ops returning nil, so instrumentation sites never need a
// "tracing enabled?" branch. All types are safe for concurrent use.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Context is the propagated trace identity: the wire client stamps a
// fresh Context into each request envelope, the server adopts it when it
// starts the daemon-side trace, and the recovery supervisor re-uses the
// session's original Context for its recovery traces — so one client
// invocation, its compose→distribute spans, and any later recovery
// attempts all share a TraceID and can be joined into one tree.
type Context struct {
	// TraceID identifies the end-to-end operation (16 hex chars).
	TraceID string `json:"traceId,omitempty"`
	// ParentSpan names the remote parent span (e.g. the client's call
	// span), recorded on the adopted trace for reconstruction.
	ParentSpan string `json:"parentSpan,omitempty"`
}

// idCounter disambiguates IDs generated within the same nanosecond when
// the random source fails (it never should).
var idCounter atomic.Uint64

// NewID returns a fresh 16-hex-character trace or span ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fallback: time + counter is unique enough for observability IDs.
		n := uint64(time.Now().UnixNano()) + idCounter.Add(1)
		for i := 0; i < 8; i++ {
			b[i] = byte(n >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// Attr is one typed span attribute. A string attribute holds its value
// in Str, unboxed, and has a nil Value; every other kind holds its value
// in Value.
type Attr struct {
	Key   string
	Str   string
	Value any
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Str: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, Value: value} }

// Float builds a float attribute.
func Float(key string, value float64) Attr { return Attr{Key: key, Value: value} }

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr { return Attr{Key: key, Value: value} }

// value is the attribute's value as the export carries it.
func (a Attr) value() any {
	if a.Value == nil {
		return a.Str
	}
	return a.Value
}

// Span is one timed stage of a trace. Spans form a tree through parent
// links; the root span covers the whole traced operation.
type Span struct {
	tr     *Trace
	id     int
	parent int // -1 for the root
	name   string
	start  time.Time
	// dur is how long the span ran, from start (monotonic), or -1 while it
	// is open: a duration keeps a retained span 16 bytes under an end time.
	dur   time.Duration
	attrs []Attr
}

// durMs is the span's duration in milliseconds, an open span's up to now.
// The caller holds the trace's lock.
func (s *Span) durMs() float64 {
	if s.dur < 0 {
		return toMs(time.Since(s.start))
	}
	return toMs(s.dur)
}

// Child starts a sub-span under s. It returns nil when s is nil.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(s.id, name, attrs)
}

// Set appends attributes to the span. Later values for the same key
// shadow earlier ones in the export.
func (s *Span) Set(attrs ...Attr) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.tr.mu.Unlock()
}

// SetErr records err as the span's "error" attribute (no-op on nil err).
func (s *Span) SetErr(err error) {
	if s == nil || err == nil {
		return
	}
	s.Set(String("error", err.Error()))
}

// End marks the span finished. End is idempotent; spans still open when
// the trace finishes are ended at the trace's end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.dur < 0 {
		s.dur = time.Since(s.start)
	}
	s.tr.mu.Unlock()
}

// Trace is one traced operation: a tree of spans rooted at Root.
type Trace struct {
	t       *Tracer
	id      uint64
	ctx     Context
	name    string
	session string
	start   time.Time

	mu    sync.Mutex
	spans []*Span
	done  bool
}

// Context returns the trace's propagated identity (zero for a nil
// trace). The TraceID is always populated, adopted or generated.
func (tr *Trace) Context() Context {
	if tr == nil {
		return Context{}
	}
	return tr.ctx
}

// Root returns the trace's root span, or nil for a nil trace.
func (tr *Trace) Root() *Span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.spans[0]
}

// newSpan starts a span under parent with its own copy of attrs, so that
// a caller's variadic list need not live on the heap.
func (tr *Trace) newSpan(parent int, name string, attrs []Attr) *Span {
	own := append([]Attr(nil), attrs...)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sp := &Span{
		tr:     tr,
		id:     len(tr.spans),
		parent: parent,
		name:   name,
		start:  time.Now(),
		dur:    -1,
		attrs:  own,
	}
	tr.spans = append(tr.spans, sp)
	return sp
}

// Finish ends the trace (closing any still-open spans) and publishes it to
// the tracer's ring buffer. Finish is idempotent.
func (tr *Trace) Finish() {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if tr.done {
		tr.mu.Unlock()
		return
	}
	tr.done = true
	now := time.Now()
	for _, sp := range tr.spans {
		if sp.dur < 0 {
			sp.dur = now.Sub(sp.start)
		}
	}
	tr.mu.Unlock()
	tr.t.push(tr)
}

// Tracer hands out traces and retains the most recent finished ones in a
// bounded ring buffer.
type Tracer struct {
	mu     sync.Mutex
	cap    int
	nextID uint64
	ring   []*Trace // oldest first
}

// DefaultCapacity is the ring size used when NewTracer is given a
// non-positive capacity.
const DefaultCapacity = 64

// NewTracer returns a tracer retaining up to capacity finished traces.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{cap: capacity}
}

// Start begins a new trace named name for the given session (typically the
// session ID being configured). The trace's root span carries the given
// attributes. A nil tracer returns a nil trace, on which every operation
// is a no-op.
func (t *Tracer) Start(name, session string, attrs ...Attr) *Trace {
	return t.StartCtx(Context{}, name, session, attrs...)
}

// StartCtx begins a trace under a propagated Context: the new trace
// adopts ctx.TraceID (generating a fresh one when empty) and records
// ctx.ParentSpan as the root span's remote parent, joining the local span
// tree to whatever started the operation on the other side of the wire.
func (t *Tracer) StartCtx(ctx Context, name, session string, attrs ...Attr) *Trace {
	if t == nil {
		return nil
	}
	if ctx.TraceID == "" {
		ctx.TraceID = NewID()
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	tr := &Trace{t: t, id: id, ctx: ctx, name: name, session: session, start: time.Now()}
	// The root's list has room for the session, the parent span and the
	// one attribute the traced operation's outcome sets (its cost or
	// error).
	room := len(attrs) + 1
	if session != "" {
		room++
	}
	if ctx.ParentSpan != "" {
		room++
	}
	root := &Span{tr: tr, id: 0, parent: -1, name: name, start: tr.start, dur: -1,
		attrs: append(make([]Attr, 0, room), attrs...)}
	if session != "" {
		root.attrs = append(root.attrs, String("session", session))
	}
	if ctx.ParentSpan != "" {
		root.attrs = append(root.attrs, String("parentSpan", ctx.ParentSpan))
	}
	tr.spans = []*Span{root}
	return tr
}

func (t *Tracer) push(tr *Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring = append(t.ring, tr)
	if len(t.ring) > t.cap {
		t.ring = t.ring[len(t.ring)-t.cap:]
	}
}

// Len returns the number of retained finished traces.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// Recent exports up to n of the most recently finished traces, newest
// first. n <= 0 exports everything retained.
func (t *Tracer) Recent(n int) []TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ring := append([]*Trace(nil), t.ring...)
	t.mu.Unlock()
	if n <= 0 || n > len(ring) {
		n = len(ring)
	}
	out := make([]TraceData, 0, n)
	for i := len(ring) - 1; i >= len(ring)-n; i-- {
		out = append(out, ring[i].export())
	}
	return out
}

// Find exports the most recently finished trace for the given session, or
// nil when none is retained.
func (t *Tracer) Find(session string) *TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.ring) - 1; i >= 0; i-- {
		if t.ring[i].session == session {
			td := t.ring[i].export()
			return &td
		}
	}
	return nil
}

// Latest exports the most recently finished trace, or nil when the ring is
// empty.
func (t *Tracer) Latest() *TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) == 0 {
		return nil
	}
	td := t.ring[len(t.ring)-1].export()
	return &td
}

// SpanData is the exported form of one span.
type SpanData struct {
	ID       int            `json:"id"`
	Parent   int            `json:"parent"` // -1 for the root
	Name     string         `json:"name"`
	OffsetMs float64        `json:"offsetMs"` // start offset from the trace start
	DurMs    float64        `json:"durMs"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// TraceData is the exported, JSON-serializable form of one finished trace.
type TraceData struct {
	ID uint64 `json:"id"`
	// TraceID is the propagated end-to-end identity; traces adopted from
	// the same wire request (and any recovery traces for the session)
	// share it.
	TraceID    string     `json:"traceId,omitempty"`
	ParentSpan string     `json:"parentSpan,omitempty"`
	Name       string     `json:"name"`
	Session    string     `json:"session,omitempty"`
	Start      time.Time  `json:"start"`
	DurMs      float64    `json:"durMs"`
	Spans      []SpanData `json:"spans"`
}

func toMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Summary is what a session store keeps of a finished trace: its
// identity, its extent and how many of its spans there are and carry an
// error, without the spans.
type Summary struct {
	TraceID    string
	ParentSpan string
	Name       string
	Session    string
	Start      time.Time
	// DurMs is the root span's duration, as TraceData.DurMs.
	DurMs float64
	// Spans counts the trace's spans and ErrSpans those with an "error"
	// attribute.
	Spans, ErrSpans int
}

// Summary summarizes the trace as Recent, Find and Latest would export it,
// building none of the export's maps; in-flight spans count with their current state. It
// returns the zero Summary for a nil trace.
func (tr *Trace) Summary() Summary {
	if tr == nil {
		return Summary{}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	sum := Summary{
		TraceID:    tr.ctx.TraceID,
		ParentSpan: tr.ctx.ParentSpan,
		Name:       tr.name,
		Session:    tr.session,
		Start:      tr.start,
		Spans:      len(tr.spans),
	}
	for i, sp := range tr.spans {
		if i == 0 {
			sum.DurMs = sp.durMs()
		}
		for _, a := range sp.attrs {
			if a.Key == "error" {
				sum.ErrSpans++
				break
			}
		}
	}
	return sum
}

// export snapshots the trace into its serializable form; in-flight spans
// are exported with their current state.
func (tr *Trace) export() TraceData {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	td := TraceData{
		ID:         tr.id,
		TraceID:    tr.ctx.TraceID,
		ParentSpan: tr.ctx.ParentSpan,
		Name:       tr.name,
		Session:    tr.session,
		Start:      tr.start,
		Spans:      make([]SpanData, len(tr.spans)),
	}
	for i, sp := range tr.spans {
		sd := SpanData{
			ID:       sp.id,
			Parent:   sp.parent,
			Name:     sp.name,
			OffsetMs: toMs(sp.start.Sub(tr.start)),
			DurMs:    sp.durMs(),
		}
		if len(sp.attrs) > 0 {
			sd.Attrs = make(map[string]any, len(sp.attrs))
			for _, a := range sp.attrs {
				sd.Attrs[a.Key] = a.value()
			}
		}
		td.Spans[i] = sd
	}
	if len(td.Spans) > 0 {
		td.DurMs = td.Spans[0].DurMs
	}
	return td
}

// Render formats the trace as an indented text tree, one span per line:
//
//	configure (12.4ms) session=audio-1
//	  compose (3.1ms)
//	    discover (0.2ms) node=player type=audio-player depth=0
//
// Attributes are sorted by key for stable output.
func (td *TraceData) Render() string {
	if td == nil {
		return ""
	}
	children := make(map[int][]SpanData)
	for _, sp := range td.Spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	var b strings.Builder
	var walk func(sp SpanData, depth int)
	walk = func(sp SpanData, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s (%.2fms)", sp.Name, sp.DurMs)
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%v", k, sp.Attrs[k])
		}
		b.WriteByte('\n')
		for _, c := range children[sp.ID] {
			walk(c, depth+1)
		}
	}
	for _, sp := range td.Spans {
		if sp.Parent == -1 {
			walk(sp, 0)
		}
	}
	return b.String()
}
