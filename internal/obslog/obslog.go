// Package obslog is the structured logging layer of the observability
// stack: a thin, dependency-free log/slog-style API with typed fields,
// levels, and pluggable sinks. The domain server logs through it instead
// of ad-hoc fmt/log prints, so every record carries the session ID and
// trace ID that let the flight recorder fuse logs with spans, bus events,
// and fault markers into one per-session timeline.
//
// The API is nil-safe end to end: every method on a nil *Logger is a
// no-op, so instrumentation sites never branch on "logging enabled?".
// Loggers are immutable values — Named and ForSession return children
// sharing the parent's sink set — and safe for concurrent use.
package obslog

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders log records by severity.
type Level int

// The levels, in increasing severity.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String renders the level as a fixed-width tag.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "DEBUG"
	case LevelInfo:
		return "INFO"
	case LevelWarn:
		return "WARN"
	case LevelError:
		return "ERROR"
	default:
		return fmt.Sprintf("LEVEL(%d)", int(l))
	}
}

// ParseLevel resolves a level name (case-insensitive); unknown names
// default to Info.
func ParseLevel(s string) Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug
	case "warn", "warning":
		return LevelWarn
	case "error":
		return LevelError
	default:
		return LevelInfo
	}
}

// Field is one typed key/value pair attached to a record.
type Field struct {
	Key   string
	Value any
}

// String builds a string field.
func String(key, value string) Field { return Field{Key: key, Value: value} }

// Int builds an integer field.
func Int(key string, value int64) Field { return Field{Key: key, Value: value} }

// Float builds a float field.
func Float(key string, value float64) Field { return Field{Key: key, Value: value} }

// Bool builds a boolean field.
func Bool(key string, value bool) Field { return Field{Key: key, Value: value} }

// Duration builds a duration field (exported as milliseconds).
func Duration(key string, value time.Duration) Field {
	return Field{Key: key, Value: float64(value) / float64(time.Millisecond)}
}

// Err builds the conventional "error" field; a nil error yields a field
// with an empty key, which sinks skip.
func Err(err error) Field {
	if err == nil {
		return Field{}
	}
	return Field{Key: "error", Value: err.Error()}
}

// Record is one emitted log record. Session and TraceID are promoted out
// of the field list so sinks that fuse streams (the flight recorder) can
// attribute the record without scanning fields.
type Record struct {
	Time    time.Time `json:"time"`
	Level   Level     `json:"level"`
	Logger  string    `json:"logger,omitempty"` // component name, e.g. "core.supervisor"
	Msg     string    `json:"msg"`
	Session string    `json:"session,omitempty"`
	TraceID string    `json:"traceId,omitempty"`
	Fields  []Field   `json:"fields,omitempty"`
}

// Format renders the record as one text line:
//
//	15:04:05.000 WARN  core.supervisor: recovery retry session=drill-1 trace=4f... attempt=2 backoffMs=20
func (r Record) Format() string {
	var b strings.Builder
	b.WriteString(r.Time.Format("15:04:05.000"))
	fmt.Fprintf(&b, " %-5s ", r.Level)
	if r.Logger != "" {
		b.WriteString(r.Logger)
		b.WriteString(": ")
	}
	b.WriteString(r.Msg)
	if r.Session != "" {
		fmt.Fprintf(&b, " session=%s", r.Session)
	}
	if r.TraceID != "" {
		fmt.Fprintf(&b, " trace=%s", r.TraceID)
	}
	for _, f := range r.Fields {
		if f.Key == "" {
			continue
		}
		fmt.Fprintf(&b, " %s=%v", f.Key, f.Value)
	}
	return b.String()
}

// FieldMap flattens the field list into a map (later duplicates win).
// Empty-key fields (e.g. Err(nil)) are skipped.
func (r Record) FieldMap() map[string]any {
	if len(r.Fields) == 0 {
		return nil
	}
	m := make(map[string]any, len(r.Fields))
	for _, f := range r.Fields {
		if f.Key == "" {
			continue
		}
		m[f.Key] = f.Value
	}
	return m
}

// Sink receives emitted records. Implementations must be safe for
// concurrent use.
type Sink interface {
	Write(Record)
}

// sinkSet is the shared, atomically swappable sink list behind a logger
// tree: AddSink copies-on-write so the hot Write path never locks.
type sinkSet struct {
	mu    sync.Mutex // serializes writers of the list, not readers
	sinks atomic.Pointer[[]Sink]
}

func (ss *sinkSet) add(s Sink) {
	if s == nil {
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var cur []Sink
	if p := ss.sinks.Load(); p != nil {
		cur = *p
	}
	next := make([]Sink, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = s
	ss.sinks.Store(&next)
}

func (ss *sinkSet) load() []Sink {
	if p := ss.sinks.Load(); p != nil {
		return *p
	}
	return nil
}

// Logger emits records at or above its level to a shared sink set.
// A nil *Logger is a valid no-op logger.
type Logger struct {
	set     *sinkSet
	level   Level
	name    string
	session string
	traceID string
	bound   []Field
}

// New returns a logger writing records at or above level to the given
// sinks. More sinks can be attached later with AddSink; children created
// via Named/ForSession/With share the sink set, so an AddSink on any of
// them is visible to all.
func New(level Level, sinks ...Sink) *Logger {
	l := &Logger{set: &sinkSet{}, level: level}
	for _, s := range sinks {
		l.set.add(s)
	}
	return l
}

// AddSink attaches another sink to the logger's shared sink set.
func (l *Logger) AddSink(s Sink) {
	if l == nil {
		return
	}
	l.set.add(s)
}

// Named returns a child logger with the component name appended
// (dot-separated).
func (l *Logger) Named(name string) *Logger {
	if l == nil {
		return nil
	}
	child := *l
	if child.name != "" {
		child.name += "." + name
	} else {
		child.name = name
	}
	return &child
}

// ForSession returns a child logger whose records carry the session and
// trace IDs. Either may be empty.
func (l *Logger) ForSession(session, traceID string) *Logger {
	if l == nil {
		return nil
	}
	child := *l
	child.session = session
	child.traceID = traceID
	return &child
}

// With returns a child logger with fields bound to every record.
func (l *Logger) With(fields ...Field) *Logger {
	if l == nil || len(fields) == 0 {
		return l
	}
	child := *l
	child.bound = append(append([]Field(nil), l.bound...), fields...)
	return &child
}

// Enabled reports whether records at the level would be emitted.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.level
}

// Debug emits a debug record.
func (l *Logger) Debug(msg string, fields ...Field) { l.log(LevelDebug, msg, fields) }

// Info emits an info record.
func (l *Logger) Info(msg string, fields ...Field) { l.log(LevelInfo, msg, fields) }

// Warn emits a warning record.
func (l *Logger) Warn(msg string, fields ...Field) { l.log(LevelWarn, msg, fields) }

// Error emits an error record.
func (l *Logger) Error(msg string, fields ...Field) { l.log(LevelError, msg, fields) }

func (l *Logger) log(level Level, msg string, fields []Field) {
	if !l.Enabled(level) {
		return
	}
	sinks := l.set.load()
	if len(sinks) == 0 {
		return
	}
	rec := Record{
		Time:    time.Now(),
		Level:   level,
		Logger:  l.name,
		Msg:     msg,
		Session: l.session,
		TraceID: l.traceID,
	}
	switch {
	case len(l.bound) == 0:
		rec.Fields = fields
	case len(fields) == 0:
		rec.Fields = l.bound
	default:
		rec.Fields = append(append([]Field(nil), l.bound...), fields...)
	}
	for _, s := range sinks {
		s.Write(rec)
	}
}

// WriterSink formats each record as one text line on an io.Writer
// (typically stderr). Writes are serialized.
type WriterSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewWriterSink wraps the writer.
func NewWriterSink(w io.Writer) *WriterSink { return &WriterSink{w: w} }

// Write implements Sink.
func (ws *WriterSink) Write(rec Record) {
	line := rec.Format() + "\n"
	ws.mu.Lock()
	defer ws.mu.Unlock()
	io.WriteString(ws.w, line)
}

// FuncSink adapts a function into a Sink (useful in tests and for the
// flight recorder's adapter).
type FuncSink func(Record)

// Write implements Sink.
func (f FuncSink) Write(rec Record) { f(rec) }
