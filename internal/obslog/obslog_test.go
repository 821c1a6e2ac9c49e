package obslog

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilLoggerIsNoOp(t *testing.T) {
	var l *Logger
	l.Debug("d")
	l.Info("i", String("k", "v"))
	l.Warn("w")
	l.Error("e", Err(errors.New("boom")))
	l.AddSink(&recordSink{})
	if got := l.Named("x").ForSession("s", "t").With(Int("n", 1)); got != nil {
		t.Fatalf("children of nil logger must be nil, got %v", got)
	}
	if l.Enabled(LevelError) {
		t.Fatal("nil logger must not report enabled")
	}
}

func TestLevelsAndFields(t *testing.T) {
	sink := &recordSink{}
	l := New(LevelInfo, sink)
	l.Debug("dropped")
	l.Info("kept", Int("n", 7), Bool("ok", true))
	l.Error("bad", Err(errors.New("boom")))

	recs := sink.records()
	if len(recs) != 2 {
		t.Fatalf("want 2 records (debug filtered), got %d", len(recs))
	}
	if recs[0].Msg != "kept" || recs[0].Level != LevelInfo {
		t.Fatalf("unexpected first record %+v", recs[0])
	}
	fm := recs[0].FieldMap()
	if fm["n"] != int64(7) || fm["ok"] != true {
		t.Fatalf("unexpected field map %v", fm)
	}
	if fm := recs[1].FieldMap(); fm["error"] != "boom" || recs[1].Level != LevelError {
		t.Fatalf("Err field not recorded: %+v", recs[1])
	}
}

func TestNamedForSessionWith(t *testing.T) {
	sink := &recordSink{}
	l := New(LevelDebug, sink)
	child := l.Named("core").Named("supervisor").ForSession("s1", "abc123").With(String("mode", "degraded"))
	child.Warn("retry", Int("attempt", 2))

	recs := sink.records()
	if len(recs) != 1 {
		t.Fatalf("want 1 record, got %d", len(recs))
	}
	r := recs[0]
	if r.Logger != "core.supervisor" || r.Session != "s1" || r.TraceID != "abc123" {
		t.Fatalf("attribution lost: %+v", r)
	}
	fm := r.FieldMap()
	if fm["mode"] != "degraded" || fm["attempt"] != int64(2) {
		t.Fatalf("bound+call fields not merged: %v", fm)
	}
	line := r.Format()
	for _, want := range []string{"WARN", "core.supervisor: retry", "session=s1", "trace=abc123", "attempt=2"} {
		if !strings.Contains(line, want) {
			t.Fatalf("formatted line %q missing %q", line, want)
		}
	}
}

func TestAddSinkSharedAcrossChildren(t *testing.T) {
	l := New(LevelDebug)
	child := l.Named("c")
	sink := &recordSink{}
	child.AddSink(sink) // attached via the child, visible from the parent
	l.Info("hello")
	if n := len(sink.records()); n != 1 {
		t.Fatalf("sink attached on child must receive parent's records, got %d", n)
	}
}

func TestConcurrentLogging(t *testing.T) {
	sink := &recordSink{}
	l := New(LevelDebug, sink)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sl := l.Named("worker").ForSession("s", "t")
			for i := 0; i < 100; i++ {
				sl.Info("tick", Int("g", int64(g)), Int("i", int64(i)))
			}
		}(g)
	}
	// Attach a sink mid-flight to exercise the copy-on-write path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			l.AddSink(FuncSink(func(Record) {}))
		}
	}()
	wg.Wait()
	if got := len(sink.records()); got != 800 {
		t.Fatalf("want 800 records, got %d", got)
	}
}

func TestWriterSink(t *testing.T) {
	var sb safeBuilder
	l := New(LevelInfo, NewWriterSink(&sb))
	l.Info("started", String("addr", ":7420"))
	if out := sb.String(); !strings.Contains(out, "started addr=:7420") || !strings.HasSuffix(out, "\n") {
		t.Fatalf("unexpected writer output %q", out)
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]Level{
		"debug": LevelDebug, "Info": LevelInfo, "WARN": LevelWarn,
		"warning": LevelWarn, "error": LevelError, "bogus": LevelInfo, "": LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestDurationAndErrNil(t *testing.T) {
	f := Duration("tookMs", 1500*time.Millisecond)
	if f.Value != 1500.0 {
		t.Fatalf("duration field should be ms, got %v", f.Value)
	}
	if Err(nil).Key != "" {
		t.Fatal("Err(nil) must yield an empty-key field")
	}
	r := Record{Fields: []Field{Err(nil)}}
	if strings.Contains(r.Format(), "=") {
		t.Fatalf("empty-key field leaked into format: %q", r.Format())
	}
}

// recordSink keeps every record it is given.
type recordSink struct {
	mu   sync.Mutex
	recs []Record
}

func (s *recordSink) Write(rec Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, rec)
}

// records copies the records written so far, oldest first.
func (s *recordSink) records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Record(nil), s.recs...)
}

// safeBuilder is a mutex-guarded strings.Builder (WriterSink serializes
// writes itself, but the test also reads).
type safeBuilder struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *safeBuilder) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *safeBuilder) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestDisabledLoggingAllocationFree: a log call the level check guards
// costs nothing when the logger is nil or the level is suppressed — the
// price of leaving the call sites in the configure path.
func TestDisabledLoggingAllocationFree(t *testing.T) {
	var nilLogger *Logger
	quiet := New(LevelError, &recordSink{}).Named("core").ForSession("s1", "cafef00dcafef00d")
	for _, tc := range []struct {
		name string
		lg   *Logger
	}{
		{"nil logger", nilLogger},
		{"below level", quiet},
	} {
		allocs := testing.AllocsPerRun(1000, func() {
			if tc.lg.Enabled(LevelInfo) {
				tc.lg.Info("configured", Float("cost", 0.42), Int("components", 5), Duration("took", time.Millisecond))
			}
		})
		if allocs != 0 {
			t.Errorf("%s: guarded Info allocates %.1f objects per call, want 0", tc.name, allocs)
		}
	}
}
