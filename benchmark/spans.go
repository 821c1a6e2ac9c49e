package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the recorder was created; Parent is the ID of the span
// that caused this one (0 for a root); spans of one request share Request.
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int    `json:"parent"`
	Request string `json:"request,omitempty"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// records nothing, so the untraced passes run the same code.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records one finished span and returns its ID.
func (r *recorder) add(name string, start, end time.Time, parent int, request string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Name: name, Parent: parent, Request: request,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// open reserves an ID for a span whose children finish before it does;
// close fills in its interval.
func (r *recorder) open(name string, parent int, request string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Request: request})
	return id
}

func (r *recorder) close(id int, start, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.Start, s.End = start.Sub(r.epoch).Nanoseconds(), end.Sub(r.epoch).Nanoseconds()
}

// span returns the recorded span with the given ID; the zero span for ID 0
// or a nil recorder.
func (r *recorder) span(id int) span {
	if r == nil || id == 0 {
		return span{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line and returns how many it wrote.
func (r *recorder) writeJSONL(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	spans := r.snapshot()
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return 0, fmt.Errorf("trace output: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("trace output: %w", err)
	}
	return len(spans), f.Close()
}

// selfTime is the span's duration minus the part of its interval that its
// children cover. Children may overlap each other and may stick out of the
// parent; the covered part is the union of the child intervals clipped to
// the parent.
func selfTime(s span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, end int64
	end = s.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return time.Duration(s.End - s.Start - covered)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
