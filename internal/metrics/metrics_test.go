package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(5)
	c.Add(-3) // ignored: monotonic
	if got := c.Value(); got != 6 {
		t.Errorf("Value = %d", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 1600 {
		t.Errorf("Value = %d", got)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Count() != 0 {
		t.Error("empty histogram stats wrong")
	}
	h.Observe(10 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	h.Observe(-1) // ignored
	if h.Count() != 2 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Mean() != 20*time.Millisecond {
		t.Errorf("Mean = %v", h.Mean())
	}
	if h.Min() != 10*time.Millisecond || h.Max() != 30*time.Millisecond {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if h.Sum() != 40*time.Millisecond {
		t.Errorf("Sum = %v", h.Sum())
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	// 100 observations spread across two decades.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	p50 := h.Quantile(0.5)
	p99 := h.Quantile(0.99)
	// Bucket bounds grow by 1.5×, so the estimate over-reports by at most
	// one growth factor.
	if p50 < 50*time.Millisecond || p50 > 80*time.Millisecond {
		t.Errorf("p50 = %v, want within [50ms, 80ms]", p50)
	}
	if p99 < 99*time.Millisecond || p99 > 100*time.Millisecond {
		t.Errorf("p99 = %v, want within [99ms, 100ms] (clamped to max)", p99)
	}
	if q := h.Quantile(1); q != h.Max() {
		t.Errorf("p100 = %v, want max %v", q, h.Max())
	}
	// A quantile can never report below the observed minimum.
	var lo Histogram
	lo.Observe(5 * time.Millisecond)
	if q := lo.Quantile(0.5); q != 5*time.Millisecond {
		t.Errorf("single-sample p50 = %v, want 5ms", q)
	}
}

func TestBucketFor(t *testing.T) {
	if got := bucketFor(0); got != 0 {
		t.Errorf("bucketFor(0) = %d", got)
	}
	if got := bucketFor(time.Microsecond); got != 0 {
		t.Errorf("bucketFor(1µs) = %d", got)
	}
	if got := bucketFor(histBounds[histBuckets-1] + 1); got != histBuckets {
		t.Errorf("overflow bucket = %d, want %d", got, histBuckets)
	}
	// Every bound maps to its own bucket.
	for i, b := range histBounds {
		if got := bucketFor(b); got != i {
			t.Fatalf("bucketFor(bound %d) = %d", i, got)
		}
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if _, ok := g.Value(); ok {
		t.Error("unset gauge should report !ok")
	}
	g.Set(3.5)
	if v, ok := g.Value(); !ok || v != 3.5 {
		t.Errorf("Value = %v, %v", v, ok)
	}
}

func TestRegistryReuse(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Counter("a").Inc()
	if got := r.Counter("a").Value(); got != 2 {
		t.Errorf("same name must return the same counter: %d", got)
	}
	r.Histogram("h").Observe(time.Second)
	if got := r.Histogram("h").Count(); got != 1 {
		t.Errorf("histogram reuse broken: %d", got)
	}
	r.Gauge("g").Set(1)
	if v, _ := r.Gauge("g").Value(); v != 1 {
		t.Error("gauge reuse broken")
	}
}

func TestWithLabel(t *testing.T) {
	if got := WithLabel(WireLatency, "op", "start"); got != `wire_request_duration_seconds{op="start"}` {
		t.Errorf("WithLabel = %q", got)
	}
	got := WithLabel(WithLabel("x", "a", "1"), "b", "2")
	if got != `x{a="1",b="2"}` {
		t.Errorf("nested WithLabel = %q", got)
	}
}

// TestWithLabelEscapesForExposition: a label value taken verbatim from a
// request renders so that un-escaping it by the text format's rules (only
// \\, \" and \n are escapes; the value is UTF-8) gives the value back,
// with invalid UTF-8 replaced by U+FFFD.
func TestWithLabelEscapesForExposition(t *testing.T) {
	for _, tc := range []struct{ value, want string }{
		{"audio", "audio"},
		{`say "hi"`, `say "hi"`},
		{`C:\media`, `C:\media`},
		{"two\nlines", "two\nlines"},
		{"a\tb", "a\tb"},
		{"caf\xe9", "caf\uFFFD"},
		{"x\u2028y", "x\u2028y"},
		{"voix-\u00e9t\u00e9", "voix-\u00e9t\u00e9"},
	} {
		r := NewRegistry()
		r.Counter(WithLabel("sessions", "class", tc.value)).Inc()
		const prefix = `sessions{class="`
		line := ""
		for _, l := range strings.Split(r.Exposition(), "\n") {
			if strings.HasPrefix(l, prefix) {
				line = l
			}
		}
		got, rest, err := unescapeLabel(strings.TrimPrefix(line, prefix))
		if err != nil || rest != "} 1" {
			t.Errorf("value %q: exposed line %q does not parse: %v (rest %q)", tc.value, line, err, rest)
			continue
		}
		if got != tc.want {
			t.Errorf("value %q: label reads back %q, want %q", tc.value, got, tc.want)
		}
	}
}

// unescapeLabel reads one label value up to its closing quote by the text
// exposition format's rules and returns it with what follows the quote.
func unescapeLabel(s string) (value, rest string, err error) {
	if !utf8.ValidString(s) {
		return "", "", fmt.Errorf("invalid UTF-8")
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			if i+1 == len(s) {
				return "", "", fmt.Errorf("dangling backslash")
			}
			i++
			switch s[i] {
			case '\\', '"':
				b.WriteByte(s[i])
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("undefined escape \\%c", s[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated value")
}

func TestExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter(ConfigsTotal).Add(7)
	r.Counter(WithLabel(WireRequests, "op", "start")).Inc()
	r.Counter(WithLabel(WireRequests, "op", "stop")).Add(2)
	r.Histogram(CompositionTime).Observe(2 * time.Millisecond)
	r.Histogram(WithLabel(WireLatency, "op", "start")).Observe(time.Millisecond)
	r.Gauge(ActiveSessions).Set(3)
	r.Gauge("unset_gauge") // never set: omitted
	text := r.Exposition()

	for _, want := range []string{
		"# TYPE configs_total counter\n",
		"configs_total 7\n",
		"# TYPE wire_requests_total counter\n",
		"wire_requests_total{op=\"start\"} 1\n",
		"wire_requests_total{op=\"stop\"} 2\n",
		"# TYPE composition_time_seconds summary\n",
		"composition_time_seconds{quantile=\"0.5\"} ",
		"composition_time_seconds{quantile=\"0.95\"} ",
		"composition_time_seconds{quantile=\"0.99\"} ",
		"composition_time_seconds_sum 0.002",
		"composition_time_seconds_count 1\n",
		"wire_request_duration_seconds{op=\"start\",quantile=\"0.5\"} ",
		"wire_request_duration_seconds_sum{op=\"start\"} 0.001",
		"wire_request_duration_seconds_count{op=\"start\"} 1\n",
		"# TYPE active_sessions gauge\n",
		"active_sessions 3\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "unset_gauge") {
		t.Errorf("Exposition must omit unset gauges:\n%s", text)
	}
	// One TYPE comment per family, even with two labeled series.
	if got := strings.Count(text, "# TYPE wire_requests_total"); got != 1 {
		t.Errorf("wire_requests_total TYPE comments = %d, want 1", got)
	}
	// Families are sorted by base name.
	var bases []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			bases = append(bases, strings.Fields(line)[2])
		}
	}
	for i := 1; i < len(bases); i++ {
		if bases[i] < bases[i-1] {
			t.Errorf("families not sorted: %q after %q", bases[i], bases[i-1])
		}
	}
	// Snapshot stays as an alias for the exposition text.
	if r.Snapshot() != text {
		t.Error("Snapshot must alias Exposition")
	}
}

func TestExpositionHistogramMinMax(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(CompositionTime)
	h.Observe(2 * time.Millisecond)
	h.Observe(8 * time.Millisecond)
	r.Histogram(WithLabel(WireLatency, "op", "start")).Observe(time.Millisecond)
	r.Histogram("empty_hist") // no observations: min/max omitted
	text := r.Exposition()

	for _, want := range []string{
		"# TYPE composition_time_seconds_min gauge\n",
		"composition_time_seconds_min 0.002\n",
		"# TYPE composition_time_seconds_max gauge\n",
		"composition_time_seconds_max 0.008\n",
		"wire_request_duration_seconds_min{op=\"start\"} 0.001\n",
		"wire_request_duration_seconds_max{op=\"start\"} 0.001\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Exposition missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "empty_hist_min") || strings.Contains(text, "empty_hist_max") {
		t.Errorf("Exposition must omit min/max for empty histograms:\n%s", text)
	}
}

func TestFormatFloat(t *testing.T) {
	if got := formatFloat(3); got != "3" {
		t.Errorf("formatFloat(3) = %q", got)
	}
	if got := formatFloat(3.25); got != "3.25" {
		t.Errorf("formatFloat(3.25) = %q", got)
	}
}
