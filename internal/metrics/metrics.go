// Package metrics collects operational counters and latency statistics for
// the service configuration model: how many configurations ran, how many
// failed and why, how often corrections were applied, and the distribution
// of per-tier overheads. The domain server exposes a Registry so
// deployments can observe the system the way the paper's Figure 4
// instrumentation did, continuously — and the registry renders as
// Prometheus-style text exposition for the daemon's /metrics endpoint.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use. Counters are lock-free (sync/atomic) so hot-path
// instrumentation — e.g. branch-and-bound node counts added by
// concurrent configures — does not serialize them.
type Counter struct {
	n atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (negative deltas are ignored: counters are monotonic).
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		return
	}
	c.n.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Histogram bucket layout: geometric bounds growing by histGrowth from
// histFirstBucket, plus an implicit overflow bucket. 48 buckets at ×1.5
// span 1µs .. ~4.3 minutes, which covers every per-tier overhead the
// configuration pipeline can produce while keeping the memory bounded and
// constant per histogram.
const (
	histBuckets     = 48
	histGrowth      = 1.5
	histFirstBucket = time.Microsecond
)

// histBounds[i] is the inclusive upper bound of bucket i.
var histBounds = func() [histBuckets]time.Duration {
	var b [histBuckets]time.Duration
	f := float64(histFirstBucket)
	for i := range b {
		b[i] = time.Duration(f)
		f *= histGrowth
	}
	return b
}()

// bucketFor returns the index of the bucket covering d, or histBuckets for
// the overflow bucket.
func bucketFor(d time.Duration) int {
	lo, hi := 0, histBuckets
	for lo < hi {
		mid := (lo + hi) / 2
		if d <= histBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Histogram accumulates duration observations into bounded geometric
// buckets, tracking streaming count, sum, min, and max alongside, so it
// can answer percentile queries (p50/p95/p99) in O(buckets) with O(1)
// memory. The zero value is ready to use.
type Histogram struct {
	mu       sync.Mutex
	count    int64
	sum      time.Duration
	min, max time.Duration
	buckets  [histBuckets + 1]int64 // +1: overflow
}

// Observe records one duration (negative observations are ignored).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	h.buckets[bucketFor(d)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the mean observation, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return time.Duration(int64(h.sum) / h.count)
}

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of the
// bucket where the cumulative count crosses q·count, clamped to the
// observed [min, max]. The estimate therefore over-reports by at most one
// bucket width (×1.5). Returns 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.count)))
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			est := h.max
			if i < histBuckets {
				est = histBounds[i]
			}
			if est > h.max {
				est = h.max
			}
			if est < h.min {
				est = h.min
			}
			return est
		}
	}
	return h.max
}

// Gauge is a last-value metric.
type Gauge struct {
	mu sync.Mutex
	v  float64
	ok bool
}

// Set records the value.
func (g *Gauge) Set(v float64) {
	g.mu.Lock()
	g.v, g.ok = v, true
	g.mu.Unlock()
}

// Value returns the last value and whether one was ever set.
func (g *Gauge) Value() (float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v, g.ok
}

// Registry is a named collection of metrics. All methods are safe for
// concurrent use; metric instances are created on first use.
type Registry struct {
	mu              sync.Mutex
	counters        map[string]*Counter
	histograms      map[string]*Histogram
	gauges          map[string]*Gauge
	meters          map[string]*Meter
	labeledCounters map[string]*LabeledCounter
	labeledGauges   map[string]*LabeledGauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:        make(map[string]*Counter),
		histograms:      make(map[string]*Histogram),
		gauges:          make(map[string]*Gauge),
		meters:          make(map[string]*Meter),
		labeledCounters: make(map[string]*LabeledCounter),
		labeledGauges:   make(map[string]*LabeledGauge),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// WithLabel appends a label pair to a metric name, producing the
// Prometheus form name{key="value"} (or name{...,key="value"} when labels
// are already present). The value is escaped as the text exposition
// format defines — backslash, double quote and line feed, nothing else —
// after invalid UTF-8 is replaced with U+FFFD: some values (a session's
// class) arrive verbatim from the wire.
func WithLabel(name, key, value string) string {
	pair := key + `="` + labelEscaper.Replace(strings.ToValidUTF8(value, "\uFFFD")) + `"`
	if strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + pair + "}"
	}
	return name + "{" + pair + "}"
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// splitName separates a possibly-labeled metric name into its base name
// and the label body (without braces).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// joinName re-attaches labels (plus an optional extra pair) to a base
// name, supporting the suffixed series of a summary (_sum, _count).
func joinName(base, suffix, labels, extra string) string {
	name := base + suffix
	switch {
	case labels == "" && extra == "":
		return name
	case labels == "":
		return name + "{" + extra + "}"
	case extra == "":
		return name + "{" + labels + "}"
	default:
		return name + "{" + labels + "," + extra + "}"
	}
}

// quantiles exported for every histogram.
var exportedQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.5},
	{"0.95", 0.95},
	{"0.99", 0.99},
}

// Exposition renders every metric in the Prometheus text format, sorted by
// name: counters and gauges as single samples, histograms as summaries
// with p50/p95/p99 quantile samples plus _sum and _count series (durations
// in seconds). Unset gauges are omitted. One # TYPE comment is emitted per
// metric family (labeled variants of the same base name share one).
func (r *Registry) Exposition() string {
	type entry struct {
		sortKey string // base name first, then full name: families group
		base    string
		typ     string
		lines   []string
	}
	var entries []entry

	r.mu.Lock()
	for name, c := range r.counters {
		base, _ := splitName(name)
		entries = append(entries, entry{
			sortKey: base + "\x00" + name,
			base:    base,
			typ:     "counter",
			lines:   []string{fmt.Sprintf("%s %d", name, c.Value())},
		})
	}
	for name, g := range r.gauges {
		v, ok := g.Value()
		if !ok {
			continue
		}
		base, _ := splitName(name)
		entries = append(entries, entry{
			sortKey: base + "\x00" + name,
			base:    base,
			typ:     "gauge",
			lines:   []string{fmt.Sprintf("%s %s", name, formatFloat(v))},
		})
	}
	for name, h := range r.histograms {
		base, labels := splitName(name)
		var lines []string
		for _, eq := range exportedQuantiles {
			lines = append(lines, fmt.Sprintf("%s %s",
				joinName(base, "", labels, `quantile="`+eq.label+`"`),
				formatFloat(h.Quantile(eq.q).Seconds())))
		}
		lines = append(lines,
			fmt.Sprintf("%s %s", joinName(base, "_sum", labels, ""), formatFloat(h.Sum().Seconds())),
			fmt.Sprintf("%s %d", joinName(base, "_count", labels, ""), h.Count()))
		entries = append(entries, entry{
			sortKey: base + "\x00" + name,
			base:    base,
			typ:     "summary",
			lines:   lines,
		})
		// The streaming extremes render as their own _min/_max gauge
		// families (a summary has no standard slot for them). Empty
		// histograms omit them, like unset gauges.
		if h.Count() > 0 {
			for suffix, v := range map[string]time.Duration{"_min": h.Min(), "_max": h.Max()} {
				entries = append(entries, entry{
					sortKey: base + suffix + "\x00" + name,
					base:    base + suffix,
					typ:     "gauge",
					lines:   []string{fmt.Sprintf("%s %s", joinName(base, suffix, labels, ""), formatFloat(v.Seconds()))},
				})
			}
		}
	}
	for name, m := range r.meters {
		base, labels := splitName(name)
		for suffix, line := range map[string]struct {
			typ string
			val string
		}{
			"_total":        {"counter", fmt.Sprintf("%d", m.Total())},
			"_rate_per_sec": {"gauge", formatFloat(m.Rate())},
			"_ewma_per_sec": {"gauge", formatFloat(m.EWMA())},
		} {
			entries = append(entries, entry{
				sortKey: base + suffix + "\x00" + name,
				base:    base + suffix,
				typ:     line.typ,
				lines:   []string{fmt.Sprintf("%s %s", joinName(base, suffix, labels, ""), line.val)},
			})
		}
	}
	r.mu.Unlock()

	sort.Slice(entries, func(i, j int) bool { return entries[i].sortKey < entries[j].sortKey })
	var b strings.Builder
	lastBase := ""
	for _, e := range entries {
		if e.base != lastBase {
			fmt.Fprintf(&b, "# TYPE %s %s\n", e.base, e.typ)
			lastBase = e.base
		}
		for _, line := range e.lines {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func formatFloat(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Metric names recorded by the configurator.
const (
	// ConfigsTotal counts configuration attempts.
	ConfigsTotal = "configs_total"
	// ConfigsFailed counts failed attempts.
	ConfigsFailed = "configs_failed"
	// Handoffs counts re-configurations of live sessions.
	Handoffs = "handoffs_total"
	// TranscodersInserted and BuffersInserted count OC corrections.
	TranscodersInserted = "transcoders_inserted_total"
	BuffersInserted     = "buffers_inserted_total"
	Adjustments         = "qos_adjustments_total"
	// CompositionTime/DistributionTime/DownloadTime/HandoffTime are the
	// per-tier overhead histograms (Figure 4's four bars), in seconds.
	CompositionTime  = "composition_time_seconds"
	DistributionTime = "distribution_time_seconds"
	DownloadTime     = "download_time_seconds"
	HandoffTime      = "init_or_handoff_time_seconds"
	// ConfigureTime is the end-to-end configure latency histogram
	// (request accepted → session running), the SLO engine's primary
	// latency signal; the per-tier histograms above break it down.
	ConfigureTime = "configure_time_seconds"
	// ActiveSessions gauges the live session count.
	ActiveSessions = "active_sessions"
	// DiscoveryAttempts and DiscoveryFailures count per-node service
	// discovery lookups during composition (failures include the ones
	// later repaired by skipping an optional node or recursing).
	DiscoveryAttempts = "discovery_attempts_total"
	DiscoveryFailures = "discovery_failures_total"
)

// Metric names recorded by the service distribution tier's solvers.
const (
	// BnBExplored/BnBPruned/BnBIncumbents count branch-and-bound search
	// nodes explored, subtrees pruned, and incumbent (best-so-far)
	// updates, summed over all workers.
	BnBExplored   = "bnb_nodes_explored_total"
	BnBPruned     = "bnb_nodes_pruned_total"
	BnBIncumbents = "bnb_incumbent_updates_total"

	// PlanCacheHits/Misses count placement-cache consults by outcome;
	// PlanCacheInvalidations counts entries dropped by a hit that failed
	// its FitInto re-check or by a Flush, and
	// PlanCacheEvictions entries displaced by the LRU bound.
	// PlanCacheEntries gauges the current cache population.
	PlanCacheHits          = "plan_cache_hits_total"
	PlanCacheMisses        = "plan_cache_misses_total"
	PlanCacheInvalidations = "plan_cache_invalidations_total"
	PlanCacheEvictions     = "plan_cache_evictions_total"
	PlanCacheEntries       = "plan_cache_entries"

	// WarmSolves/ColdSolves count exact solves by whether they were
	// warm-started from an incumbent; WarmSpeedup gauges the most recent
	// cold-explored/warm-explored ratio observed on a recovery re-solve.
	WarmSolves  = "warm_solves_total"
	ColdSolves  = "cold_solves_total"
	WarmSpeedup = "warm_speedup_ratio"
)

// Metric names recorded by the event service.
const (
	// EventsPublished counts Publish calls; EventsDelivered counts the
	// per-subscriber events newly queued, and EventsCoalesced the
	// publishes merged into an identical event still pending in a
	// subscription's queue.
	EventsPublished = "eventbus_published_total"
	EventsDelivered = "eventbus_delivered_total"
	EventsCoalesced = "eventbus_coalesced_total"
	// BusSubscribers gauges active subscriptions; BusQueueDepth gauges the
	// total backlog across subscriptions (channels and pump queues) at the
	// last publish.
	BusSubscribers = "eventbus_subscribers"
	BusQueueDepth  = "eventbus_queue_depth"
)

// Metric names recorded by the recovery supervisor and the fault
// injector.
const (
	// RecoveryAttempts counts recovery attempts (including retries);
	// RecoveryRetries the subset that failed and were re-queued with
	// backoff.
	RecoveryAttempts = "recovery_attempts_total"
	RecoveryRetries  = "recovery_retries_total"
	// SessionsRecovered counts sessions successfully re-placed after a
	// fault; RecoveriesDegraded the subset recovered on the degraded path
	// (heuristic placement, optional components shed); SessionsLost the
	// sessions given up on (stopped, user notified).
	SessionsRecovered  = "sessions_recovered_total"
	RecoveriesDegraded = "recoveries_degraded_total"
	SessionsLost       = "sessions_lost_total"
	// SessionsRestored counts degraded→restored transitions: sessions
	// previously recovered on the degraded path that a later full-QoS
	// reconfiguration brought back to their original request.
	SessionsRestored = "sessions_restored_total"
	// RecoveryLatency is fault detection → session healthy, in seconds.
	RecoveryLatency = "recovery_latency_seconds"
	// RecoveryBacklog gauges sessions currently queued for recovery.
	RecoveryBacklog = "recovery_backlog"
	// FaultsInjected counts applied faults; per-kind series attach the
	// fault kind with WithLabel(..., "kind", name).
	FaultsInjected = "faults_injected_total"
)

// Metric names published by the capacity observatory (the domain's
// per-tick sampler). Labeled series attach their dimension with the named
// label key.
const (
	// DeviceUtilization is committed/capacity per resource dimension
	// (labels: dim ∈ {mem, cpu}, device); DeviceHeadroom is the minimum
	// over dimensions of available/capacity (label: device); DeviceUp is
	// 1/0 reachability (label: device).
	DeviceUtilization = "device_utilization_ratio"
	DeviceHeadroom    = "device_headroom_ratio"
	DeviceUp          = "device_up"
	// LinkResidual is the unreserved end-to-end bandwidth per declared
	// device pair (label: link = "a|b").
	LinkResidual = "link_residual_mbps"
	// SessionsByClass gauges active sessions per session class;
	// SessionArrivals / SessionCompletions / SessionFailures are the
	// per-class meters (rendered as _total/_rate_per_sec/_ewma_per_sec
	// families) behind the windowed arrival and completion rates.
	SessionsByClass    = "sessions_by_class"
	SessionArrivals    = "session_arrivals"
	SessionCompletions = "session_completions"
	SessionFailures    = "session_failures"
	// ConfigPending gauges the configurator's admission queue: session IDs
	// reserved while their configure pipeline is still in flight.
	ConfigPending = "config_pending"
	// SpaceHeadroom is the minimum headroom across up devices;
	// SaturationState is the analyzer's verdict (0 ok, 1 approaching,
	// 2 saturated) — unlabeled for the space, labeled per device.
	SpaceHeadroom   = "space_headroom_ratio"
	SaturationState = "saturation_state"
)

// Metric names recorded by the admission gate, which closes the loop
// over the capacity observatory's signals.
const (
	// AdmissionsTotal counts gate decisions (labels: class, verdict ∈
	// {admit, admit-degraded, reject}); AdmissionState gauges the
	// effective saturation state the gate last decided with (the analyzer
	// verdict, possibly escalated by SLO burn).
	AdmissionsTotal = "admissions_total"
	AdmissionState  = "admission_state"
)

// Metric names published by the QoS outcome ledger (internal/ledger).
// All are labeled gauges with key "class", refreshed by the domain's
// capacity sampler.
const (
	// SessionDeficitSeconds is the per-class total QoS-deficit integral
	// (deficit fraction × seconds, summed over numeric axes and
	// sessions); SessionDeficitRatio normalizes it by lifetime × axis
	// count into a 0..1 "share of asked-for QoS-time not delivered".
	SessionDeficitSeconds = "session_deficit_seconds"
	SessionDeficitRatio   = "session_deficit_ratio"
	// ClassAvailability is 1 − broken-time/lifetime per class.
	ClassAvailability = "class_availability_ratio"
)

// Metric names published by the incident correlation engine
// (internal/incident).
const (
	// IncidentsOpen gauges the currently open incidents, labeled by
	// severity ("warning" / "critical").
	IncidentsOpen = "incidents_open"
	// IncidentsTotal counts every incident ever opened, labeled by the
	// detection rule that opened it.
	IncidentsTotal = "incidents_total"
)

// Metric names recorded by the wire server. Per-operation series attach
// the operation with WithLabel(..., "op", name).
const (
	// WireRequests counts handled requests; WireErrors the subset that
	// returned an error response.
	WireRequests = "wire_requests_total"
	WireErrors   = "wire_request_errors_total"
	// WireLatency is the per-request handling latency histogram.
	WireLatency = "wire_request_duration_seconds"
	// WireBadLines counts protocol-level garbage: unparsable or oversized
	// request lines.
	WireBadLines = "wire_bad_lines_total"
)
