// Package capacity implements the smart space's capacity observatory: a
// fixed-memory on-daemon time-series store sampled on a ticker, and a
// saturation analyzer that classifies each device and the space as a
// whole into ok / approaching / saturated with hysteresis. The paper's
// configuration model assumes the space continuously knows its own
// resource state (§3.1 online profiling, §3.3 admission over residual
// capacity); this package is that knowledge made queryable — the signal
// the admission gate (internal/admission) reads, deliberately free of any
// actuation.
package capacity

import (
	"sort"
	"sync"
	"time"
)

// Defaults for the observatory: one sample per second, 900 samples per
// series (15 minutes of history at the default interval).
const (
	DefaultInterval = time.Second
	ringCapacity    = 900
)

// Sample is one timestamped observation.
type Sample struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// ring is a fixed-capacity circular sample buffer.
type ring struct {
	samples []Sample
	head    int // next write position
	n       int
}

func (r *ring) push(s Sample) {
	if r.n < len(r.samples) {
		r.samples[(r.head+r.n)%len(r.samples)] = s
		r.n++
		return
	}
	r.samples[r.head] = s
	r.head = (r.head + 1) % len(r.samples)
}

// all returns the samples oldest-first.
func (r *ring) all() []Sample {
	out := make([]Sample, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.samples[(r.head+i)%len(r.samples)])
	}
	return out
}

// Options tunes an Observatory.
type Options struct {
	// Interval is the sampling period (0 selects DefaultInterval).
	Interval time.Duration
}

// Observatory owns the sampled time series. A sampler callback — set by
// the domain — is invoked once per tick (and on demand, rate-limited, by
// scrape paths); the callback reads live state and Records whatever
// series it wants kept. Series are created on first Record and bounded by
// the ring capacity, so memory stays constant regardless of run length.
type Observatory struct {
	interval time.Duration
	ringCap  int

	mu      sync.Mutex
	series  map[string]*ring
	sampler func(now time.Time)
	last    time.Time
	running bool
	stop    chan struct{}
	done    chan struct{}
	now     func() time.Time
}

// New returns an idle observatory; set a sampler and Start it to begin
// collecting.
func New(opts Options) *Observatory {
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	return &Observatory{
		interval: opts.Interval,
		ringCap:  ringCapacity,
		series:   make(map[string]*ring),
		now:      time.Now,
	}
}

// SetSampler installs the per-tick callback. It must be set before Start.
func (o *Observatory) SetSampler(fn func(now time.Time)) {
	o.mu.Lock()
	o.sampler = fn
	o.mu.Unlock()
}

// Interval returns the sampling period.
func (o *Observatory) Interval() time.Duration { return o.interval }

// Start launches the sampling ticker (idempotent).
func (o *Observatory) Start() {
	o.mu.Lock()
	if o.running {
		o.mu.Unlock()
		return
	}
	o.running = true
	o.stop = make(chan struct{})
	o.done = make(chan struct{})
	stop, done := o.stop, o.done
	o.mu.Unlock()

	go func() {
		defer close(done)
		t := time.NewTicker(o.interval)
		defer t.Stop()
		for {
			select {
			case now := <-t.C:
				o.samplePass(now)
			case <-stop:
				return
			}
		}
	}()
}

// Stop halts the ticker and waits for the sampling goroutine (idempotent;
// a never-started observatory stops trivially).
func (o *Observatory) Stop() {
	o.mu.Lock()
	if !o.running {
		o.mu.Unlock()
		return
	}
	o.running = false
	stop, done := o.stop, o.done
	o.mu.Unlock()
	close(stop)
	<-done
}

// SampleNow runs one sampling pass immediately — scrape handlers call it
// so /metrics and /saturation are fresh even between ticks. Passes are
// rate-limited to half the interval, so a scrape racing the ticker does
// not double-sample the rings.
func (o *Observatory) SampleNow() { o.samplePass(o.now()) }

// samplePass invokes the sampler outside the lock (the sampler Records
// back into the observatory).
func (o *Observatory) samplePass(now time.Time) {
	o.mu.Lock()
	fn := o.sampler
	if fn == nil || now.Sub(o.last) < o.interval/2 {
		o.mu.Unlock()
		return
	}
	o.last = now
	o.mu.Unlock()
	fn(now)
}

// Record appends one sample to the named series, creating the series (and
// its fixed ring) on first use.
func (o *Observatory) Record(metric string, t time.Time, v float64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	r, ok := o.series[metric]
	if !ok {
		r = &ring{samples: make([]Sample, o.ringCap)}
		o.series[metric] = r
	}
	r.push(Sample{T: t, V: v})
}

// Series returns the named series' samples oldest-first, restricted to
// the trailing window when window > 0. Unknown metrics return nil.
func (o *Observatory) Series(metric string, window time.Duration) []Sample {
	o.mu.Lock()
	r, ok := o.series[metric]
	if !ok {
		o.mu.Unlock()
		return nil
	}
	out := r.all()
	now := o.now()
	o.mu.Unlock()
	if window <= 0 || len(out) == 0 {
		return out
	}
	// Anchor the trailing window to the wall clock, not the last sample's
	// timestamp: if sampling stalls, an anchor on the last sample would
	// silently return stale history as if it were current.
	cutoff := now.Add(-window)
	i := sort.Search(len(out), func(i int) bool { return !out[i].T.Before(cutoff) })
	return out[i:]
}

// Metrics lists the recorded series names, sorted.
func (o *Observatory) Metrics() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]string, 0, len(o.series))
	for name := range o.series {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
