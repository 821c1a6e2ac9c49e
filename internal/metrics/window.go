// Windowed rates: a Meter counts events into a ring of sub-window buckets
// and answers with the arrival rate over the sliding window plus an EWMA
// smoothed per completed bucket — the live view the saturation analyzer
// and the admission tier need, which the cumulative counters cannot give
// without a scraping sidecar doing the differencing.
package metrics

import (
	"math"
	"sync"
	"time"
)

// Meter defaults: a one-minute window split into 5-second buckets, and the
// EWMA weight applied to each newest completed bucket's rate.
const (
	DefaultMeterWindow  = time.Minute
	defaultMeterBuckets = 12
	meterAlpha          = 0.4
)

// Meter counts events over a sliding window. The window is a ring of
// equally sized buckets; Mark adds to the current bucket, and bucket
// rotation (driven lazily by whichever method is called next) folds each
// completed bucket's rate into an exponentially weighted moving average.
// The zero value is not usable; construct with newMeter.
type Meter struct {
	mu        sync.Mutex
	bucketDur time.Duration
	buckets   []int64
	head      int
	headStart time.Time
	started   bool
	filled    int // completed buckets, capped at len(buckets)-1
	total     int64
	ewma      float64
	ewmaOK    bool
	now       func() time.Time
}

// newMeter returns a meter covering the window with the given number of
// ring buckets (window ≤ 0 selects DefaultMeterWindow, buckets ≤ 0 the
// default of 12).
func newMeter(window time.Duration, buckets int) *Meter {
	if window <= 0 {
		window = DefaultMeterWindow
	}
	if buckets <= 0 {
		buckets = defaultMeterBuckets
	}
	return &Meter{
		bucketDur: window / time.Duration(buckets),
		buckets:   make([]int64, buckets),
		now:       time.Now,
	}
}

// advance rotates the ring up to the current time. Callers hold m.mu.
func (m *Meter) advance(now time.Time) {
	if !m.started {
		m.headStart = now
		m.started = true
		return
	}
	elapsed := now.Sub(m.headStart)
	if elapsed < m.bucketDur {
		return
	}
	steps := int(elapsed / m.bucketDur)
	if steps > len(m.buckets) {
		// The meter idled past a full window. The head bucket was still
		// accumulating events when the meter went idle, so its rate folds
		// into the EWMA first — exactly as the step-by-step path below would
		// have done — and only the remaining steps-1 expired buckets decay
		// the average as zero-rate completions.
		rate := float64(m.buckets[m.head]) / m.bucketDur.Seconds()
		if !m.ewmaOK {
			m.ewma, m.ewmaOK = rate, true
		} else {
			m.ewma = meterAlpha*rate + (1-meterAlpha)*m.ewma
		}
		m.ewma *= math.Pow(1-meterAlpha, float64(steps-1))
		for i := range m.buckets {
			m.buckets[i] = 0
		}
		m.filled = len(m.buckets) - 1
		m.headStart = m.headStart.Add(time.Duration(steps) * m.bucketDur)
		return
	}
	for i := 0; i < steps; i++ {
		rate := float64(m.buckets[m.head]) / m.bucketDur.Seconds()
		if !m.ewmaOK {
			m.ewma, m.ewmaOK = rate, true
		} else {
			m.ewma = meterAlpha*rate + (1-meterAlpha)*m.ewma
		}
		m.head = (m.head + 1) % len(m.buckets)
		m.buckets[m.head] = 0
		m.headStart = m.headStart.Add(m.bucketDur)
		if m.filled < len(m.buckets)-1 {
			m.filled++
		}
	}
}

// Mark records n events (n ≤ 0 is ignored).
func (m *Meter) Mark(n int64) {
	if n <= 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advance(m.now())
	m.buckets[m.head] += n
	m.total += n
}

// Rate returns events per second averaged over the sliding window. Before
// a full window has elapsed it averages over the observed portion, so a
// fresh meter does not under-report.
func (m *Meter) Rate() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	m.advance(now)
	if !m.started {
		return 0
	}
	var sum int64
	for _, b := range m.buckets {
		sum += b
	}
	denom := time.Duration(m.filled)*m.bucketDur + now.Sub(m.headStart)
	if denom <= 0 {
		return 0
	}
	return float64(sum) / denom.Seconds()
}

// EWMA returns the exponentially weighted moving average of the
// per-bucket rates, in events per second (0 until one bucket completes).
func (m *Meter) EWMA() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.advance(m.now())
	return m.ewma
}

// Total returns the cumulative event count since construction.
func (m *Meter) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Meter returns the named meter (default window), creating it on first
// use. Meters render in Exposition as three derived families:
// <name>_total (counter), <name>_rate_per_sec and <name>_ewma_per_sec
// (gauges); a labeled name carries its labels onto all three.
func (r *Registry) Meter(name string) *Meter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.meters[name]
	if !ok {
		m = newMeter(0, 0)
		r.meters[name] = m
	}
	return m
}
