// Labeled metric families: dimensioned counters and gauges whose series are addressed by one label value (a device ID, a link name,
// a session class). A family bounds its label cardinality — beyond the
// bound every new value collapses into one overflow series — so a
// misbehaving caller cannot grow the registry without limit. The hot path
// (an existing series) is a single lock-free sync.Map load followed by the
// underlying metric's own lock-free or short-lock operation; the slow path
// (first use of a label value) registers the series in the owning Registry
// under the Prometheus name{key="value"} form, so labeled series render in
// Exposition() exactly like hand-labeled ones.
package metrics

import "sync"

// DefaultLabelCardinality bounds the distinct label values of a family
// created through the Registry accessors. Device, link, and class label
// sets in a smart space are small; 64 leaves generous room while keeping
// the exposition and the memory bounded.
const DefaultLabelCardinality = 64

// OverflowLabel is the label value absorbing every series beyond a
// family's cardinality bound.
const OverflowLabel = "other"

// family implements the bounded series map shared by the two labeled
// metric kinds. newSeries both allocates the metric and registers it with
// the owning Registry so Exposition picks it up.
type family struct {
	limit     int
	newSeries func(labeled string) any

	series sync.Map // label value -> metric
	mu     sync.Mutex
	n      int
}

// with returns the series for the label value, creating (and capping) it
// on first use.
func (f *family) with(name, key, value string) any {
	if m, ok := f.series.Load(value); ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series.Load(value); ok {
		return m
	}
	if f.n >= f.limit && value != OverflowLabel {
		// The bound is reached: collapse into the overflow series without
		// storing the new value, so the map cannot grow further.
		if m, ok := f.series.Load(OverflowLabel); ok {
			return m
		}
		value = OverflowLabel
	}
	m := f.newSeries(WithLabel(name, key, value))
	f.series.Store(value, m)
	f.n++
	return m
}

// len reports the number of distinct series (including overflow).
func (f *family) len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// LabeledCounter is a family of Counters keyed by one label.
type LabeledCounter struct {
	name, key string
	fam       family
}

// With returns the counter for the label value.
func (lc *LabeledCounter) With(value string) *Counter {
	return lc.fam.with(lc.name, lc.key, value).(*Counter)
}

// Series reports the number of distinct series in the family.
func (lc *LabeledCounter) Series() int { return lc.fam.len() }

// LabeledGauge is a family of Gauges keyed by one label.
type LabeledGauge struct {
	name, key string
	fam       family
}

// With returns the gauge for the label value.
func (lg *LabeledGauge) With(value string) *Gauge {
	return lg.fam.with(lg.name, lg.key, value).(*Gauge)
}

// Series reports the number of distinct series in the family.
func (lg *LabeledGauge) Series() int { return lg.fam.len() }

// LabeledCounter returns the named counter family keyed by the given
// label, creating it with the default cardinality bound on first use. The
// family is memoized by name: later calls return the same family (the
// first call's key wins).
func (r *Registry) LabeledCounter(name, key string) *LabeledCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	lc, ok := r.labeledCounters[name]
	if !ok {
		lc = &LabeledCounter{name: name, key: key, fam: family{
			limit:     DefaultLabelCardinality,
			newSeries: func(labeled string) any { return r.Counter(labeled) },
		}}
		r.labeledCounters[name] = lc
	}
	return lc
}

// LabeledGauge returns the named gauge family keyed by the given label,
// creating it with the default cardinality bound on first use.
func (r *Registry) LabeledGauge(name, key string) *LabeledGauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	lg, ok := r.labeledGauges[name]
	if !ok {
		lg = &LabeledGauge{name: name, key: key, fam: family{
			limit:     DefaultLabelCardinality,
			newSeries: func(labeled string) any { return r.Gauge(labeled) },
		}}
		r.labeledGauges[name] = lg
	}
	return lg
}
