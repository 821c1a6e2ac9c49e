package device

import (
	"fmt"
	"sync"
)

// Links is the symmetric end-to-end available-bandwidth table b(i,j)
// between device pairs (Mbps), with reservation accounting so concurrent
// sessions see each other's bandwidth consumption. All methods are safe
// for concurrent use.
type Links struct {
	mu       sync.Mutex
	capacity map[[2]ID]float64
	reserved map[[2]ID]float64
}

// NewLinks returns an empty link table.
func NewLinks() *Links {
	return &Links{
		capacity: make(map[[2]ID]float64),
		reserved: make(map[[2]ID]float64),
	}
}

func linkKey(a, b ID) [2]ID {
	if a > b {
		a, b = b, a
	}
	return [2]ID{a, b}
}

// Set declares the total end-to-end bandwidth between a and b in Mbps.
// Setting a pair overwrites any previous capacity but keeps reservations.
func (l *Links) Set(a, b ID, mbps float64) error {
	if a == b {
		return fmt.Errorf("device: link endpoints must differ, got %s", a)
	}
	if mbps < 0 {
		return fmt.Errorf("device: negative bandwidth %g between %s and %s", mbps, a, b)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.capacity[linkKey(a, b)] = mbps
	return nil
}

// MustSet is Set that panics on error.
func (l *Links) MustSet(a, b ID, mbps float64) {
	if err := l.Set(a, b, mbps); err != nil {
		panic(err)
	}
}

// Capacity returns the declared total bandwidth between a and b, or 0 when
// no link is declared. The intra-device "link" (a == b) is infinite in
// concept; callers must not route it through the table — Available returns
// 0 for undeclared pairs so a missing link correctly fails fit checks.
func (l *Links) Capacity(a, b ID) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.capacity[linkKey(a, b)]
}

// Available returns the remaining (unreserved) bandwidth between a and b.
func (l *Links) Available(a, b ID) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := linkKey(a, b)
	rem := l.capacity[k] - l.reserved[k]
	if rem < 0 {
		return 0
	}
	return rem
}

// Reserved returns the bandwidth currently booked between a and b. When a
// link degrades below its existing reservations, Reserved exceeds
// Capacity — the overcommit signal the recovery supervisor watches for.
func (l *Links) Reserved(a, b ID) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reserved[linkKey(a, b)]
}

// Reserve atomically books mbps between a and b, failing without side
// effects when the remaining bandwidth is insufficient.
func (l *Links) Reserve(a, b ID, mbps float64) error {
	if mbps < 0 {
		return fmt.Errorf("device: negative reservation %g", mbps)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := linkKey(a, b)
	if l.reserved[k]+mbps > l.capacity[k] {
		return fmt.Errorf("device: link %s-%s: need %.2f Mbps, have %.2f of %.2f",
			a, b, mbps, l.capacity[k]-l.reserved[k], l.capacity[k])
	}
	l.reserved[k] += mbps
	return nil
}

// ReleaseBandwidth returns a previous reservation, clamped at zero.
func (l *Links) ReleaseBandwidth(a, b ID, mbps float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := linkKey(a, b)
	l.reserved[k] -= mbps
	if l.reserved[k] < 0 {
		l.reserved[k] = 0
	}
}

// LinkEntry is one declared pair's frozen bandwidth accounting.
type LinkEntry struct {
	A, B ID
	// CapacityMbps is the declared total bandwidth.
	CapacityMbps float64
	// ReservedMbps is the booked bandwidth (it can exceed CapacityMbps
	// when a link degraded below its existing reservations).
	ReservedMbps float64
}

// Entries returns a frozen copy of the full capacity/reservation table,
// one entry per declared pair in unspecified order — the capacity
// observatory's per-link view, which needs totals as well as the
// remainder Snapshot reports.
func (l *Links) Entries() []LinkEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LinkEntry, 0, len(l.capacity))
	for k, c := range l.capacity {
		out = append(out, LinkEntry{A: k[0], B: k[1], CapacityMbps: c, ReservedMbps: l.reserved[k]})
	}
	return out
}

// Snapshot returns a frozen copy of the available bandwidth for every
// declared pair.
func (l *Links) Snapshot() map[[2]ID]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[[2]ID]float64, len(l.capacity))
	for k, c := range l.capacity {
		rem := c - l.reserved[k]
		if rem < 0 {
			rem = 0
		}
		out[k] = rem
	}
	return out
}
