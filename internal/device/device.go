// Package device models the heterogeneous devices of a ubiquitous computing
// environment (desktops, laptops, PDAs, workstations, gateways) and their
// resource availability accounting, plus the end-to-end bandwidth table
// b(i,j) between device pairs used by the service distribution tier.
//
// All resource vectors held by a Device are normalized to the benchmark
// machine (see resource.Normalizer); the distributor therefore compares
// devices directly.
package device

import (
	"fmt"
	"sort"
	"sync"

	"ubiqos/internal/resource"
)

// ID identifies a device within a domain.
type ID string

// Class is a coarse device category used for normalization defaults and
// service pinning rules.
type Class int

// Device classes.
const (
	ClassDesktop Class = iota + 1
	ClassLaptop
	ClassPDA
	ClassWorkstation
	ClassGateway
	ClassServer
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassDesktop:
		return "desktop"
	case ClassLaptop:
		return "laptop"
	case ClassPDA:
		return "pda"
	case ClassWorkstation:
		return "workstation"
	case ClassGateway:
		return "gateway"
	case ClassServer:
		return "server"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// DefaultSpeedRatio returns the conventional CPU speed of the class
// relative to the laptop benchmark machine, following the paper's §3.3
// example (PDA 0.4×, PC 5×).
func (c Class) DefaultSpeedRatio() float64 {
	switch c {
	case ClassPDA:
		return 0.4
	case ClassLaptop:
		return 1
	case ClassDesktop:
		return 5
	case ClassWorkstation, ClassServer:
		return 6
	case ClassGateway:
		return 3
	default:
		return 1
	}
}

// Device is one device in the smart space. All mutating methods are safe
// for concurrent use.
type Device struct {
	// ID is the domain-unique device identifier.
	ID ID
	// Class is the device category.
	Class Class
	// Attrs carries descriptive properties used during service discovery
	// (e.g. "screen": "small", "audio-out": "yes").
	Attrs map[string]string

	mu       sync.Mutex
	capacity resource.Vector // normalized total capacity
	avail    resource.Vector // normalized remaining availability
	// over is what the commitments exceed the capacity by after a Resize
	// shrank it below them, per dimension; nil while they fit.
	over resource.Vector
	up   bool
}

// New creates a device with the given normalized capacity, fully available
// and up.
func New(id ID, class Class, capacity resource.Vector, attrs map[string]string) (*Device, error) {
	if id == "" {
		return nil, fmt.Errorf("device: empty ID")
	}
	if err := capacity.Validate(); err != nil {
		return nil, fmt.Errorf("device %s: %w", id, err)
	}
	cloned := make(map[string]string, len(attrs))
	for k, v := range attrs {
		cloned[k] = v
	}
	return &Device{
		ID:       id,
		Class:    class,
		Attrs:    cloned,
		capacity: capacity.Clone(),
		avail:    capacity.Clone(),
		up:       true,
	}, nil
}

// MustNew is New that panics on error, for literals in tests and examples.
func MustNew(id ID, class Class, capacity resource.Vector, attrs map[string]string) *Device {
	d, err := New(id, class, capacity, attrs)
	if err != nil {
		panic(err)
	}
	return d
}

// Capacity returns the normalized total capacity vector.
func (d *Device) Capacity() resource.Vector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.capacity.Clone()
}

// Available returns the normalized remaining availability vector RA.
func (d *Device) Available() resource.Vector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.avail.Clone()
}

// Up reports whether the device is currently reachable.
func (d *Device) Up() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.up
}

// SetUp marks the device reachable or crashed. Marking a device down does
// not release admitted resources: a later SetUp(true) restores the device
// with its previous commitments (sessions decide whether to migrate away).
func (d *Device) SetUp(up bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.up = up
}

// Admit atomically reserves the requirement vector r, failing without
// side effects if r exceeds current availability (Definition 3.2) or the
// device is down.
func (d *Device) Admit(r resource.Vector) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.up {
		return fmt.Errorf("device %s: down", d.ID)
	}
	if len(r) != len(d.avail) {
		return fmt.Errorf("device %s: requirement dimension %d, device has %d", d.ID, len(r), len(d.avail))
	}
	if !r.LessEq(d.avail) {
		return fmt.Errorf("device %s: insufficient resources: need %s, have %s", d.ID, r, d.avail)
	}
	d.avail = d.avail.Sub(r)
	return nil
}

// Committed returns the resources currently admitted (capacity −
// available, plus any overcommit a shrinking Resize left). It exceeds
// Capacity while the device is overcommitted.
func (d *Device) Committed() resource.Vector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.committed()
}

func (d *Device) committed() resource.Vector {
	c := d.capacity.Sub(d.avail)
	if d.over != nil {
		c.AddInPlace(d.over)
	}
	return c
}

// Resize models a resource fluctuation: the device's capacity changes
// (e.g. external load appears or clears) while existing commitments stay
// admitted. The new availability is the new capacity minus the current
// commitments, clamped at zero; what the commitments exceed the new
// capacity by stays counted in Committed until releases pay it off.
// Resize reports whether the commitments still fit the new capacity —
// when they do not, the recovery supervisor re-places sessions away.
func (d *Device) Resize(newCapacity resource.Vector) (fits bool, err error) {
	if err := newCapacity.Validate(); err != nil {
		return false, fmt.Errorf("device %s: %w", d.ID, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(newCapacity) != len(d.capacity) {
		return false, fmt.Errorf("device %s: capacity dimension %d, device has %d", d.ID, len(newCapacity), len(d.capacity))
	}
	committed := d.committed()
	d.capacity = newCapacity.Clone()
	d.avail = newCapacity.Sub(committed)
	fits = committed.LessEq(d.capacity)
	d.over = nil
	if !fits {
		d.over = committed.Sub(newCapacity)
	}
	return fits, nil
}

// Release returns a previously admitted requirement vector: it first pays
// off any overcommit, and the rest returns to availability, clamped at
// capacity.
func (d *Device) Release(r resource.Vector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(r) != len(d.avail) {
		return
	}
	if d.over != nil {
		r = r.Clone()
		for i := range r {
			paid := min(r[i], d.over[i])
			d.over[i] -= paid
			r[i] -= paid
		}
		if d.over.IsZero() {
			d.over = nil
		}
	}
	d.avail = d.avail.Add(r)
	for i := range d.avail {
		if d.avail[i] > d.capacity[i] {
			d.avail[i] = d.capacity[i]
		}
	}
}

// String renders the device compactly.
func (d *Device) String() string {
	return fmt.Sprintf("%s(%s %s)", d.ID, d.Class, d.Available())
}

// Snapshot is an immutable view of a device used by placement algorithms.
type Snapshot struct {
	ID        ID
	Class     Class
	Available resource.Vector
	Up        bool
}

// Snapshot captures the device's current state.
func (d *Device) Snapshot() Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Snapshot{ID: d.ID, Class: d.Class, Available: d.avail.Clone(), Up: d.up}
}

// Table is a concurrency-safe registry of the devices currently present in
// a domain.
type Table struct {
	mu      sync.RWMutex
	devices map[ID]*Device
}

// NewTable returns an empty device table.
func NewTable() *Table {
	return &Table{devices: make(map[ID]*Device)}
}

// Add registers a device; it fails on duplicate IDs.
func (t *Table) Add(d *Device) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.devices[d.ID]; ok {
		return fmt.Errorf("device: duplicate %s", d.ID)
	}
	t.devices[d.ID] = d
	return nil
}

// Get returns the device with the given ID, or nil.
func (t *Table) Get(id ID) *Device {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.devices[id]
}

// All returns all devices sorted by ID for determinism.
func (t *Table) All() []*Device {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Device, 0, len(t.devices))
	for _, d := range t.devices {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// UpDevices returns all devices currently up, sorted by ID.
func (t *Table) UpDevices() []*Device {
	all := t.All()
	out := all[:0]
	for _, d := range all {
		if d.Up() {
			out = append(out, d)
		}
	}
	return out
}

// Len returns the number of registered devices.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.devices)
}
