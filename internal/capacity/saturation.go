// Saturation analysis: classify each device and the space as a whole into
// ok / approaching / saturated from smoothed headroom and admission-queue
// depth. The classifier is hysteretic — entering a worse state and leaving
// it use different thresholds — so an oscillating load trace near a
// boundary settles into one verdict instead of flapping on every sample.
// The analyzer only observes; the actuation (admission throttling)
// belongs to a later tier that reads Report.
package capacity

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// State is a saturation verdict. The numeric values are published as the
// saturation_state gauge, so they are part of the exposition contract.
type State int

const (
	StateOK          State = 0
	StateApproaching State = 1
	StateSaturated   State = 2
)

func (s State) String() string {
	switch s {
	case StateOK:
		return "ok"
	case StateApproaching:
		return "approaching"
	case StateSaturated:
		return "saturated"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Thresholds tunes the classifier. Headroom is the free fraction of the
// binding resource (min over CPU and memory), in [0, 1]. Enter thresholds
// are crossed downward to worsen the state; the matching Exit threshold
// must be crossed upward to recover, and the gap between them is the
// hysteresis band.
type Thresholds struct {
	// ApproachEnter/ApproachExit bound the ok ↔ approaching transition.
	ApproachEnter float64
	ApproachExit  float64
	// SaturateEnter/SaturateExit bound the approaching ↔ saturated
	// transition.
	SaturateEnter float64
	SaturateExit  float64
	// Alpha smooths the raw headroom samples before classification
	// (higher = more reactive).
	Alpha float64
	// QueueApproach/QueueSaturate escalate the space verdict when the
	// configurator's admission queue backs up, whatever the headroom says.
	QueueApproach int
	QueueSaturate int
}

// DefaultThresholds returns the stock tuning: devices are "approaching"
// below 25% headroom (recovering above 35%) and "saturated" below 10%
// (recovering above 18%), with moderate smoothing.
func DefaultThresholds() Thresholds {
	return Thresholds{
		ApproachEnter: 0.25,
		ApproachExit:  0.35,
		SaturateEnter: 0.10,
		SaturateExit:  0.18,
		Alpha:         0.5,
		QueueApproach: 4,
		QueueSaturate: 16,
	}
}

// DeviceStatus is one device's slice of a Report.
type DeviceStatus struct {
	ID       string  `json:"id"`
	Up       bool    `json:"up"`
	CPUUtil  float64 `json:"cpu_util"`
	MemUtil  float64 `json:"mem_util"`
	Headroom float64 `json:"headroom"`          // raw, this sample
	Smoothed float64 `json:"smoothed_headroom"` // EWMA the verdict uses
	State    State   `json:"state"`
	StateStr string  `json:"state_str"`
}

// LinkStatus is one link's slice of a Report.
type LinkStatus struct {
	A            string  `json:"a"`
	B            string  `json:"b"`
	CapacityMbps float64 `json:"capacity_mbps"`
	ResidualMbps float64 `json:"residual_mbps"`
	Utilization  float64 `json:"utilization"`
}

// ClassStatus is one session class's slice of a Report.
type ClassStatus struct {
	Class          string  `json:"class"`
	Active         int     `json:"active"`
	ArrivalRate    float64 `json:"arrival_rate_per_sec"`
	CompletionRate float64 `json:"completion_rate_per_sec"`
}

// Input is one observation handed to the analyzer: the raw device
// utilizations plus the queue depth that can escalate the space verdict.
// SLOViolations is carried into the report for display only: SLO burn
// enters admission through the gate, once. Smoothed and State fields on
// the devices are ignored on input; the analyzer fills them in.
type Input struct {
	Now           time.Time
	Devices       []DeviceStatus
	Links         []LinkStatus
	Classes       []ClassStatus
	QueueDepth    int
	SLOViolations int
}

// Report is the analyzer's verdict for one observation.
type Report struct {
	Now           time.Time      `json:"now"`
	Space         State          `json:"space_state"`
	SpaceStr      string         `json:"space_state_str"`
	SpaceHeadroom float64        `json:"space_headroom"` // min smoothed headroom over up devices
	QueueDepth    int            `json:"queue_depth"`
	SLOViolations int            `json:"slo_violations"`
	Devices       []DeviceStatus `json:"devices"`
	Links         []LinkStatus   `json:"links"`
	Classes       []ClassStatus  `json:"classes"`
}

// track is the per-entity hysteresis memory.
type track struct {
	smoothed float64
	seen     bool
	state    State
}

// observe folds a raw headroom sample into the track and re-classifies.
func (t *track) observe(headroom float64, th Thresholds) {
	if !t.seen {
		t.smoothed, t.seen = headroom, true
	} else {
		t.smoothed = th.Alpha*headroom + (1-th.Alpha)*t.smoothed
	}
	switch t.state {
	case StateOK:
		if t.smoothed < th.SaturateEnter {
			t.state = StateSaturated
		} else if t.smoothed < th.ApproachEnter {
			t.state = StateApproaching
		}
	case StateApproaching:
		if t.smoothed < th.SaturateEnter {
			t.state = StateSaturated
		} else if t.smoothed > th.ApproachExit {
			t.state = StateOK
		}
	case StateSaturated:
		if t.smoothed > th.ApproachExit {
			t.state = StateOK
		} else if t.smoothed > th.SaturateExit {
			t.state = StateApproaching
		}
	}
}

// Analyzer carries the hysteresis state between observations. One
// analyzer serves one space; it is safe for concurrent use.
type Analyzer struct {
	mu      sync.Mutex
	th      Thresholds
	devices map[string]*track
	space   track
}

// NewAnalyzer returns an analyzer with the given thresholds (a zero
// Thresholds selects DefaultThresholds).
func NewAnalyzer(th Thresholds) *Analyzer {
	if th == (Thresholds{}) {
		th = DefaultThresholds()
	}
	return &Analyzer{th: th, devices: make(map[string]*track)}
}

// Observe classifies one observation, advancing the per-device and
// space-wide hysteresis, and returns the resulting report.
func (a *Analyzer) Observe(in Input) Report {
	a.mu.Lock()
	defer a.mu.Unlock()

	rep := Report{
		Now:           in.Now,
		QueueDepth:    in.QueueDepth,
		SLOViolations: in.SLOViolations,
		Links:         in.Links,
		Classes:       in.Classes,
		SpaceHeadroom: 1,
	}

	alive := make(map[string]bool, len(in.Devices))
	anyUp := false
	for _, d := range in.Devices {
		alive[d.ID] = true
		t, ok := a.devices[d.ID]
		if !ok {
			t = &track{}
			a.devices[d.ID] = t
		}
		if d.Up {
			t.observe(d.Headroom, a.th)
			anyUp = true
			if t.smoothed < rep.SpaceHeadroom {
				rep.SpaceHeadroom = t.smoothed
			}
		}
		d.Smoothed = t.smoothed
		d.State = t.state
		d.StateStr = t.state.String()
		rep.Devices = append(rep.Devices, d)
	}
	// Drop tracks for devices that left the space, so the map stays
	// bounded by the live device set.
	for id := range a.devices {
		if !alive[id] {
			delete(a.devices, id)
		}
	}
	sort.Slice(rep.Devices, func(i, j int) bool { return rep.Devices[i].ID < rep.Devices[j].ID })
	// Links and classes arrive in map order; sort so successive `top`
	// frames keep rows in place.
	sort.Slice(rep.Links, func(i, j int) bool {
		if rep.Links[i].A != rep.Links[j].A {
			return rep.Links[i].A < rep.Links[j].A
		}
		return rep.Links[i].B < rep.Links[j].B
	})
	sort.Slice(rep.Classes, func(i, j int) bool { return rep.Classes[i].Class < rep.Classes[j].Class })

	// Space verdict: hysteresis over the worst up-device headroom, then
	// stateless escalation from queue depth. Escalation is
	// applied after the hysteresis so a drained queue de-escalates
	// immediately — the queue signal is already discrete.
	if anyUp {
		a.space.observe(rep.SpaceHeadroom, a.th)
		rep.Space = a.space.state
	} else {
		rep.SpaceHeadroom = 0
		rep.Space = StateSaturated
	}
	if in.QueueDepth >= a.th.QueueSaturate {
		rep.Space = StateSaturated
	} else if in.QueueDepth >= a.th.QueueApproach && rep.Space < StateApproaching {
		rep.Space = StateApproaching
	}
	rep.SpaceStr = rep.Space.String()
	return rep
}

// Render formats the report as a fixed-width terminal view — the body of
// `qosctl top`.
func (r Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "capacity observatory — %s\n", r.Now.Format(time.RFC3339))
	fmt.Fprintf(&b, "space: %-11s  headroom %.2f  queue %d  slo-violations %d\n\n",
		strings.ToUpper(r.Space.String()), r.SpaceHeadroom, r.QueueDepth, r.SLOViolations)

	fmt.Fprintf(&b, "%-14s %-12s %6s %6s %9s %9s\n", "DEVICE", "STATE", "CPU", "MEM", "HEADROOM", "SMOOTHED")
	for _, d := range r.Devices {
		state := d.State.String()
		if !d.Up {
			state = "down"
		}
		fmt.Fprintf(&b, "%-14s %-12s %6.2f %6.2f %9.2f %9.2f\n",
			d.ID, state, d.CPUUtil, d.MemUtil, d.Headroom, d.Smoothed)
	}

	if len(r.Links) > 0 {
		fmt.Fprintf(&b, "\n%-24s %9s %9s %6s\n", "LINK", "CAP-MBPS", "RESIDUAL", "UTIL")
		for _, l := range r.Links {
			fmt.Fprintf(&b, "%-24s %9.1f %9.1f %6.2f\n",
				l.A+"|"+l.B, l.CapacityMbps, l.ResidualMbps, l.Utilization)
		}
	}

	if len(r.Classes) > 0 {
		fmt.Fprintf(&b, "\n%-14s %7s %8s %8s\n", "CLASS", "ACTIVE", "ARR/S", "DONE/S")
		for _, c := range r.Classes {
			fmt.Fprintf(&b, "%-14s %7d %8.2f %8.2f\n",
				c.Class, c.Active, c.ArrivalRate, c.CompletionRate)
		}
	}
	return b.String()
}
