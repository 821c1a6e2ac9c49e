package capacity

import (
	"strings"
	"testing"
	"time"
)

func devInput(t time.Time, headroom float64, queue int) Input {
	return Input{
		Now:        t,
		Devices:    []DeviceStatus{{ID: "d1", Up: true, CPUUtil: 1 - headroom, MemUtil: 0.1, Headroom: headroom}},
		QueueDepth: queue,
	}
}

// An oscillating trace straddling ApproachEnter must not flap: once the
// device enters approaching, it stays there until headroom clears
// ApproachExit, so the whole trace yields at most one transition.
func TestHysteresisNoFlapping(t *testing.T) {
	a := NewAnalyzer(Thresholds{})
	now := time.Unix(0, 0)

	transitions := 0
	prev := StateOK
	for i := 0; i < 40; i++ {
		h := 0.26 // just above ApproachEnter (0.25), well below ApproachExit (0.35)
		if i%2 == 1 {
			h = 0.20 // below ApproachEnter
		}
		rep := a.Observe(devInput(now.Add(time.Duration(i)*time.Second), h, 0))
		got := rep.Devices[0].State
		if got != prev {
			transitions++
			prev = got
		}
	}
	if prev != StateApproaching {
		t.Fatalf("oscillating trace ended in %v, want approaching", prev)
	}
	if transitions != 1 {
		t.Fatalf("oscillating trace produced %d transitions, want exactly 1 (ok→approaching)", transitions)
	}
}

func TestHysteresisRecovery(t *testing.T) {
	a := NewAnalyzer(Thresholds{})
	now := time.Unix(0, 0)

	// Drive into saturated.
	var rep Report
	for i := 0; i < 10; i++ {
		rep = a.Observe(devInput(now.Add(time.Duration(i)*time.Second), 0.05, 0))
	}
	if rep.Devices[0].State != StateSaturated {
		t.Fatalf("state after heavy load = %v, want saturated", rep.Devices[0].State)
	}

	// Headroom at 0.15: above SaturateEnter but below SaturateExit (0.18)
	// — must stay saturated.
	rep = a.Observe(devInput(now.Add(20*time.Second), 0.15, 0))
	if rep.Devices[0].State != StateSaturated {
		t.Fatalf("state inside hysteresis band = %v, want saturated", rep.Devices[0].State)
	}

	// Sustained recovery above ApproachExit eventually returns to ok.
	for i := 0; i < 20; i++ {
		rep = a.Observe(devInput(now.Add(time.Duration(30+i)*time.Second), 0.9, 0))
	}
	if rep.Devices[0].State != StateOK {
		t.Fatalf("state after recovery = %v, want ok", rep.Devices[0].State)
	}
}

func TestQueueEscalatesSpace(t *testing.T) {
	a := NewAnalyzer(Thresholds{})
	now := time.Unix(0, 0)

	rep := a.Observe(devInput(now, 0.9, 0))
	if rep.Space != StateOK {
		t.Fatalf("space with full headroom = %v, want ok", rep.Space)
	}
	rep = a.Observe(devInput(now.Add(time.Second), 0.9, DefaultThresholds().QueueApproach))
	if rep.Space != StateApproaching {
		t.Fatalf("space with backed-up queue = %v, want approaching", rep.Space)
	}
	rep = a.Observe(devInput(now.Add(2*time.Second), 0.9, DefaultThresholds().QueueSaturate))
	if rep.Space != StateSaturated {
		t.Fatalf("space with deep queue = %v, want saturated", rep.Space)
	}
	// Queue drains: escalation is stateless, so the verdict relaxes
	// immediately while headroom is healthy.
	rep = a.Observe(devInput(now.Add(3*time.Second), 0.9, 0))
	if rep.Space != StateOK {
		t.Fatalf("space after queue drain = %v, want ok", rep.Space)
	}
}

// SLO violations are shown in the report but leave the verdict alone:
// the admission gate escalates on SLO burn itself, so an analyzer that
// escalated too would raise the gate's state twice.
func TestSLOViolationsLeaveVerdict(t *testing.T) {
	a := NewAnalyzer(Thresholds{})
	in := devInput(time.Unix(0, 0), 0.9, 0)
	in.SLOViolations = 2
	rep := a.Observe(in)
	if rep.Space != StateOK {
		t.Fatalf("space with SLO violations at full headroom = %v, want ok", rep.Space)
	}
	if rep.SLOViolations != 2 {
		t.Fatalf("report carries %d SLO violations, want 2", rep.SLOViolations)
	}
}

func TestNoUpDevicesSaturates(t *testing.T) {
	a := NewAnalyzer(Thresholds{})
	rep := a.Observe(Input{
		Now:     time.Unix(0, 0),
		Devices: []DeviceStatus{{ID: "d1", Up: false, Headroom: 0.9}},
	})
	if rep.Space != StateSaturated || rep.SpaceHeadroom != 0 {
		t.Fatalf("space with no up devices = %v headroom %v, want saturated/0", rep.Space, rep.SpaceHeadroom)
	}
}

func TestDepartedDeviceTrackDropped(t *testing.T) {
	a := NewAnalyzer(Thresholds{})
	now := time.Unix(0, 0)
	a.Observe(Input{Now: now, Devices: []DeviceStatus{
		{ID: "d1", Up: true, Headroom: 0.9},
		{ID: "d2", Up: true, Headroom: 0.9},
	}})
	a.Observe(devInput(now.Add(time.Second), 0.9, 0)) // only d1 remains
	if len(a.devices) != 1 {
		t.Fatalf("analyzer retained %d tracks after departure, want 1", len(a.devices))
	}
}

func TestRenderContainsSections(t *testing.T) {
	a := NewAnalyzer(Thresholds{})
	rep := a.Observe(Input{
		Now:     time.Unix(0, 0).UTC(),
		Devices: []DeviceStatus{{ID: "desktop1", Up: true, CPUUtil: 0.4, MemUtil: 0.3, Headroom: 0.6}},
		Links:   []LinkStatus{{A: "desktop1", B: "pda1", CapacityMbps: 10, ResidualMbps: 4, Utilization: 0.6}},
		Classes: []ClassStatus{{Class: "audio", Active: 2, ArrivalRate: 0.5, CompletionRate: 0.4}},
	})
	out := rep.Render()
	for _, want := range []string{"space: OK", "desktop1", "desktop1|pda1", "audio", "DEVICE", "LINK", "CLASS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render() missing %q:\n%s", want, out)
		}
	}
}
