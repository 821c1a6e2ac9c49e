package domain

import (
	"strings"
	"testing"
	"time"

	"ubiqos/internal/admission"
	"ubiqos/internal/capacity"
	"ubiqos/internal/core"
	"ubiqos/internal/incident"
	"ubiqos/internal/metrics"
)

func TestSampleCapacityPublishesLabeledGauges(t *testing.T) {
	d := newSpace(t)
	if _, err := d.StartApp(core.Request{SessionID: "a1", App: audioApp(), ClientDevice: "desktop1"}); err != nil {
		t.Fatal(err)
	}
	d.sampleCapacity(time.Now())

	text := d.Metrics.Exposition()
	for _, want := range []string{
		`device_headroom_ratio{device="desktop1"}`,
		`device_headroom_ratio{device="pda1"}`,
		`device_utilization_ratio{device="desktop1",dim="cpu"}`,
		`device_utilization_ratio{device="desktop1",dim="mem"}`,
		`device_up{device="pda1"} 1`,
		`link_residual_mbps{link="desktop1|desktop2"}`,
		`sessions_by_class{class="audio-player"} 1`,
		`session_arrivals_total{class="audio-player"} 1`,
		"space_headroom_ratio ",
		"saturation_state ",
		`saturation_state{device="desktop1"}`,
		"config_pending 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestSampleCapacityRecordsTimeSeries(t *testing.T) {
	d := newSpace(t)
	base := time.Now()
	for i := 0; i < 5; i++ {
		d.sampleCapacity(base.Add(time.Duration(i) * time.Second))
	}
	if got := len(d.Capacity.Series(metrics.SpaceHeadroom, 0)); got != 5 {
		t.Errorf("space_headroom_ratio samples = %d, want 5", got)
	}
	if got := len(d.Capacity.Series(metrics.WithLabel(metrics.DeviceHeadroom, "device", "pda1"), 0)); got != 5 {
		t.Errorf("per-device headroom samples = %d, want 5", got)
	}
	names := d.Capacity.Metrics()
	if len(names) == 0 {
		t.Fatal("observatory recorded no series")
	}
}

func TestSaturationReportTracksSessions(t *testing.T) {
	d := newSpace(t)
	rep := d.SaturationReport()
	if rep.Space != capacity.StateOK {
		t.Fatalf("idle space state = %v, want ok", rep.Space)
	}
	if len(rep.Devices) != 3 {
		t.Fatalf("report devices = %d, want 3", len(rep.Devices))
	}

	if _, err := d.StartApp(core.Request{SessionID: "a1", App: audioApp(), ClientDevice: "desktop1"}); err != nil {
		t.Fatal(err)
	}
	d.sampleCapacity(time.Now())
	d.repMu.Lock()
	rep = d.lastReport
	d.repMu.Unlock()
	found := false
	for _, c := range rep.Classes {
		if c.Class == "audio-player" && c.Active == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("report classes missing audio-player: %+v", rep.Classes)
	}

	// Stop the session: the class gauge must drop to zero on the next pass,
	// not freeze at its last value.
	if err := d.StopApp("a1"); err != nil {
		t.Fatal(err)
	}
	d.sampleCapacity(time.Now())
	if !strings.Contains(d.Metrics.Exposition(), `sessions_by_class{class="audio-player"} 0`) {
		t.Error("sessions_by_class gauge did not drop to 0 after stop")
	}
}

// TestSLOBurnEscalatesAdmissionOnce: with ample headroom, no session
// placed and the configure-p95 SLO violated, the analyzer's verdict stays
// ok and the gate raises its state one level, not two: voice is admitted,
// background degraded. The burn opens an slo-burn incident and no
// saturation one.
func TestSLOBurnEscalatesAdmissionOnce(t *testing.T) {
	d := newSpace(t)
	g := d.EnableAdmissionGate(nil)
	for i := 0; i < 20; i++ {
		d.Metrics.Histogram(metrics.ConfigureTime).Observe(2 * time.Second) // 4× the 500 ms target
	}
	for i := 0; i < 5; i++ {
		d.sampleCapacity(time.Now())
	}
	if rep := d.SaturationReport(); rep.Space != capacity.StateOK || rep.SLOViolations == 0 {
		t.Errorf("verdict %v with %d SLO violations at headroom %.2f, want ok with violations",
			rep.Space, rep.SLOViolations, rep.SpaceHeadroom)
	}
	for class, want := range map[string]admission.Verdict{"voice": admission.Admit, "background": admission.AdmitDegraded} {
		dec := g.Preview(class)
		if dec.Verdict != want || !dec.Escalated || dec.State != capacity.StateApproaching {
			t.Errorf("%s: %+v, want %s at approaching, escalated once", class, dec, want)
		}
	}
	burn := false
	for _, inc := range d.Incidents.List() {
		switch inc.Rule {
		case incident.RuleSaturation:
			t.Errorf("saturation incident %s opened on SLO burn alone: %s", inc.ID, inc.Title)
		case incident.RuleSLOBurn:
			burn = true
		}
	}
	if !burn {
		t.Error("no slo-burn incident opened on a violated configure SLO")
	}
}

// TestIncidentNotBeforeItsFault: a fault counted by a sampling pass that
// began before it opens its incident after it. The pass here starts (its
// tick instant) before the fault counter moves and reads the counter
// after, as a ticker pass does when a fault lands in between.
func TestIncidentNotBeforeItsFault(t *testing.T) {
	d := newSpace(t)
	d.Capacity.Stop() // only this test's passes
	d.sampleCapacity(time.Now())
	tick := time.Now()
	time.Sleep(time.Millisecond)
	faultAt := time.Now()
	d.Metrics.Counter(metrics.FaultsInjected).Add(2)
	d.sampleCapacity(tick)
	incs := d.Incidents.List()
	if len(incs) == 0 {
		t.Fatal("two faults in one pass opened no incident")
	}
	for _, inc := range incs {
		if inc.OpenedAt.Before(faultAt) {
			t.Errorf("%s %s opened %v before the fault it reports", inc.ID, inc.Rule, faultAt.Sub(inc.OpenedAt))
		}
	}
}
