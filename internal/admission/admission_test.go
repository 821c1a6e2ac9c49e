package admission

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ubiqos/internal/capacity"
)

// fakeSignals builds Signals returning a fixed state and burn rate.
func fakeSignals(state capacity.State, headroom, burn float64) Signals {
	return Signals{
		Report:  func() capacity.Report { return capacity.Report{Space: state, SpaceHeadroom: headroom} },
		SLOBurn: func() float64 { return burn },
	}
}

// TestGateVerdictTable walks class × saturation-state × SLO-burn through
// the stock policy table: voice never degrades (holds full quality until
// rejected at saturated), background sheds as soon as the space is
// approaching, and unlisted classes get the default
// degrade-at-approaching / reject-at-saturated ladder. Burn > 1 escalates
// the effective state one level; burn at or below 1 never does.
func TestGateVerdictTable(t *testing.T) {
	cases := []struct {
		class     string
		state     capacity.State
		burn      float64
		want      Verdict
		escalated bool
	}{
		// Default policy (unlisted class).
		{"video", capacity.StateOK, 0, Admit, false},
		{"video", capacity.StateApproaching, 0, AdmitDegraded, false},
		{"video", capacity.StateSaturated, 0, Reject, false},
		// Voice holds quality: no degrade rung, reject only at saturated.
		{"voice", capacity.StateOK, 0, Admit, false},
		{"voice", capacity.StateApproaching, 0, Admit, false},
		{"voice", capacity.StateSaturated, 0, Reject, false},
		// Background sheds early.
		{"background", capacity.StateOK, 0, Admit, false},
		{"background", capacity.StateApproaching, 0, AdmitDegraded, false},
		{"background", capacity.StateSaturated, 0, Reject, false},
		// SLO burn > 1 escalates one level: OK behaves as approaching,
		// approaching behaves as saturated.
		{"video", capacity.StateOK, 1.5, AdmitDegraded, true},
		{"video", capacity.StateApproaching, 1.5, Reject, true},
		{"voice", capacity.StateOK, 1.5, Admit, true},
		{"voice", capacity.StateApproaching, 1.5, Reject, true},
		{"background", capacity.StateOK, 1.5, AdmitDegraded, true},
		// Saturated cannot escalate further (and must not mark Escalated).
		{"video", capacity.StateSaturated, 3.0, Reject, false},
		// At-risk burn (≤ 1) never escalates.
		{"video", capacity.StateOK, 1.0, Admit, false},
		{"background", capacity.StateOK, 0.99, Admit, false},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/%s/burn=%.2f", tc.class, tc.state, tc.burn)
		t.Run(name, func(t *testing.T) {
			g := New(Options{Signals: fakeSignals(tc.state, 0.5, tc.burn)})
			d := g.Admit(tc.class)
			if d.Verdict != tc.want {
				t.Fatalf("verdict = %s, want %s (decision %+v)", d.Verdict, tc.want, d)
			}
			if d.Escalated != tc.escalated {
				t.Fatalf("escalated = %v, want %v", d.Escalated, tc.escalated)
			}
			if d.Class != tc.class {
				t.Fatalf("class = %q, want %q", d.Class, tc.class)
			}
			if tc.want == Reject && d.RetryAfterMs <= 0 {
				t.Fatalf("rejection carries no retry-after hint: %+v", d)
			}
			if tc.want != Reject && d.RetryAfterMs != 0 {
				t.Fatalf("non-rejection carries retry-after %v", d.RetryAfterMs)
			}
		})
	}
}

// TestGateRetryAfterDefaults: rejections inherit DefaultRetryAfter unless
// the class policy sets its own hint.
func TestGateRetryAfterDefaults(t *testing.T) {
	g := New(Options{Signals: fakeSignals(capacity.StateSaturated, 0, 0)})
	if got := g.Admit("video").RetryAfter(); got != DefaultRetryAfter {
		t.Fatalf("default retry-after = %v, want %v", got, DefaultRetryAfter)
	}
	g = New(Options{
		Signals: fakeSignals(capacity.StateSaturated, 0, 0),
		Policies: map[string]ClassPolicy{
			"video": {DegradeAt: Never, RejectAt: capacity.StateSaturated, RetryAfter: 7 * time.Second},
		},
	})
	if got := g.Admit("video").RetryAfter(); got != 7*time.Second {
		t.Fatalf("policy retry-after = %v, want 7s", got)
	}
}

// TestGateDefaultOverride: the gate's fallback policy, not the stock
// ladder, decides for unlisted classes.
func TestGateDefaultOverride(t *testing.T) {
	g := New(Options{Signals: fakeSignals(capacity.StateApproaching, 0.3, 0)})
	g.def = ClassPolicy{DegradeAt: Never, RejectAt: Never}
	if d := g.Admit("anything"); d.Verdict != Admit {
		t.Fatalf("open-door default rejected/degraded: %+v", d)
	}
}

// TestGateTalliesAndPreview: Admit records per-class counts; Preview does
// not.
func TestGateTalliesAndPreview(t *testing.T) {
	g := New(Options{Signals: fakeSignals(capacity.StateApproaching, 0.3, 0)})
	g.Admit("voice")      // admitted (voice holds quality while approaching)
	g.Admit("background") // degraded
	g.Admit("background") // degraded
	g.Preview("voice")    // not recorded
	st := g.Status()
	want := map[string]ClassCounts{
		"voice":      {Class: "voice", Admitted: 1},
		"background": {Class: "background", Degraded: 2},
	}
	if len(st.Classes) != len(want) {
		t.Fatalf("classes = %+v, want %d entries", st.Classes, len(want))
	}
	for _, c := range st.Classes {
		if w := want[c.Class]; c != w {
			t.Fatalf("tally %+v, want %+v", c, w)
		}
	}
}

// TestGateStatusEscalation: the status snapshot reports the effective
// (escalated) state when the SLO is burning.
func TestGateStatusEscalation(t *testing.T) {
	g := New(Options{Signals: fakeSignals(capacity.StateOK, 0.6, 2.0)})
	st := g.Status()
	if st.State != capacity.StateApproaching {
		t.Fatalf("status state = %s, want approaching (escalated)", st.StateStr)
	}
	if st.SLOBurn != 2.0 {
		t.Fatalf("status burn = %v, want 2.0", st.SLOBurn)
	}
}

// TestRejectedErrorRoundTrip: the typed error carries the decision and
// unwraps via errors.As.
func TestRejectedErrorRoundTrip(t *testing.T) {
	g := New(Options{Signals: fakeSignals(capacity.StateSaturated, 0, 0)})
	dec := g.Admit("video")
	var err error = &RejectedError{Decision: dec}
	var rej *RejectedError
	if !errors.As(err, &rej) {
		t.Fatal("errors.As failed to find RejectedError")
	}
	if rej.Decision.Verdict != Reject || rej.Decision.RetryAfterMs <= 0 {
		t.Fatalf("decision lost in transit: %+v", rej.Decision)
	}
}
