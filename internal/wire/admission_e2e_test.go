package wire

import (
	"testing"
	"time"

	"ubiqos/internal/admission"
	"ubiqos/internal/capacity"
	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/domain"
	"ubiqos/internal/explain"
	"ubiqos/internal/netsim"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
)

// startAdmissionServer boots a server whose domain runs a gate that
// rejects the classes these tests use at StateOK — rejection is
// deterministic regardless of actual load, so the wire-level contract can
// be asserted end to end.
func startAdmissionServer(t *testing.T) (*domain.Domain, string) {
	t.Helper()
	dom, err := domain.New("adm-space", domain.Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dom.Close)
	reject := admission.ClassPolicy{
		DegradeAt:  admission.Never,
		RejectAt:   capacity.StateOK,
		RetryAfter: 1500 * time.Millisecond,
	}
	dom.EnableAdmissionGate(map[string]admission.ClassPolicy{"video": reject, "probe": reject})
	if _, err := dom.AddDevice("desktop1", device.ClassDesktop, resource.MB(256, 100), map[string]string{"platform": "pc"}); err != nil {
		t.Fatal(err)
	}
	if err := dom.ConnectServer("desktop1", netsim.Ethernet); err != nil {
		t.Fatal(err)
	}
	dom.Registry.MustRegister(&registry.Instance{
		Name:      "player-1",
		Type:      "player",
		Attrs:     map[string]string{"platform": "pc"},
		Resources: resource.MB(8, 5),
	})
	dom.Repo.MarkInstalled("desktop1", "player-1")

	srv, err := NewServer(dom)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return dom, addr
}

func admissionTestApp() *composer.AbstractGraph {
	ag := composer.NewAbstractGraph()
	ag.MustAddNode(&composer.AbstractNode{ID: "player", Spec: registry.Spec{Type: "player"}, Pin: core.ClientRole})
	return ag
}

// TestStartRejectedCarriesAdmissionDecision: a gate-rejected start fails
// with the decision and its retry-after hint attached to the error
// response, and the rejection leaves a decision-provenance record behind.
func TestStartRejectedCarriesAdmissionDecision(t *testing.T) {
	_, addr := startAdmissionServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Call(Request{
		Op:           OpStart,
		SessionID:    "adm-1",
		App:          admissionTestApp(),
		ClientDevice: "desktop1",
		Class:        "video",
	})
	if err == nil {
		t.Fatal("gate-rejected start did not error")
	}
	if resp.Admission == nil || !resp.Admission.Enabled || resp.Admission.Decision == nil {
		t.Fatalf("error response carries no admission decision: %+v", resp)
	}
	dec := resp.Admission.Decision
	if dec.Verdict != admission.Reject {
		t.Fatalf("verdict = %s, want reject", dec.Verdict)
	}
	if dec.RetryAfterMs != 1500 {
		t.Fatalf("retryAfterMs = %v, want 1500", dec.RetryAfterMs)
	}
	if dec.Class != "video" {
		t.Fatalf("class = %q, want video", dec.Class)
	}

	// No session may exist for the rejected ID.
	if resp, err := c.Call(Request{Op: OpSessions}); err != nil || len(resp.Sessions) != 0 {
		t.Fatalf("rejected session leaked: %v %v", resp.Sessions, err)
	}

	// The rejection is recorded as decision provenance.
	resp, err = c.Call(Request{Op: OpExplain, SessionID: "adm-1"})
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	found := false
	for _, rec := range resp.Explain.Records {
		if rec.Action == explain.ActionAdmission && rec.Admission != nil &&
			rec.Admission.Verdict == string(admission.Reject) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no admission provenance record for the rejection: %+v", resp.Explain.Records)
	}
}

// TestAdmissionOpStatusAndPreview: the admission op serves the gate
// snapshot (with decision tallies) and class previews without recording.
func TestAdmissionOpStatusAndPreview(t *testing.T) {
	_, addr := startAdmissionServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One real rejection to put a tally on the books.
	c.Call(Request{Op: OpStart, SessionID: "adm-2", App: admissionTestApp(),
		ClientDevice: "desktop1", Class: "video"})

	resp, err := c.Call(Request{Op: OpAdmission})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Admission == nil || !resp.Admission.Enabled || resp.Admission.Status == nil {
		t.Fatalf("admission status missing: %+v", resp.Admission)
	}
	var rejected int64
	for _, cc := range resp.Admission.Status.Classes {
		if cc.Class == "video" {
			rejected = cc.Rejected
		}
	}
	if rejected != 1 {
		t.Fatalf("video rejected tally = %d, want 1", rejected)
	}

	resp, err = c.Call(Request{Op: OpAdmission, Class: "probe"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Admission.Decision == nil || resp.Admission.Decision.Verdict != admission.Reject {
		t.Fatalf("preview decision = %+v, want reject", resp.Admission.Decision)
	}
	// Preview must not show up in the tallies.
	resp, _ = c.Call(Request{Op: OpAdmission})
	for _, cc := range resp.Admission.Status.Classes {
		if cc.Class == "probe" {
			t.Fatalf("preview was recorded: %+v", cc)
		}
	}
}

// TestAdmissionOpDisabled: a domain without a gate answers the admission
// op with enabled=false.
func TestAdmissionOpDisabled(t *testing.T) {
	_, addr := startServer(t) // the stock audio space: no gate
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Call(Request{Op: OpAdmission})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Admission == nil || resp.Admission.Enabled {
		t.Fatalf("gateless domain reported admission enabled: %+v", resp.Admission)
	}
}
