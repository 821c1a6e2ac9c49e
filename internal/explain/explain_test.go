package explain

import "testing"

func TestDiffPlacements(t *testing.T) {
	from := &Record{Seq: 1, Action: ActionConfigure, Placement: map[string]string{
		"src": "server", "mix": "server", "sink": "pda", "fx": "laptop",
	}}
	to := &Record{Seq: 4, Action: ActionRecover, Placement: map[string]string{
		"src": "server", "mix": "laptop", "sink": "pda", "extra": "server",
	}}
	d := DiffPlacements(from, to)
	if d.FromSeq != 1 || d.ToSeq != 4 || d.FromAction != ActionConfigure || d.ToAction != ActionRecover {
		t.Fatalf("diff header wrong: %+v", d)
	}
	if d.Unchanged != 2 {
		t.Fatalf("unchanged = %d, want 2", d.Unchanged)
	}
	if len(d.Moved) != 1 || d.Moved[0] != (Move{Component: "mix", From: "server", To: "laptop"}) {
		t.Fatalf("moved wrong: %+v", d.Moved)
	}
	if len(d.Added) != 1 || d.Added[0] != (Move{Component: "extra", To: "server"}) {
		t.Fatalf("added wrong: %+v", d.Added)
	}
	if len(d.Removed) != 1 || d.Removed[0] != (Move{Component: "fx", From: "laptop"}) {
		t.Fatalf("removed wrong: %+v", d.Removed)
	}
}

// TestDisabledExplainAllocationFree: with no record attached the
// composer's per-discovery/per-correction guards allocate nothing.
func TestDisabledExplainAllocationFree(t *testing.T) {
	var rec *Record
	allocs := testing.AllocsPerRun(1000, func() {
		rec.AddDiscovery(Discovery{Node: "player"})
		rec.AddCorrection(Correction{Rule: "adjust"})
	})
	if allocs != 0 {
		t.Errorf("nil record allocates %.1f objects per call, want 0", allocs)
	}
}
