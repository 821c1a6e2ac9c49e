package repository

import (
	"strings"
	"sync"
	"testing"
	"time"

	"ubiqos/internal/netsim"
)

func testNet(t *testing.T) *netsim.Network {
	t.Helper()
	n := netsim.MustNew(1e-6) // effectively no real sleeping in tests
	n.MustSetLink("server", "pc", netsim.Ethernet)
	n.MustSetLink("server", "pda", netsim.WLAN)
	return n
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", testNet(t)); err == nil {
		t.Error("empty host should fail")
	}
	if _, err := New("server", nil); err == nil {
		t.Error("nil network should fail")
	}
}

func TestPublishValidation(t *testing.T) {
	r, err := New("server", testNet(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Publish(Package{}); err == nil {
		t.Error("empty name should fail")
	}
	if err := r.Publish(Package{Name: "x", SizeMB: -1}); err == nil {
		t.Error("negative size should fail")
	}
	r.MustPublish(Package{Name: "player", SizeMB: 4})
	if !r.Has("player") || r.Has("ghost") {
		t.Error("Has mismatch")
	}
}

func TestEnsureDownloadsOnce(t *testing.T) {
	r, err := New("server", testNet(t))
	if err != nil {
		t.Fatal(err)
	}
	r.MustPublish(Package{Name: "player", SizeMB: 1}) // 1MB over WLAN ≈ 1.6s modeled
	d1, err := r.Ensure("pda", "player")
	if err != nil {
		t.Fatal(err)
	}
	if d1 < time.Second {
		t.Errorf("first download modeled %v, want ≥ 1s over WLAN", d1)
	}
	if !r.Installed("pda", "player") {
		t.Error("package not marked installed")
	}
	d2, err := r.Ensure("pda", "player")
	if err != nil {
		t.Fatal(err)
	}
	if d2 != 0 {
		t.Errorf("second download modeled %v, want 0 (already installed)", d2)
	}
}

func TestEnsureWiredFasterThanWireless(t *testing.T) {
	r, err := New("server", testNet(t))
	if err != nil {
		t.Fatal(err)
	}
	r.MustPublish(Package{Name: "player", SizeMB: 2})
	dPC, err := r.Ensure("pc", "player")
	if err != nil {
		t.Fatal(err)
	}
	dPDA, err := r.Ensure("pda", "player")
	if err != nil {
		t.Fatal(err)
	}
	if dPC >= dPDA {
		t.Errorf("ethernet download (%v) should beat wireless (%v)", dPC, dPDA)
	}
}

func TestEnsureErrors(t *testing.T) {
	r, err := New("server", testNet(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Ensure("pc", "ghost"); err == nil || !strings.Contains(err.Error(), "not published") {
		t.Errorf("err = %v", err)
	}
	r.MustPublish(Package{Name: "player", SizeMB: 1})
	if _, err := r.Ensure("island", "player"); err == nil {
		t.Error("device with no link should fail")
	}
}

func TestMarkInstalled(t *testing.T) {
	r, err := New("server", testNet(t))
	if err != nil {
		t.Fatal(err)
	}
	r.MustPublish(Package{Name: "player", SizeMB: 5})
	r.MarkInstalled("pda", "player")
	d, err := r.Ensure("pda", "player")
	if err != nil || d != 0 {
		t.Errorf("pre-installed package should not download: %v, %v", d, err)
	}
	if !r.Installed("pda", "player") || r.Installed("laptop", "player") {
		t.Error("Installed must report exactly the marked device")
	}
}

func TestConcurrentEnsure(t *testing.T) {
	r, err := New("server", testNet(t))
	if err != nil {
		t.Fatal(err)
	}
	r.MustPublish(Package{Name: "player", SizeMB: 1})
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Ensure("pc", "player"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if !r.Installed("pc", "player") {
		t.Error("not installed after concurrent ensure")
	}
}
