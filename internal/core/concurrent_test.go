package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ubiqos/internal/qos"
)

// audioRequest builds one session request against the shared fixture.
func audioRequest(id string) Request {
	return Request{
		SessionID:    id,
		App:          audioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(35, 45))),
		ClientDevice: "desktop1",
	}
}

// configureConcurrently calls Configure for every request from its own
// goroutine, the way the wire server's connections do, and returns the
// outcomes in request order.
func configureConcurrently(c *Configurator, reqs []Request) (sessions []*ActiveSession, errs []error) {
	sessions = make([]*ActiveSession, len(reqs))
	errs = make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sessions[i], errs[i] = c.Configure(reqs[i])
		}(i)
	}
	wg.Wait()
	return sessions, errs
}

// checkBaseline asserts that every device and link of the fixture is back
// at its full capacity.
func (f *fixture) checkBaseline(t *testing.T) {
	t.Helper()
	for _, d := range f.cfg.Devices.All() {
		if got := d.Available(); !got.Equal(d.Capacity()) {
			t.Errorf("%s not fully released: %s != %s", d.ID, got, d.Capacity())
		}
	}
	for _, l := range f.cfg.Links.Entries() {
		if l.ReservedMbps != 0 {
			t.Errorf("link %s-%s still has %g Mbps reserved", l.A, l.B, l.ReservedMbps)
		}
	}
}

// TestConcurrentConfigureSessions drives the multi-session path:
// independent sessions configure on concurrent goroutines, the shared
// device bookkeeping stays consistent, and teardown returns the smart
// space to its initial capacity.
func TestConcurrentConfigureSessions(t *testing.T) {
	f := newFixture(t)
	c := f.c

	// Three audio sessions fit the desktop (3×(64+16)MB ≤ 256MB,
	// 3×(50+30)% ≤ 300%).
	reqs := make([]Request, 3)
	for i := range reqs {
		reqs[i] = audioRequest(fmt.Sprintf("audio-%d", i))
	}
	sessions, errs := configureConcurrently(c, reqs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if sessions[i] == nil || sessions[i].ID != reqs[i].SessionID {
			t.Fatalf("request %d: session = %+v", i, sessions[i])
		}
	}
	if got := c.Sessions(); got != 3 {
		t.Fatalf("Sessions() = %d, want 3", got)
	}

	// Device accounting: the desktop must carry exactly the sum of the
	// three sessions' loads.
	want := f.dsk.Capacity().Clone()
	for _, s := range sessions {
		for i, id := range s.devIDs {
			if id == "desktop1" {
				want = want.Sub(s.loads[i])
			}
		}
	}
	if got := f.dsk.Available(); !got.Equal(want) {
		t.Errorf("desktop available = %s, want %s", got, want)
	}

	// Concurrent teardown restores full capacity.
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if err := c.Stop(id); err != nil {
				t.Errorf("stop %s: %v", id, err)
			}
		}(s.ID)
	}
	wg.Wait()
	if got := c.Sessions(); got != 0 {
		t.Errorf("Sessions() after teardown = %d", got)
	}
	f.checkBaseline(t)
}

// TestConfigureDuplicateIDRace reserves the session ID before the pipeline
// runs: of many concurrent Configure calls for one ID exactly one wins,
// the rest fail fast, and only one session's resources are admitted.
func TestConfigureDuplicateIDRace(t *testing.T) {
	f := newFixture(t)
	const racers = 8
	var ok, dup atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := f.c.Configure(audioRequest("contested"))
			switch {
			case err == nil:
				ok.Add(1)
			case strings.Contains(err.Error(), "already"):
				dup.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok.Load() != 1 || dup.Load() != racers-1 {
		t.Fatalf("winners = %d, duplicate rejections = %d, want 1 and %d", ok.Load(), dup.Load(), racers-1)
	}
	if f.c.Sessions() != 1 {
		t.Fatalf("Sessions() = %d, want 1", f.c.Sessions())
	}
	if err := f.c.Stop("contested"); err != nil {
		t.Fatal(err)
	}
	f.checkBaseline(t)
}

// TestConcurrentConfigurePartialFailure checks that a burst larger than
// the smart space admits what fits and reports per-request errors for the
// rest, with no double-admission under concurrency.
func TestConcurrentConfigurePartialFailure(t *testing.T) {
	f := newFixture(t)
	c := f.c
	// Only three fit the desktop; the rest must fail with a distribution
	// or admission error, not corrupt shared state.
	reqs := make([]Request, 6)
	for i := range reqs {
		reqs[i] = audioRequest(fmt.Sprintf("burst-%d", i))
	}
	sessions, errs := configureConcurrently(c, reqs)
	okCount := 0
	for i := range reqs {
		if errs[i] == nil {
			okCount++
		} else if sessions[i] != nil {
			t.Errorf("request %d: session returned alongside error %v", i, errs[i])
		}
	}
	if okCount != 3 {
		t.Fatalf("admitted %d sessions, want 3", okCount)
	}
	if c.Sessions() != okCount {
		t.Fatalf("Sessions() = %d, want %d", c.Sessions(), okCount)
	}
	for _, id := range c.SessionIDs() {
		if err := c.Stop(id); err != nil {
			t.Fatal(err)
		}
	}
	f.checkBaseline(t)
}
