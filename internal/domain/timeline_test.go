package domain_test

import (
	"testing"
	"time"

	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/domain"
	"ubiqos/internal/eventbus"
	"ubiqos/internal/faultinject"
	"ubiqos/internal/flight"
	"ubiqos/internal/metrics"
)

// events counts the session's timeline entries for one bus topic.
func events(d *domain.Domain, session string, topic eventbus.Topic) int {
	n := 0
	for _, e := range d.Flight.Timeline(session) {
		if e.Kind == flight.KindEvent && e.Message == string(topic) {
			n++
		}
	}
	return n
}

// startOn starts the audio application for each session with its portal
// on the device, and stops what is left of them when the test ends.
func startOn(t *testing.T, d *domain.Domain, dev device.ID, sessions ...string) {
	t.Helper()
	for _, sid := range sessions {
		if _, err := d.StartApp(core.Request{SessionID: sid, App: domain.AudioApp(), ClientDevice: dev}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = d.StopApp(sid) }) // a lost session is already stopped
	}
}

// TestOffPathEventsOnTimeline: the events published off the request path
// — by the fault injector, the recovery supervisor, or anyone else on the
// bus — are on the timeline of every session they concern by the time the
// call that published them returns, one entry per publish, and before
// any subscriber can see them.
func TestOffPathEventsOnTimeline(t *testing.T) {
	t.Run("stall", func(t *testing.T) {
		d := domain.NewSpace(t)
		startOn(t, d, "pda1", "a1", "a2")
		on := d.SessionsOn("pda1")
		if len(on) != 2 {
			t.Fatalf("sessions on pda1 = %v, want both", on)
		}
		in, err := faultinject.NewInjector(d, faultinject.Schedule{Faults: []faultinject.Fault{
			{Kind: faultinject.Stall, Device: "pda1", Factor: 0.9},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := in.Step(); err != nil {
			t.Fatal(err)
		}
		for _, sid := range on {
			if n := events(d, sid, eventbus.TopicResourceChanged); n != 1 {
				t.Errorf("%s: %d resource.changed entries when the stall returned, want 1", sid, n)
			}
		}
	})

	t.Run("give-up", func(t *testing.T) {
		d := domain.NewSpace(t)
		sup, err := core.NewSupervisor(d.Configurator, core.SupervisorOptions{Bus: d.Bus, BaseBackoff: time.Millisecond, MaxAttempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer sup.Stop()
		startOn(t, d, "pda1", "a1")
		if err := d.FailDevice("pda1"); err != nil {
			t.Fatal(err)
		}
		if !sup.AwaitIdle(5 * time.Second) {
			t.Fatal("supervisor did not settle")
		}
		if sup.Stats().Lost != 1 {
			t.Fatalf("supervisor stats = %+v, want the session given up", sup.Stats())
		}
		if n := events(d, "a1", eventbus.TopicUserNotification); n != 1 {
			t.Errorf("%d user.notification entries when the supervisor settled, want 1", n)
		}
	})

	t.Run("identical", func(t *testing.T) {
		d := domain.NewSpace(t)
		startOn(t, d, "pda1", "a1")
		// The space has no other resource.changed subscriber, so the bus's
		// coalesced counter is this round's subscriber's.
		coalescedTotal := d.Metrics.Counter(metrics.EventsCoalesced)
		// Rounds of five identical publishes, each watched by a subscriber
		// that reads the timeline the instant an event reaches it: every
		// publish it has seen, as a delivered event or merged into one,
		// must already be there.
		const rounds, publishes = 30, 5
		for round := 0; round < rounds; round++ {
			before := events(d, "a1", eventbus.TopicResourceChanged)
			coalescedBefore := coalescedTotal.Value()
			sub, err := d.Bus.SubscribeLossless(eventbus.TopicResourceChanged)
			if err != nil {
				t.Fatal(err)
			}
			delivered := make(chan int)
			go func() {
				defer close(delivered)
				n := 0
				for range sub.C() {
					n++
					coalesced := int(coalescedTotal.Value() - coalescedBefore)
					if got := events(d, "a1", eventbus.TopicResourceChanged) - before; got < n+coalesced {
						t.Errorf("round %d: the subscriber has seen %d events and %d merged publishes, the timeline %d",
							round, n, coalesced, got)
					}
					delivered <- n
				}
			}()
			for i := 0; i < publishes; i++ {
				d.Bus.Publish(eventbus.TopicResourceChanged, "pda1")
			}
			// Publish counts a merge before it returns, so the deliveries
			// still due are known now.
			want := publishes - int(coalescedTotal.Value()-coalescedBefore)
			deadline := time.After(5 * time.Second)
			for n := 0; n < want; {
				select {
				case n = <-delivered:
				case <-deadline:
					t.Fatalf("round %d: %d of %d events delivered", round, n, want)
				}
			}
			sub.Cancel()
			for range delivered {
			}
			if n := events(d, "a1", eventbus.TopicResourceChanged) - before; n != publishes {
				t.Fatalf("round %d: %d identical publishes left %d entries", round, publishes, n)
			}
		}
	})
}
