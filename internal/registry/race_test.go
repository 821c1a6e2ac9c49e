package registry

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// atomicClock is a thread-safe fake clock for the concurrency tests; the
// plain fakeClock is fine for single-goroutine lease tests but would race
// once sweepers and renewers read it concurrently.
type atomicClock struct{ ns atomic.Int64 }

func newAtomicClock() *atomicClock {
	c := &atomicClock{}
	c.ns.Store(time.Unix(1000, 0).UnixNano())
	return c
}

func (c *atomicClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *atomicClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestLeasedRegistryConcurrent drives registration, renewal, sweeping, and
// discovery from concurrent goroutines; run with -race. The invariant
// checked at the end is that a final sweep after expiry leaves the
// registry empty — no lease survives without its instance or vice versa.
func TestLeasedRegistryConcurrent(t *testing.T) {
	clock := newAtomicClock()
	r := NewLeased(clock.now)
	const (
		goroutines = 8
		perG       = 40
		ttl        = 10 * time.Second
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				name := fmt.Sprintf("svc-%d-%d", g, i)
				if err := r.RegisterWithTTL(inst(name, "player"), ttl); err != nil {
					t.Errorf("register %s: %v", name, err)
					return
				}
				switch i % 4 {
				case 0:
					r.Renew(name, ttl)
				case 1:
					r.Find(specOf("player"))
				case 2:
					clock.advance(time.Millisecond)
					r.Sweep()
				case 3:
					r.Unregister(name)
				}
			}
		}(g)
	}
	wg.Wait()

	// Everything still leased expires after a full TTL with no renewals.
	clock.advance(ttl + time.Second)
	r.Sweep()
	if n := r.Len(); n != 0 {
		t.Errorf("registry holds %d instances after final sweep, want 0", n)
	}
	if len(r.Find(specOf("player"))) != 0 {
		t.Error("discovery returned instances after final sweep")
	}
}

// TestLeaseRenewVsSweepRace pins the renew/expire boundary: a renewer and
// a sweeper contend over one instance while the clock advances. Whatever
// the interleaving, discovery must agree with registration — Find never
// returns a dead instance and never misses a live one.
func TestLeaseRenewVsSweepRace(t *testing.T) {
	clock := newAtomicClock()
	r := NewLeased(clock.now)
	const ttl = 5 * time.Second
	if err := r.RegisterWithTTL(inst("hot", "player"), ttl); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var renews atomic.Int64 // completed Renew calls
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // renewer keeps the lease alive
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Renew("hot", ttl)
				renews.Add(1)
				// Yield, or this loop re-takes the registry mutex ahead
				// of the parked sweeper until sync.Mutex's 1 ms
				// starvation hand-off, once per sweeper step.
				runtime.Gosched()
			}
		}
	}()
	go func() { // sweeper advances time in sub-TTL steps and collects
		defer wg.Done()
		for i := 0; i < 200; i++ {
			// Total advance equals one TTL, so the instance can only
			// expire if no Renew lands between the first step and the
			// last. Waiting for a Renew to complete since the previous
			// step is the handshake that guarantees one does, whatever
			// the scheduler and GOMAXPROCS make of the two loops.
			for seen := renews.Load(); renews.Load() == seen; {
				runtime.Gosched()
			}
			clock.advance(ttl / 200)
			r.Sweep()
			if got, want := r.Get("hot") != nil, len(r.Find(specOf("player"))) > 0; got != want {
				t.Errorf("registration (%v) and discovery (%v) disagree", got, want)
			}
		}
		close(stop)
	}()
	wg.Wait()
	if r.Get("hot") == nil {
		t.Error("renewed instance expired despite active renewer")
	}
}

// TestFindVsReplaceByNameRace: one writer keeps re-registering the same
// name under alternating types — each replacement moves the instance from
// one by-type list to the other — while readers run discovery for both
// types; run with -race. Whatever the interleaving, a lookup sees
// instances of the type it asked for only, the moving instance at most
// once, and its stationary neighbour always.
func TestFindVsReplaceByNameRace(t *testing.T) {
	r := New()
	r.MustRegister(inst("still", "player"))
	r.MustRegister(inst("mover", "player"))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for reader := 0; reader < 3; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, typ := range []string{"player", "recorder"} {
					var movers int
					var still bool
					for _, m := range r.Find(specOf(typ)) {
						if m.Instance.Type != typ {
							t.Errorf("Find(%s) returned %s of type %s", typ, m.Instance.Name, m.Instance.Type)
						}
						switch m.Instance.Name {
						case "mover":
							movers++
						case "still":
							still = true
						}
					}
					if movers > 1 || still != (typ == "player") {
						t.Errorf("Find(%s): mover %d times, still %v", typ, movers, still)
					}
					r.Candidates(specOf(typ))
				}
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		r.MustRegister(inst("mover", []string{"recorder", "player"}[i%2]))
		if i%64 == 0 {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
	if got := names(r.Find(specOf("player"))); len(got) != 2 {
		t.Errorf("players at the end = %v, want mover and still", got)
	}
	if got := r.Find(specOf("recorder")); len(got) != 0 {
		t.Errorf("recorders at the end = %v, want none", names(got))
	}
}
