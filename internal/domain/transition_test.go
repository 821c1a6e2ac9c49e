package domain

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/graph"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/resource"
	"ubiqos/internal/runtime"
)

// The transition property drives the lab space through generated
// sequences of starts, stops, switches (to any device, down ones
// included), device failures and rejoins, link degradations and
// restorations, and recovery steps that reconfigure every broken session.
// A model that holds only each live session's graph and placement checks
// the space after every step.

var (
	labDevices = []device.ID{"desktop1", "desktop2", "pda1"}
	labLinks   = [][2]device.ID{{"desktop1", "desktop2"}, {"desktop1", "pda1"}, {"desktop2", "pda1"}}
)

// modelSession is what the last successful transition left a session
// with.
type modelSession struct {
	graph     *graph.Graph
	placement map[graph.NodeID]device.ID
	portal    device.ID
	cost      float64
	runtime   *runtime.Session
}

func modelOf(a *core.ActiveSession) modelSession {
	return modelSession{graph: a.Graph, placement: a.Placement, portal: a.ClientDevice, cost: a.Cost, runtime: a.Runtime}
}

// demands sums a session's cross-device edge throughput per link, keyed
// smaller ID first.
func (s modelSession) demands() map[[2]device.ID]float64 {
	out := map[[2]device.ID]float64{}
	for _, e := range s.graph.Edges() {
		a, b := s.placement[e.From], s.placement[e.To]
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		out[[2]device.ID{a, b}] += e.ThroughputMbps
	}
	return out
}

// newTransitionSpace is the lab space with a session state that crosses
// between portals in no time: the property checks what a transition
// leaves behind, not how long the handoff takes.
func newTransitionSpace(t *testing.T) *Domain {
	d := newSpaceWith(t, Options{Scale: testScale, StateSizeFor: func(device.ID) float64 { return 0 }})
	d.Capacity.Stop()
	return d
}

// transitionRequest is the audio session the property starts on a portal.
func transitionRequest(id string, portal device.ID) core.Request {
	return core.Request{SessionID: id, App: audioApp(), ClientDevice: portal,
		UserQoS: qos.V(qos.P(qos.DimFrameRate, qos.Range(30, 44)))}
}

// checkAccounting holds every device's Committed and every link's
// Reserved to the sums over the model's sessions.
func checkAccounting(d *Domain, model map[string]modelSession) error {
	const eps = 1e-6
	loads := map[device.ID]resource.Vector{}
	demands := map[[2]device.ID]float64{}
	for _, s := range model {
		for _, n := range s.graph.Nodes() {
			dev := s.placement[n.ID]
			if loads[dev] == nil {
				loads[dev] = make(resource.Vector, len(n.Resources))
			}
			loads[dev].AddInPlace(n.Resources)
		}
		for pair, mbps := range s.demands() {
			demands[pair] += mbps
		}
	}
	for _, dev := range d.Devices.All() {
		got, want := dev.Committed(), loads[dev.ID]
		if want == nil {
			want = make(resource.Vector, len(got))
		}
		for k := range got {
			if math.Abs(got[k]-want[k]) > eps {
				return fmt.Errorf("%s has %s committed, the live sessions hold %s", dev.ID, got, want)
			}
		}
	}
	for _, l := range d.Links.Entries() {
		if want := demands[[2]device.ID{l.A, l.B}]; math.Abs(l.ReservedMbps-want) > eps {
			return fmt.Errorf("link %s-%s has %g Mbps reserved, the live sessions %g", l.A, l.B, l.ReservedMbps, want)
		}
	}
	return nil
}

// checkReconciled holds Σ scorecard Live to the configurator's sessions,
// and Σ Lost to lost; the checkpoint store must be empty.
func checkReconciled(d *Domain, lost int64) error {
	var live, scLost int64
	for _, sc := range d.Flight.Scorecards(0) {
		live, scLost = live+sc.Live, scLost+sc.Lost
	}
	if n := d.Configurator.Sessions(); live != int64(n) || scLost != lost {
		return fmt.Errorf("scorecards hold %d live and %d lost sessions; the configurator holds %d, and %d were given up on", live, scLost, n, lost)
	}
	if n := d.Checkpoints.Len(); n != 0 {
		return fmt.Errorf("%d checkpoints in the store", n)
	}
	return nil
}

// broken reports whether a session's placement is no longer supportable:
// a host is down, or a link it uses is reserved past its capacity.
func broken(d *Domain, s modelSession) bool {
	for _, dev := range s.placement {
		if !d.Devices.Get(dev).Up() {
			return true
		}
	}
	for pair := range s.demands() {
		if d.Links.Reserved(pair[0], pair[1]) > d.Links.Capacity(pair[0], pair[1])+1e-9 {
			return true
		}
	}
	return false
}

// advancing waits for a runtime's position to move past where it is now.
func advancing(rt *runtime.Session) bool {
	from := rt.Position()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		if rt.Position() > from {
			return true
		}
	}
	return false
}

// drain stops every session, restores every link and rejoins every device.
func drain(d *Domain, degraded map[[2]device.ID]netsim.Link) error {
	for _, id := range d.Configurator.SessionIDs() {
		if err := d.StopApp(id); err != nil {
			return err
		}
	}
	for pair, link := range degraded {
		if err := d.RestoreLink(pair[0], pair[1], link); err != nil {
			return err
		}
	}
	for _, dev := range labDevices {
		if err := d.RejoinDevice(dev); err != nil {
			return err
		}
	}
	return nil
}

// TestTransitionProperty runs 500 generated sequences on one lab space.
// After every step each device's Committed and each link's Reserved equal
// the model's sums, Σ scorecard Live equals Sessions(), and the checkpoint
// store is empty. A failed switch or recovery leaves the session's
// placement, portal, cost and runtime as they were, and every session's
// runtime still advances at the end of its sequence. After draining,
// every device and link is at baseline.
func TestTransitionProperty(t *testing.T) {
	d := newTransitionSpace(t)
	for seq := 0; seq < 500; seq++ {
		if err := transitionSequence(d, seq); err != nil {
			t.Fatal(err)
		}
	}
}

func transitionSequence(d *Domain, seq int) error {
	rng := rand.New(rand.NewSource(int64(seq)))
	model := map[string]modelSession{}
	degraded := map[[2]device.ID]netsim.Link{}
	var trail []string
	fail := func(format string, args ...any) error {
		return fmt.Errorf("sequence %d, after %s: %s", seq, strings.Join(trail, "; "), fmt.Sprintf(format, args...))
	}
	// unchanged checks that a failed switch or recovery left the session as
	// its last successful transition did.
	unchanged := func(id string, cause error) error {
		a, m := d.Configurator.Session(id), model[id]
		if a == nil || a.Runtime != m.runtime || a.ClientDevice != m.portal || a.Cost != m.cost || !maps.Equal(a.Placement, m.placement) {
			return fail("the failed transition (%v) changed %s", cause, id)
		}
		return nil
	}
	started := 0
	for step, steps := 0, 6+rng.Intn(10); step < steps; step++ {
		live := make([]string, 0, len(model))
		for id := range model {
			live = append(live, id)
		}
		sort.Strings(live)
		op := rng.Intn(9)
		if len(live) == 0 && op >= 2 && op <= 4 {
			op = 0
		}
		dev := labDevices[rng.Intn(len(labDevices))]
		switch op {
		case 0, 1:
			id := fmt.Sprintf("q%d-%d", seq, started)
			started++
			trail = append(trail, "start "+id+" on "+string(dev))
			if a, err := d.StartApp(transitionRequest(id, dev)); err == nil {
				model[id] = modelOf(a)
			} else if d.Configurator.Session(id) != nil {
				return fail("the failed start (%v) left %s live", err, id)
			}
		case 2:
			id := live[rng.Intn(len(live))]
			trail = append(trail, "stop "+id)
			if err := d.StopApp(id); err != nil {
				return fail("stop: %v", err)
			}
			delete(model, id)
		case 3, 4:
			id := live[rng.Intn(len(live))]
			trail = append(trail, "switch "+id+" to "+string(dev))
			a, err := d.SwitchDevice(id, dev)
			if err != nil {
				if err := unchanged(id, err); err != nil {
					return err
				}
				break
			}
			if a.ClientDevice != dev {
				return fail("the switch left %s on %s", id, a.ClientDevice)
			}
			model[id] = modelOf(a)
		case 5:
			trail = append(trail, "fail "+string(dev))
			if err := d.FailDevice(dev); err != nil {
				return fail("%v", err)
			}
		case 6:
			trail = append(trail, "rejoin "+string(dev))
			if err := d.RejoinDevice(dev); err != nil {
				return fail("%v", err)
			}
		case 7:
			pair := labLinks[rng.Intn(len(labLinks))]
			if link, ok := degraded[pair]; ok {
				trail = append(trail, fmt.Sprintf("restore %s-%s", pair[0], pair[1]))
				if err := d.RestoreLink(pair[0], pair[1], link); err != nil {
					return fail("%v", err)
				}
				delete(degraded, pair)
				break
			}
			factor := 0.05 + 0.45*rng.Float64()
			trail = append(trail, fmt.Sprintf("degrade %s-%s ×%.2f", pair[0], pair[1], factor))
			link, err := d.DegradeLink(pair[0], pair[1], factor)
			if err != nil {
				return fail("%v", err)
			}
			degraded[pair] = link
		case 8:
			trail = append(trail, "recover")
			for _, id := range live {
				if !broken(d, model[id]) {
					continue
				}
				a, err := d.Configurator.Reconfigure(d.Configurator.Session(id).Request)
				if err != nil {
					if err := unchanged(id, err); err != nil {
						return err
					}
					continue
				}
				model[id] = modelOf(a)
			}
		}
		if err := checkAccounting(d, model); err != nil {
			return fail("%v", err)
		}
		if err := checkReconciled(d, 0); err != nil {
			return fail("%v", err)
		}
		if n := d.Configurator.Sessions(); n != len(model) {
			return fail("the configurator holds %d sessions, the model %d", n, len(model))
		}
	}
	for id, s := range model {
		if !advancing(s.runtime) {
			return fail("%s's runtime stopped advancing", id)
		}
	}
	if err := drain(d, degraded); err != nil {
		return fail("drain: %v", err)
	}
	if err := checkAccounting(d, nil); err != nil {
		return fail("after draining: %v", err)
	}
	return nil
}

// TestTransitionsConcurrent runs rounds of 2–4 goroutines, each starting,
// stopping and switching its own sessions and failing and rejoining the
// shared devices, while the recovery supervisor reconfigures what the
// failures break. At each round's quiescent point no session a goroutine
// stopped is live, the scorecards reconcile with the configurator and the
// supervisor, and the accounting equals the sums over the live sessions;
// after draining, every device and link is at baseline.
func TestTransitionsConcurrent(t *testing.T) {
	d := newTransitionSpace(t)
	sup, err := core.NewSupervisor(d.Configurator, core.SupervisorOptions{
		Bus: d.Bus, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
		Deadline: 20 * time.Millisecond, MaxAttempts: 3, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Stop()
	for round := 0; round < 12; round++ {
		workers := 2 + round%3
		stopped := make([][]string, workers)
		errs := make(chan error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := transitionWorker(d, round, w, &stopped[w]); err != nil {
					errs <- err
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for _, dev := range labDevices {
			if err := d.RejoinDevice(dev); err != nil {
				t.Fatal(err)
			}
		}
		if !sup.AwaitIdle(10 * time.Second) {
			t.Fatalf("round %d: the supervisor did not settle", round)
		}
		for _, ids := range stopped {
			for _, id := range ids {
				if d.Configurator.Session(id) != nil {
					t.Fatalf("round %d: %s is live after its stop succeeded", round, id)
				}
			}
		}
		if err := checkReconciled(d, sup.Stats().Lost); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		model := map[string]modelSession{}
		for _, id := range d.Configurator.SessionIDs() {
			model[id] = modelOf(d.Configurator.Session(id))
		}
		if err := checkAccounting(d, model); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := drain(d, nil); err != nil {
			t.Fatalf("round %d: drain: %v", round, err)
		}
		if !sup.AwaitIdle(10 * time.Second) {
			t.Fatalf("round %d: the supervisor did not settle after draining", round)
		}
		if err := checkAccounting(d, nil); err != nil {
			t.Fatalf("round %d, after draining: %v", round, err)
		}
	}
}

// transitionWorker is one goroutine of a concurrent round. It appends to
// stopped each session whose stop succeeded.
func transitionWorker(d *Domain, round, w int, stopped *[]string) error {
	rng := rand.New(rand.NewSource(int64(round*8 + w)))
	var mine []string
	for step, started := 0, 0; step < 16; step++ {
		dev := labDevices[rng.Intn(len(labDevices))]
		op := rng.Intn(6)
		if len(mine) == 0 && op <= 2 {
			op = 0
		}
		switch op {
		case 0:
			id := fmt.Sprintf("c%d-%d-%d", round, w, started)
			started++
			if _, err := d.StartApp(transitionRequest(id, dev)); err == nil {
				mine = append(mine, id)
			}
		case 1, 2:
			i := rng.Intn(len(mine))
			if op == 2 {
				// Crash the host of the session's server first, so the
				// stop may land while the supervisor is recovering it.
				if s := d.Configurator.Session(mine[i]); s != nil {
					if err := d.FailDevice(s.Placement["server"]); err != nil {
						return err
					}
					time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
				}
			}
			switch err := d.StopApp(mine[i]); {
			case err == nil:
				*stopped = append(*stopped, mine[i])
				mine = slices.Delete(mine, i, i+1)
			case strings.Contains(err.Error(), "already in a transition"):
				// The supervisor is recovering it: stop it later.
			case d.Configurator.Session(mine[i]) == nil:
				mine = slices.Delete(mine, i, i+1) // the supervisor gave up on it
			default:
				return err
			}
		case 3:
			if len(mine) > 0 {
				_, _ = d.SwitchDevice(mine[rng.Intn(len(mine))], dev)
			}
		case 4:
			if err := d.FailDevice(dev); err != nil {
				return err
			}
		case 5:
			if err := d.RejoinDevice(dev); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestFailedSwitchKeepsSessionPlaying: a switch to a crashed portal fails
// and leaves the session playing where it was. It stays in the registry
// with its runtime advancing and its reservations held, nothing is left
// in the checkpoint store, and its scorecard still counts it live.
func TestFailedSwitchKeepsSessionPlaying(t *testing.T) {
	d := newSpace(t)
	active, err := d.StartApp(transitionRequest("s1", "desktop1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.FailDevice("pda1"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.SwitchDevice("s1", "pda1"); err == nil || !strings.Contains(err.Error(), "unavailable device pda1") {
		t.Fatalf("switch to the crashed PDA: err = %v, want pinned to an unavailable device", err)
	}
	if d.Configurator.Session("s1") != active || d.Configurator.Sessions() != 1 {
		t.Fatal("the failed switch took the session out of the registry")
	}
	if !advancing(active.Runtime) {
		t.Error("the session stopped playing")
	}
	if err := checkAccounting(d, map[string]modelSession{"s1": modelOf(active)}); err != nil {
		t.Error(err)
	}
	if err := checkReconciled(d, 0); err != nil {
		t.Error(err)
	}
}
