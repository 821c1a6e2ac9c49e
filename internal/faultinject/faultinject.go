// Package faultinject produces deterministic, seedable schedules of
// runtime faults — device crashes and rejoins, link-bandwidth
// degradation, service-discovery flaps, and slow-transcoder stalls — and
// injects them into a running domain. It exists to exercise the recovery
// supervisor the way the paper's testbed exercised the configuration
// protocol ("whenever some significant changes are detected during
// runtime"): every fault is announced through the ordinary event service,
// so recovery happens through the same compose→distribute path as any
// other runtime change. Schedules are pure data derived from a seed, so a
// chaos run is exactly reproducible.
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"ubiqos/internal/device"
	"ubiqos/internal/domain"
	"ubiqos/internal/eventbus"
	"ubiqos/internal/metrics"
	"ubiqos/internal/netsim"
	"ubiqos/internal/obslog"
	"ubiqos/internal/resource"
)

// Kind classifies one injected fault.
type Kind string

// The fault kinds.
const (
	// DeviceCrash marks a device down (publish-only: the supervisor recovers).
	DeviceCrash Kind = "device-crash"
	// DeviceRejoin brings a crashed device back.
	DeviceRejoin Kind = "device-rejoin"
	// LinkDegrade multiplies a link's bandwidth by Factor, keeping
	// existing reservations (possibly overcommitting the link).
	LinkDegrade Kind = "link-degrade"
	// LinkRestore reinstates the bandwidth a LinkDegrade removed.
	LinkRestore Kind = "link-restore"
	// DiscoveryFlap unregisters a service instance from the discovery
	// registry — the paper's failed-discovery path.
	DiscoveryFlap Kind = "discovery-flap"
	// ServiceRestore re-registers a flapped instance.
	ServiceRestore Kind = "service-restore"
	// Stall shrinks a device's capacity by Factor — a slow transcoder or
	// an overloaded host — and announces the resource fluctuation.
	Stall Kind = "stall"
	// StallClear restores the stalled device's original capacity.
	StallClear Kind = "stall-clear"
)

// Fault is one scheduled fault.
type Fault struct {
	// At is the offset from the start of the run.
	At   time.Duration `json:"at"`
	Kind Kind          `json:"kind"`
	// Device is the target of crash/rejoin/stall faults.
	Device device.ID `json:"device,omitempty"`
	// LinkA, LinkB name the endpoints of link faults.
	LinkA device.ID `json:"linkA,omitempty"`
	LinkB device.ID `json:"linkB,omitempty"`
	// Factor scales bandwidth (LinkDegrade) or capacity (Stall).
	Factor float64 `json:"factor,omitempty"`
	// Service is the instance name of discovery faults.
	Service string `json:"service,omitempty"`
}

// Schedule is a time-ordered fault sequence.
type Schedule struct {
	Seed   int64   `json:"seed"`
	Faults []Fault `json:"faults"`
}

// Params steers deterministic schedule generation.
type Params struct {
	// Seed makes the schedule reproducible.
	Seed int64
	// Duration is the window faults are spread over; injection times fall
	// in [0.1·Duration, 0.6·Duration] so recovery has time to finish.
	Duration time.Duration
	// Crashes, Degrades, Flaps, Stalls count the faults of each kind.
	Crashes  int
	Degrades int
	Flaps    int
	Stalls   int
	// RecoverAfter is the delay before each fault's paired undo (rejoin,
	// restore, clear); zero disables the undos.
	RecoverAfter time.Duration
	// Devices are the crash/stall candidates; Protected members (e.g.
	// portal devices) are never crashed or stalled.
	Devices   []device.ID
	Protected map[device.ID]bool
	// Links are the degradable endpoint pairs.
	Links [][2]device.ID
	// Services are the discovery-flap candidate instance names.
	Services []string
	// DegradeFactor scales degraded links (default 0.1); StallFactor
	// scales stalled devices (default 0.5).
	DegradeFactor float64
	StallFactor   float64
}

// SetTargets fills the candidate lists from a live domain: every device,
// with the PDA-class ones protected (they are the portals users hold,
// and portal loss is unrecoverable by design: the supervisor gives up at
// once rather than exercising recovery), every link, and every
// registered service instance. Each list is sorted, so the same seed
// always yields the same schedule on the same space.
func (p *Params) SetTargets(dom *domain.Domain) {
	p.Devices, p.Links, p.Services = nil, nil, nil
	p.Protected = map[device.ID]bool{}
	for _, d := range dom.Devices.All() {
		p.Devices = append(p.Devices, d.ID)
		if d.Class == device.ClassPDA {
			p.Protected[d.ID] = true
		}
	}
	for pair := range dom.Links.Snapshot() {
		p.Links = append(p.Links, pair)
	}
	sort.Slice(p.Links, func(i, j int) bool {
		if p.Links[i][0] != p.Links[j][0] {
			return p.Links[i][0] < p.Links[j][0]
		}
		return p.Links[i][1] < p.Links[j][1]
	})
	for _, inst := range dom.Registry.All() {
		p.Services = append(p.Services, inst.Name)
	}
}

// Generate derives a schedule from the parameters. The same parameters
// always yield the same schedule.
func Generate(p Params) (Schedule, error) {
	if p.Duration <= 0 {
		return Schedule{}, fmt.Errorf("faultinject: non-positive duration")
	}
	if p.DegradeFactor <= 0 || p.DegradeFactor > 1 {
		p.DegradeFactor = 0.1
	}
	if p.StallFactor <= 0 || p.StallFactor > 1 {
		p.StallFactor = 0.5
	}
	var victims []device.ID
	for _, d := range p.Devices {
		if !p.Protected[d] {
			victims = append(victims, d)
		}
	}
	if (p.Crashes > 0 || p.Stalls > 0) && len(victims) == 0 {
		return Schedule{}, fmt.Errorf("faultinject: no unprotected devices to fault")
	}
	if p.Crashes > len(victims) {
		return Schedule{}, fmt.Errorf("faultinject: %d crashes requested but only %d unprotected devices", p.Crashes, len(victims))
	}
	if p.Degrades > 0 && len(p.Links) == 0 {
		return Schedule{}, fmt.Errorf("faultinject: degrades requested without links")
	}
	if p.Flaps > 0 && len(p.Services) == 0 {
		return Schedule{}, fmt.Errorf("faultinject: flaps requested without services")
	}

	rng := rand.New(rand.NewSource(p.Seed))
	at := func() time.Duration {
		lo := p.Duration / 10
		span := p.Duration*6/10 - lo
		return lo + time.Duration(rng.Int63n(int64(span)+1))
	}
	sched := Schedule{Seed: p.Seed}
	add := func(f Fault, undo Kind) {
		sched.Faults = append(sched.Faults, f)
		if p.RecoverAfter > 0 {
			u := f
			u.Kind = undo
			u.At = f.At + p.RecoverAfter
			sched.Faults = append(sched.Faults, u)
		}
	}

	// Crash distinct devices (a crashed device rejoining and crashing
	// again would make recovery accounting ambiguous).
	perm := rng.Perm(len(victims))
	for i := 0; i < p.Crashes; i++ {
		add(Fault{At: at(), Kind: DeviceCrash, Device: victims[perm[i]]}, DeviceRejoin)
	}
	for i := 0; i < p.Degrades; i++ {
		l := p.Links[rng.Intn(len(p.Links))]
		add(Fault{At: at(), Kind: LinkDegrade, LinkA: l[0], LinkB: l[1], Factor: p.DegradeFactor}, LinkRestore)
	}
	for i := 0; i < p.Flaps; i++ {
		add(Fault{At: at(), Kind: DiscoveryFlap, Service: p.Services[rng.Intn(len(p.Services))]}, ServiceRestore)
	}
	// Stalls avoid the crash victims so the two failure modes stay
	// distinguishable in the results.
	stallable := victims[p.Crashes:]
	if len(stallable) == 0 {
		stallable = victims
	}
	for i := 0; i < p.Stalls; i++ {
		add(Fault{At: at(), Kind: Stall, Device: victims[perm[len(perm)-1-i%len(stallable)]], Factor: p.StallFactor}, StallClear)
	}

	sort.SliceStable(sched.Faults, func(i, j int) bool { return sched.Faults[i].At < sched.Faults[j].At })
	return sched, nil
}

// Injector applies a schedule to a live domain, keeping the restore
// state (original links, capacities, unregistered instances) the paired
// undo faults need.
type Injector struct {
	dom   *domain.Domain
	sched Schedule
	next  int
	// start is the wall-clock instant of offset zero, set by the first Run.
	start time.Time

	prevLinks map[[2]device.ID]netsim.Link
	prevCaps  map[device.ID]resource.Vector
	flapped   map[string]func() error
}

// NewInjector binds a schedule to a domain.
func NewInjector(dom *domain.Domain, sched Schedule) (*Injector, error) {
	if dom == nil {
		return nil, fmt.Errorf("faultinject: nil domain")
	}
	return &Injector{
		dom:       dom,
		sched:     sched,
		prevLinks: make(map[[2]device.ID]netsim.Link),
		prevCaps:  make(map[device.ID]resource.Vector),
		flapped:   make(map[string]func() error),
	}, nil
}

// Apply injects a single fault now.
func (in *Injector) Apply(f Fault) error {
	// Attribute the fault before applying it: a crash migrates sessions
	// away, so the affected set must be captured while they still sit on
	// the target.
	affected := in.affectedSessions(f)
	// Mark the timelines before the fault takes effect too: once it has, a
	// fast supervisor can recover the session and log the outcome before
	// this goroutine runs again, and the outcome would precede its cause.
	// A fault that then fails to apply leaves the marker of the attempt.
	target := f.target()
	var detail map[string]any
	if f.Factor != 0 {
		detail = map[string]any{"factor": f.Factor}
	}
	for _, session := range affected {
		in.dom.Flight.RecordFault(session, string(f.Kind), target, detail)
	}
	var err error
	switch f.Kind {
	case DeviceCrash:
		err = in.dom.FailDevice(f.Device)
	case DeviceRejoin:
		err = in.dom.RejoinDevice(f.Device)
	case LinkDegrade:
		var prev netsim.Link
		prev, err = in.dom.DegradeLink(f.LinkA, f.LinkB, f.Factor)
		if err == nil {
			in.prevLinks[linkKey(f.LinkA, f.LinkB)] = prev
		}
	case LinkRestore:
		prev, ok := in.prevLinks[linkKey(f.LinkA, f.LinkB)]
		if !ok {
			return fmt.Errorf("faultinject: restore of never-degraded link %s-%s", f.LinkA, f.LinkB)
		}
		delete(in.prevLinks, linkKey(f.LinkA, f.LinkB))
		err = in.dom.RestoreLink(f.LinkA, f.LinkB, prev)
	case DiscoveryFlap:
		inst := in.dom.Registry.Get(f.Service)
		if inst == nil {
			return fmt.Errorf("faultinject: unknown service %q", f.Service)
		}
		in.dom.Registry.Unregister(f.Service)
		in.flapped[f.Service] = func() error { return in.dom.Registry.Register(inst) }
	case ServiceRestore:
		restore, ok := in.flapped[f.Service]
		if !ok {
			return fmt.Errorf("faultinject: restore of never-flapped service %q", f.Service)
		}
		delete(in.flapped, f.Service)
		err = restore()
	case Stall:
		err = in.stall(f)
	case StallClear:
		err = in.clearStall(f)
	default:
		return fmt.Errorf("faultinject: unknown fault kind %q", f.Kind)
	}
	if err == nil {
		if in.dom.Metrics != nil {
			in.dom.Metrics.Counter(metrics.FaultsInjected).Inc()
			in.dom.Metrics.Counter(metrics.WithLabel(metrics.FaultsInjected, "kind", string(f.Kind))).Inc()
		}
		in.dom.Log.Named("faultinject").Warn("fault injected",
			obslog.String("kind", string(f.Kind)),
			obslog.String("target", target),
			obslog.Int("sessionsAffected", int64(len(affected))))
	}
	return err
}

// affectedSessions resolves the sessions a fault concerns: the ones with
// components placed on the faulted device or on either endpoint of the
// faulted link. Discovery flaps target the registry, not placements, so
// they attribute to no session.
func (in *Injector) affectedSessions(f Fault) []string {
	switch f.Kind {
	case DeviceCrash, DeviceRejoin, Stall, StallClear:
		return in.dom.SessionsOn(f.Device)
	case LinkDegrade, LinkRestore:
		sessions := in.dom.SessionsOn(f.LinkA)
		seen := make(map[string]bool, len(sessions))
		for _, s := range sessions {
			seen[s] = true
		}
		for _, s := range in.dom.SessionsOn(f.LinkB) {
			if !seen[s] {
				sessions = append(sessions, s)
			}
		}
		return sessions
	}
	return nil
}

// target names what the fault acts on, for the flight timeline and the
// structured log.
func (f Fault) target() string {
	switch f.Kind {
	case LinkDegrade, LinkRestore:
		return string(f.LinkA) + "-" + string(f.LinkB)
	case DiscoveryFlap, ServiceRestore:
		return f.Service
	}
	return string(f.Device)
}

// stall shrinks the device's capacity to Factor× and announces the
// fluctuation; the supervisor re-places the sessions of a device the
// shrink overcommits.
func (in *Injector) stall(f Fault) error {
	dev := in.dom.Devices.Get(f.Device)
	if dev == nil {
		return fmt.Errorf("faultinject: unknown device %s", f.Device)
	}
	if _, stalled := in.prevCaps[f.Device]; stalled {
		return fmt.Errorf("faultinject: device %s already stalled", f.Device)
	}
	cap := dev.Capacity()
	if _, err := dev.Resize(cap.Scale(f.Factor)); err != nil {
		return err
	}
	in.prevCaps[f.Device] = cap
	in.dom.Bus.Publish(eventbus.TopicResourceChanged, string(f.Device))
	return nil
}

func (in *Injector) clearStall(f Fault) error {
	cap, ok := in.prevCaps[f.Device]
	if !ok {
		return fmt.Errorf("faultinject: clear of never-stalled device %s", f.Device)
	}
	delete(in.prevCaps, f.Device)
	dev := in.dom.Devices.Get(f.Device)
	if dev == nil {
		return fmt.Errorf("faultinject: unknown device %s", f.Device)
	}
	if _, err := dev.Resize(cap); err != nil {
		return err
	}
	in.dom.Bus.Publish(eventbus.TopicResourceChanged, string(f.Device))
	return nil
}

// Step applies the next scheduled fault, reporting it and whether one
// remained.
func (in *Injector) Step() (Fault, bool, error) {
	if in.next >= len(in.sched.Faults) {
		return Fault{}, false, nil
	}
	f := in.sched.Faults[in.next]
	in.next++
	return f, true, in.Apply(f)
}

// Run injects the schedule's remaining faults that fall before the
// offset until (zero: the whole schedule), each at its offset scaled by
// scale (the domain's emulation time scale) from the first Run's start,
// so a later Run resumes on the same clock; an overdue fault is injected
// at once. A closed stop channel aborts between faults. Injection errors
// end the run.
func (in *Injector) Run(scale float64, until time.Duration, stop <-chan struct{}) error {
	if scale <= 0 {
		return fmt.Errorf("faultinject: non-positive scale")
	}
	if in.start.IsZero() {
		in.start = time.Now()
	}
	for {
		if in.next >= len(in.sched.Faults) || (until > 0 && in.sched.Faults[in.next].At >= until) {
			return nil
		}
		due := in.start.Add(time.Duration(float64(in.sched.Faults[in.next].At) * scale))
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-stop:
				return nil
			}
		}
		if _, _, err := in.Step(); err != nil {
			return err
		}
	}
}

func linkKey(a, b device.ID) [2]device.ID {
	if a > b {
		a, b = b, a
	}
	return [2]device.ID{a, b}
}

// ParseSpec parses the -chaos flag syntax: comma-separated key=value
// pairs, e.g. "seed=7,crashes=2,degrades=1,flaps=1,stalls=1,window=30s,
// recover=10s". Unknown keys fail; counts and targets not present default
// to zero/empty (SetTargets fills them from the live domain).
func ParseSpec(spec string) (Params, error) {
	p := Params{Duration: 30 * time.Second, RecoverAfter: 10 * time.Second}
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(field), "=", 2)
		if len(kv) != 2 {
			return Params{}, fmt.Errorf("faultinject: malformed spec field %q", field)
		}
		key, val := kv[0], kv[1]
		var err error
		switch key {
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		case "crashes":
			p.Crashes, err = strconv.Atoi(val)
		case "degrades":
			p.Degrades, err = strconv.Atoi(val)
		case "flaps":
			p.Flaps, err = strconv.Atoi(val)
		case "stalls":
			p.Stalls, err = strconv.Atoi(val)
		case "window":
			p.Duration, err = time.ParseDuration(val)
		case "recover":
			p.RecoverAfter, err = time.ParseDuration(val)
		case "degrade-factor":
			p.DegradeFactor, err = strconv.ParseFloat(val, 64)
		case "stall-factor":
			p.StallFactor, err = strconv.ParseFloat(val, 64)
		default:
			return Params{}, fmt.Errorf("faultinject: unknown spec key %q", key)
		}
		if err != nil {
			return Params{}, fmt.Errorf("faultinject: bad value for %q: %v", key, err)
		}
	}
	return p, nil
}
