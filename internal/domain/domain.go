// Package domain implements the Gaia-style domain server (paper §1): the
// smart space groups devices into domains, and each domain runs one
// domain server providing the key infrastructure services for the entire
// domain space — service discovery, the event service, the component
// repository, checkpointing, profiling, and the service configuration
// model itself — "in the same way as today's operating systems do for a
// single desktop."
package domain

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ubiqos/internal/admission"
	"ubiqos/internal/capacity"
	"ubiqos/internal/checkpoint"
	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/distributor"
	"ubiqos/internal/eventbus"
	"ubiqos/internal/explain"
	"ubiqos/internal/flight"
	"ubiqos/internal/incident"
	"ubiqos/internal/ledger"
	"ubiqos/internal/metrics"
	"ubiqos/internal/netsim"
	"ubiqos/internal/obslog"
	"ubiqos/internal/profiler"
	"ubiqos/internal/registry"
	"ubiqos/internal/repository"
	"ubiqos/internal/resource"
	"ubiqos/internal/runtime"
	"ubiqos/internal/trace"
)

// traceCapacity bounds the per-domain ring of finished configuration
// traces.
const traceCapacity = 128

// Options configures a new domain.
type Options struct {
	// Scale is the emulation time scale (1 = real time).
	Scale float64
	// Weights are the cost-aggregation significance weights; default: 0.3
	// memory, 0.3 CPU, 0.4 network.
	Weights resource.Weights
	// StateSizeFor sizes the checkpoint by the portal device it is taken
	// on (default: core's fixed session state size).
	StateSizeFor func(from device.ID) float64
	// Place overrides the placement algorithm (default: the paper's
	// greedy heuristic).
	Place core.PlaceFunc
	// SampleInterval is the capacity observatory's sampling period (0
	// selects capacity.DefaultInterval).
	SampleInterval time.Duration
	// SaturationThresholds tunes the saturation analyzer (zero value
	// selects capacity.DefaultThresholds).
	SaturationThresholds capacity.Thresholds
}

// Domain is one smart-space domain and its domain server.
type Domain struct {
	Name string

	Registry    *registry.Registry
	Bus         *eventbus.Bus
	Devices     *device.Table
	Links       *device.Links
	Net         *netsim.Network
	Repo        *repository.Repository
	Checkpoints *checkpoint.Store
	Profiler    *profiler.Profiler
	Metrics     *metrics.Registry
	Tracer      *trace.Tracer
	// Flight is the session store, one bounded slot per session, and its
	// three views: the flight timeline (session-stamped log records as a
	// sink of Log, finished trace summaries, control-plane events, and
	// fault-injection markers), the decision provenance (one explain
	// record per configure/reconfigure/recover action and recovery-ladder
	// step), and the QoS outcome ledger (per-session delivered-vs-
	// requested accounting folded into the per-class scorecards behind
	// /ledger, /scorecard, and `qosctl report`). Every writer writes it on
	// its own goroutine: the observer one call per report, and the bus
	// each event as it is published.
	Flight *flight.Recorder
	// Log is the domain's structured logger. It writes into Flight by
	// default; the daemon attaches an os.Stderr sink (and any other) with
	// Log.AddSink.
	Log *obslog.Logger
	// SLO evaluates the stock objectives (metrics.DefaultObjectives) over
	// the domain's registry for the /slo surface.
	SLO          *metrics.SLO
	Composer     *composer.Composer
	Configurator *core.Configurator
	// PlanCache memoizes solved placements by problem signature.
	PlanCache *distributor.PlanCache
	// Capacity is the capacity observatory: on-daemon time series sampled
	// on a ticker, feeding the /timeseries surface and the saturation
	// analyzer behind /saturation and `qosctl top`.
	Capacity *capacity.Observatory
	// Admission is the saturation-aware admission gate (nil until
	// EnableAdmissionGate).
	Admission *admission.Gate
	// Incidents is the incident correlation engine: it fuses SLO burn,
	// saturation, fault, admission, and ledger signals into
	// operator-grade incidents with evidence bundles and postmortems.
	Incidents *incident.Engine

	saturation *capacity.Analyzer
	repMu      sync.Mutex
	lastReport capacity.Report
	// classesSeen remembers every class the sampler has published, so a
	// class whose sessions all ended still gets its gauge zeroed.
	classesSeen map[string]bool

	// classMeters memoizes the per-class meters (see classMeter).
	metersMu    sync.Mutex
	classMeters map[[2]string]*metrics.Meter
}

// New builds a domain with all infrastructure services wired together.
func New(name string, opts Options) (*Domain, error) {
	if name == "" {
		return nil, fmt.Errorf("domain: empty name")
	}
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	if opts.Weights == nil {
		w, err := resource.NewWeights(0.3, 0.3, 0.4)
		if err != nil {
			return nil, err
		}
		opts.Weights = w
	}
	if err := opts.Weights.Validate(); err != nil {
		return nil, err
	}

	d := &Domain{
		Name:        name,
		Registry:    registry.New(),
		Bus:         eventbus.New(),
		Devices:     device.NewTable(),
		Links:       device.NewLinks(),
		Checkpoints: checkpoint.NewStore(),
		Profiler:    profiler.MustNew(profiler.DefaultAlpha),
		Metrics:     metrics.NewRegistry(),
		Tracer:      trace.NewTracer(traceCapacity),
		classMeters: make(map[[2]string]*metrics.Meter),
	}
	d.Flight = flight.New(ledger.Options{Metrics: d.Metrics})
	d.Log = obslog.New(obslog.LevelDebug, d.Flight)
	d.SLO = metrics.NewSLO(d.Metrics, metrics.DefaultObjectives()...)
	d.Bus.Instrument(d.Metrics)
	net, err := netsim.New(opts.Scale)
	if err != nil {
		return nil, err
	}
	d.Net = net
	repo, err := repository.New(name+"-server", net)
	if err != nil {
		return nil, err
	}
	d.Repo = repo
	engine, err := runtime.NewEngine(opts.Scale, net)
	if err != nil {
		return nil, err
	}
	d.Composer = composer.New(d.Registry)
	d.PlanCache = distributor.NewPlanCache(distributor.DefaultPlanCacheCapacity)
	d.PlanCache.Instrument(d.Metrics)
	ccfg := core.Config{
		Composer:     d.Composer,
		Devices:      d.Devices,
		Links:        d.Links,
		Net:          net,
		Repo:         repo,
		Checkpoints:  d.Checkpoints,
		Engine:       engine,
		Weights:      opts.Weights,
		StateSizeFor: opts.StateSizeFor,
		Place:        opts.Place,
		PlanCache:    d.PlanCache,
		Profiler:     d.Profiler,
		Observer:     observer{d},
	}
	cfg, err := core.New(ccfg)
	if err != nil {
		return nil, err
	}
	d.Configurator = cfg
	// Every published event lands on the timelines of the sessions it
	// concerns on the publisher's goroutine, before any subscriber sees
	// it. Resolving takes the configurator's read lock (SessionsOn); no
	// publisher holds that lock or the store's: the domain's verbs, the
	// supervisor and the fault injector all publish with no lock held.
	d.Bus.SetRecorder(func(ev eventbus.Event) {
		for _, session := range d.resolveFlightSessions(ev) {
			d.Flight.RecordEvent(session, ev)
		}
	})
	d.Capacity = capacity.New(capacity.Options{Interval: opts.SampleInterval})
	d.saturation = capacity.NewAnalyzer(opts.SaturationThresholds)
	// The incident engine must exist before the observatory starts: the
	// sampler feeds it one Observation per pass.
	d.initIncidents()
	d.Capacity.SetSampler(d.sampleCapacity)
	d.Capacity.Start()
	return d, nil
}

// resolveFlightSessions attributes a control-plane bus event to sessions:
// session-scoped topics carry the session ID (or a notice naming it) as
// payload; device- and link-scoped topics map to the sessions with
// components placed on the affected devices.
func (d *Domain) resolveFlightSessions(ev eventbus.Event) []string {
	switch p := ev.Payload.(type) {
	case core.SessionLostNotice:
		return []string{p.SessionID}
	case MissingServiceNotice:
		return []string{p.SessionID}
	case LinkChanged:
		sessions := d.SessionsOn(p.A)
		seen := make(map[string]bool, len(sessions))
		for _, s := range sessions {
			seen[s] = true
		}
		for _, s := range d.SessionsOn(p.B) {
			if !seen[s] {
				sessions = append(sessions, s)
			}
		}
		return sessions
	case string:
		switch ev.Topic {
		case eventbus.TopicSessionStarted, eventbus.TopicSessionStopped,
			eventbus.TopicSessionRecovered, eventbus.TopicSessionRestored,
			eventbus.TopicUserMoved:
			return []string{p}
		case eventbus.TopicDeviceJoined, eventbus.TopicDeviceLeft,
			eventbus.TopicDeviceSwitched, eventbus.TopicResourceChanged:
			return d.SessionsOn(device.ID(p))
		}
	}
	return nil
}

// MustNew is New that panics on error.
func MustNew(name string, opts Options) *Domain {
	d, err := New(name, opts)
	if err != nil {
		panic(err)
	}
	return d
}

// AddDevice registers a device with raw (device-local) capacity: the
// domain normalizes it to benchmark units using the class's speed ratio,
// declares the repository link if missing, and announces the join on the
// event bus.
func (d *Domain) AddDevice(id device.ID, class device.Class, rawCapacity resource.Vector, attrs map[string]string) (*device.Device, error) {
	norm, err := resource.SpeedNormalizer(class.DefaultSpeedRatio())
	if err != nil {
		return nil, err
	}
	if len(rawCapacity) != resource.Dims {
		return nil, fmt.Errorf("domain: capacity must have %d dimensions", resource.Dims)
	}
	dev, err := device.New(id, class, norm.Availability(rawCapacity), attrs)
	if err != nil {
		return nil, err
	}
	if err := d.Devices.Add(dev); err != nil {
		return nil, err
	}
	d.Bus.Publish(eventbus.TopicDeviceJoined, string(id))
	return dev, nil
}

// Connect declares both the emulated network link and the distributor's
// bandwidth table entry between two endpoints.
func (d *Domain) Connect(a, b device.ID, link netsim.Link) error {
	if err := d.Net.SetLink(string(a), string(b), link); err != nil {
		return err
	}
	return d.Links.Set(a, b, link.BandwidthMbps)
}

// ConnectServer links a device to the domain server host (for component
// downloads).
func (d *Domain) ConnectServer(a device.ID, link netsim.Link) error {
	return d.Net.SetLink(string(a), d.Repo.Host, link)
}

// FailDevice marks a device as crashed and announces the departure on the
// event bus. It re-places nothing: the recovery supervisor, subscribed to
// the departure, re-places or gives up on every session the crash broke.
// The fault injector and the wire protocol's crash-device op both crash a
// device through here.
func (d *Domain) FailDevice(id device.ID) error {
	dev := d.Devices.Get(id)
	if dev == nil {
		return fmt.Errorf("domain: unknown device %s", id)
	}
	dev.SetUp(false)
	d.Log.Named("domain").Warn("device left", obslog.String("device", string(id)))
	d.Bus.Publish(eventbus.TopicDeviceLeft, string(id))
	return nil
}

// RejoinDevice marks a previously crashed device reachable again and
// announces the join. Its prior resource commitments are still admitted
// (see device.SetUp); sessions that already migrated away simply leave
// that capacity to be reclaimed as their old reservations are released.
func (d *Domain) RejoinDevice(id device.ID) error {
	dev := d.Devices.Get(id)
	if dev == nil {
		return fmt.Errorf("domain: unknown device %s", id)
	}
	dev.SetUp(true)
	d.Log.Named("domain").Info("device rejoined", obslog.String("device", string(id)))
	d.Bus.Publish(eventbus.TopicDeviceJoined, string(id))
	return nil
}

// LinkChanged is the payload of a TopicResourceChanged event raised for a
// link-bandwidth fluctuation (as opposed to a device-capacity one, whose
// payload is the device ID string).
type LinkChanged struct {
	A, B device.ID
}

// DegradeLink models a link-quality fault: the emulated network link and
// the distributor's bandwidth table both drop to factor× their current
// bandwidth, and the fluctuation is announced on the event bus. It
// returns the link as it was before so the caller can RestoreLink later.
// Existing reservations are kept, so a degradation below the reserved
// bandwidth overcommits the link — the signal the recovery supervisor
// reacts to.
func (d *Domain) DegradeLink(a, b device.ID, factor float64) (netsim.Link, error) {
	prev, err := d.Net.Degrade(string(a), string(b), factor)
	if err != nil {
		return netsim.Link{}, err
	}
	if err := d.Links.Set(a, b, prev.BandwidthMbps*factor); err != nil {
		return netsim.Link{}, err
	}
	d.Log.Named("domain").Warn("link degraded",
		obslog.String("link", string(a)+"-"+string(b)), obslog.Float("factor", factor))
	d.Bus.Publish(eventbus.TopicResourceChanged, LinkChanged{A: a, B: b})
	return prev, nil
}

// RestoreLink reinstates a link (typically the return value of a prior
// DegradeLink) and announces the fluctuation.
func (d *Domain) RestoreLink(a, b device.ID, link netsim.Link) error {
	if err := d.Connect(a, b, link); err != nil {
		return err
	}
	d.Bus.Publish(eventbus.TopicResourceChanged, LinkChanged{A: a, B: b})
	return nil
}

// SessionsOn returns the session IDs with at least one component placed on
// the device.
func (d *Domain) SessionsOn(id device.ID) []string {
	var out []string
	for _, sid := range d.Configurator.SessionIDs() {
		active := d.Configurator.Session(sid)
		if active == nil {
			continue
		}
		for _, dev := range active.Placement {
			if dev == id {
				out = append(out, sid)
				break
			}
		}
	}
	return out
}

// SwitchDevice moves a session's portal to a new device — the paper's
// PC→PDA handoff — by re-running the configuration model with the new
// client binding. The event service announces the switch.
func (d *Domain) SwitchDevice(sessionID string, to device.ID) (*core.ActiveSession, error) {
	active := d.Configurator.Session(sessionID)
	if active == nil {
		return nil, fmt.Errorf("domain: unknown session %q", sessionID)
	}
	if d.Devices.Get(to) == nil {
		return nil, fmt.Errorf("domain: unknown device %s", to)
	}
	req := active.Request
	req.ClientDevice = to
	d.Bus.Publish(eventbus.TopicDeviceSwitched, string(to))
	return d.Configurator.Reconfigure(req)
}

// Migrate moves a running session to another domain — the paper's "when
// the user moves to a new location, the previous service components may
// no longer be available" scenario. The session is suspended here, its
// state crosses the inter-domain link, and the target domain composes a
// fresh service graph from its own environment, resuming playback from
// the interruption point on the new portal device. If the target domain
// cannot host the session, the migration is rolled back by resuming it in
// this domain.
func (d *Domain) Migrate(sessionID string, target *Domain, newClient device.ID, wan netsim.Link) (*core.ActiveSession, error) {
	if target == nil || target == d {
		return nil, fmt.Errorf("domain: migration target must be a different domain")
	}
	if !wan.Valid() {
		return nil, fmt.Errorf("domain: invalid inter-domain link")
	}
	active := d.Configurator.Session(sessionID)
	if active == nil {
		return nil, fmt.Errorf("domain: unknown session %q", sessionID)
	}
	req := active.Request
	req.ClientDevice = newClient

	st, err := d.Configurator.Suspend(sessionID)
	if err != nil {
		return nil, err
	}
	d.Bus.Publish(eventbus.TopicUserMoved, sessionID)

	// The checkpoint crosses the inter-domain link (modeled at the target
	// domain's time scale).
	transfer := wan.TransferTime(st.SizeMB)
	time.Sleep(time.Duration(float64(transfer) * target.Net.Scale()))

	resumed, err := target.Configurator.ResumeFrom(req, st)
	if err != nil {
		// Roll back: resume in the origin domain on the original portal.
		restore := active.Request
		if restored, rerr := d.Configurator.ResumeFrom(restore, st); rerr == nil {
			return restored, fmt.Errorf("domain: target %s rejected session (resumed at origin): %w", target.Name, err)
		}
		return nil, fmt.Errorf("domain: migration failed and origin resume failed too: %w", err)
	}
	resumed.Timing.InitOrHandoff += transfer
	target.Bus.Publish(eventbus.TopicSessionStarted, sessionID)
	return resumed, nil
}

// configureBurn reads the configure-latency objective's burn rate from
// the SLO tracker (0 when the objective has no data yet).
func (d *Domain) configureBurn() float64 {
	for _, st := range d.SLO.Evaluate() {
		if st.Name == "configure-p95" {
			return st.BurnRate
		}
	}
	return 0
}

// EnableAdmissionGate builds the saturation-aware admission gate over
// this domain's capacity signals and puts it in front of StartApp. The
// gate's signals are closures over d, so nothing is evaluated until the
// first start. Nil policies select admission.DefaultPolicies.
func (d *Domain) EnableAdmissionGate(policies map[string]admission.ClassPolicy) *admission.Gate {
	g := admission.New(admission.Options{
		Signals: admission.Signals{
			Report:  func() capacity.Report { return d.SaturationReport() },
			SLOBurn: d.configureBurn,
		},
		Policies: policies,
		Metrics:  d.Metrics,
	})
	// StartApp and the sampler goroutine read d.Admission through
	// admissionGate, so the late-bound assignment needs the same lock.
	d.repMu.Lock()
	d.Admission = g
	d.repMu.Unlock()
	return g
}

// MissingServiceNotice is the payload of a TopicUserNotification event
// raised when composition fails for missing mandatory services: the user
// may download and install an instance, or quit the application.
type MissingServiceNotice struct {
	SessionID string
	Types     []string
}

// StartApp configures and starts an application session, announcing it on
// the event bus. When composition fails because mandatory services are
// missing, the event service notifies the user (paper §3.2) before the
// error is returned. With the admission gate enabled a new session passes
// it first (see admit); Reconfigure, Recover and ResumeFrom bypass it:
// saturation throttles new arrivals, never sessions the space has
// already committed to.
func (d *Domain) StartApp(req core.Request) (*core.ActiveSession, error) {
	// An ID already in use is no arrival: Configure refuses it.
	if g := d.admissionGate(); g != nil && req.SessionID != "" && d.Configurator.Session(req.SessionID) == nil {
		var err error
		if req, err = d.admit(g, req); err != nil {
			return nil, err
		}
	}
	active, err := d.Configurator.Configure(req)
	if err != nil {
		var miss *composer.MissingServiceError
		if errors.As(err, &miss) {
			d.Bus.Publish(eventbus.TopicUserNotification, MissingServiceNotice{
				SessionID: req.SessionID,
				Types:     miss.Types,
			})
		}
		return nil, err
	}
	d.Bus.Publish(eventbus.TopicSessionStarted, req.SessionID)
	return active, nil
}

// admit consults the admission gate for a new session. A rejected request
// comes back with *admission.RejectedError (carrying the retry-after
// hint); a degraded admission comes back with optional components shed
// and heuristic placement — the recovery ladder's shed rung applied at
// admission time. Either way the decision lands on the ledger, the
// session's provenance timeline, and the log.
func (d *Domain) admit(g *admission.Gate, req core.Request) (core.Request, error) {
	req.Class = d.Configurator.Class(req)
	dec := g.Admit(req.Class)
	d.Flight.RecordAdmission(req.SessionID, dec.Class, string(dec.Verdict), dec.Reason)
	if dec.Verdict == admission.Admit {
		return req, nil
	}
	xd := &explain.AdmissionDecision{
		Verdict:      string(dec.Verdict),
		State:        dec.StateStr,
		Escalated:    dec.Escalated,
		SLOBurn:      dec.SLOBurn,
		Reason:       dec.Reason,
		RetryAfterMs: dec.RetryAfterMs,
	}
	xr := explain.Record{Session: req.SessionID, Action: explain.ActionAdmission, Admission: xd}
	var err error
	msg := "admission degraded"
	if dec.Verdict == admission.Reject {
		// The request never reaches the pipeline's own arrival mark, so
		// record the offered load here — the observatory's per-class
		// arrival rate must see rejected arrivals too.
		d.classMeter(metrics.SessionArrivals, dec.Class).Mark(1)
		err = &admission.RejectedError{Decision: dec}
		xr.Err, msg = err.Error(), "admission rejected"
	} else {
		req.App, xd.Shed = core.ShedOptional(req.App)
		if req.Place == nil {
			req.Place = distributor.Heuristic
		}
	}
	d.Flight.RecordExplain(xr)
	if log := (observer{d}).sessionLog(obslog.LevelInfo, "core", req.SessionID, ""); log != nil {
		log.Info(msg, obslog.String("class", dec.Class), obslog.String("reason", dec.Reason))
	}
	return req, err
}

// StopApp stops a session and announces it.
func (d *Domain) StopApp(sessionID string) error {
	if err := d.Configurator.Stop(sessionID); err != nil {
		return err
	}
	d.Bus.Publish(eventbus.TopicSessionStopped, sessionID)
	return nil
}

// Close stops the capacity observatory and shuts down the domain's event
// bus.
func (d *Domain) Close() {
	if d.Capacity != nil {
		d.Capacity.Stop()
	}
	d.Bus.Close()
}
