// Package core implements the paper's primary contribution: the integrated
// dynamic QoS-aware service configuration model. A Configurator drives the
// two tiers end-to-end — service composition (discover instances, run the
// Ordered Coordination consistency check and corrections) followed by
// service distribution (fit the consistent graph into the currently
// available devices with minimum cost aggregation) — then deploys the
// resulting placement onto the emulated smart space, downloading missing
// components from the repository and, on re-configuration, handing session
// state off from the old service graph to the new one so "the user can
// continue to perform tasks".
package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ubiqos/internal/checkpoint"
	"ubiqos/internal/composer"
	"ubiqos/internal/device"
	"ubiqos/internal/distributor"
	"ubiqos/internal/explain"
	"ubiqos/internal/graph"
	"ubiqos/internal/netsim"
	"ubiqos/internal/obslog"
	"ubiqos/internal/profiler"
	"ubiqos/internal/qos"
	"ubiqos/internal/repository"
	"ubiqos/internal/resource"
	"ubiqos/internal/runtime"
	"ubiqos/internal/trace"
)

// PlaceFunc chooses a placement for a composed graph; the default is the
// paper's greedy heuristic.
type PlaceFunc func(p *distributor.Problem) (distributor.Assignment, float64, error)

// Observer watches the configurator. The domain implements it once and
// fans what it receives out to its metrics, ledger, provenance, flight
// recorder and log; a nil Observer watches nothing and costs nothing.
type Observer interface {
	// Begin opens the in-flight taps of one action on a session: the
	// trace the pipeline's stages write their spans into and the loggers
	// handed to the composer and the distributor, any of them nil. rec is
	// the provenance record the action starts — a configure, reconfigure,
	// resume or recover, or a supervisor recovery attempt (rec.Ladder
	// set).
	Begin(req Request, rec explain.Record) (tr *trace.Trace, composeLog, distributeLog *obslog.Logger)
	// Finished receives each configure, reconfigure, resume or recover
	// exactly once, after the rollback and the state handoff are folded
	// in: the request as submitted, the session (nil on failure), the
	// provenance record with each tier's provenance, its trace ID and its
	// error, the finished trace, and the error.
	Finished(req Request, active *ActiveSession, rec explain.Record, tr *trace.Trace, err error)
	// Step receives a session event that is not a configuration. A stop
	// or a suspend hands over the session's request and an empty record.
	// A recovery-supervisor step hands over its record (rec.Ladder set) —
	// outcome broken, healed, retry, recovered or lost — with the
	// attempt's finished trace (nil when no attempt ran), how long the
	// session has been broken (recovered only), and the supervisor's
	// counters after the step.
	Step(req Request, rec explain.Record, tr *trace.Trace, down time.Duration, stats SupervisorStats)
}

// Config wires a Configurator to the domain's infrastructure services.
type Config struct {
	Composer    *composer.Composer
	Devices     *device.Table
	Links       *device.Links
	Net         *netsim.Network
	Repo        *repository.Repository
	Checkpoints *checkpoint.Store
	Engine      *runtime.Engine
	Weights     resource.Weights
	// Place overrides the placement algorithm (default: Heuristic).
	Place PlaceFunc
	// PlanCache, when set, memoizes solved placements keyed by the
	// canonical problem signature: configureOnce consults it before
	// running the placement algorithm and stores fresh solutions after.
	// Only requests using the configurator's default placer participate —
	// a per-request Place override (e.g. the recovery ladder's warm or
	// heuristic rungs) must neither serve nor pollute cached plans.
	PlanCache *distributor.PlanCache
	// StateSizeFor, when set, sizes the checkpoint by the portal device it
	// is taken on (e.g. a PC's playback buffer is larger than a PDA's, so
	// PC→PDA handoffs carry more data than PDA→PC — the asymmetry in the
	// paper's Figure 4). Unset, every checkpoint is 0.5 MB.
	StateSizeFor func(from device.ID) float64
	// Profiler, when set, supplies online-profiled resource requirement
	// estimates that override the instances' declared vectors during
	// distribution (the paper's §3.1 assumption that "profiling or
	// monitoring services are available to automatically measure the
	// resource requirements for all application services").
	Profiler *profiler.Profiler
	// Observer, when set, watches every action (see Observer).
	Observer Observer
}

// Configurator is the integrated service configuration model. All methods
// are safe for concurrent use.
//
// Concurrency model: the compose→distribute→deploy pipeline runs outside
// any Configurator-wide lock, so independent sessions configure in
// parallel. Shared device and link bookkeeping is guarded by the fine-
// grained locks of device.Device, device.Links, and the other
// infrastructure services themselves (admission there is atomic per
// device/link, with rollback on partial failure). The Configurator's own
// RWMutex covers only the session registry: a short critical section that
// reserves the session ID before the pipeline starts — making a duplicate
// concurrent Configure of the same ID fail fast instead of racing — and
// commits the finished session after it.
type Configurator struct {
	cfg Config

	mu       sync.RWMutex
	sessions map[string]*ActiveSession
	// pending holds session IDs whose pipeline is in flight, so the ID is
	// claimed for the whole configure without holding mu across it.
	pending map[string]bool
	// classSeen is the bounded set of session classes (see Class).
	classSeen map[string]bool
}

// New validates the wiring and returns a Configurator.
func New(cfg Config) (*Configurator, error) {
	switch {
	case cfg.Composer == nil:
		return nil, fmt.Errorf("core: nil composer")
	case cfg.Devices == nil:
		return nil, fmt.Errorf("core: nil device table")
	case cfg.Links == nil:
		return nil, fmt.Errorf("core: nil link table")
	case cfg.Net == nil:
		return nil, fmt.Errorf("core: nil network")
	case cfg.Repo == nil:
		return nil, fmt.Errorf("core: nil repository")
	case cfg.Checkpoints == nil:
		return nil, fmt.Errorf("core: nil checkpoint store")
	case cfg.Engine == nil:
		return nil, fmt.Errorf("core: nil runtime engine")
	}
	if err := cfg.Weights.Validate(); err != nil {
		return nil, err
	}
	if cfg.Place == nil {
		cfg.Place = distributor.Heuristic
	}
	return &Configurator{
		cfg:       cfg,
		sessions:  make(map[string]*ActiveSession),
		pending:   make(map[string]bool),
		classSeen: make(map[string]bool),
	}, nil
}

// Request describes one application configuration request.
type Request struct {
	// SessionID names the application session; re-configuring an existing
	// ID performs a state handoff.
	SessionID string
	// Class buckets the session for per-class observability (arrival/
	// completion rates, active counts). Empty derives the class from the
	// abstract graph's first sink service type; the label set is capped so
	// wire clients cannot blow up the metric cardinality.
	Class string
	// App is the abstract service graph.
	App *composer.AbstractGraph
	// UserQoS carries the user's QoS requirements.
	UserQoS qos.Vector
	// ClientDevice is the user's portal device; abstract nodes pinned to
	// "client" are bound to it and its attributes steer discovery.
	ClientDevice device.ID
	// MaxFrames bounds the emulated sources (0 = unbounded).
	MaxFrames int64
	// Place, when set, overrides the configurator's placement algorithm
	// for this request only — the recovery supervisor uses it to fall back
	// from optimal to heuristic placement once a reconfiguration deadline
	// has been blown. Never serialized.
	Place PlaceFunc `json:"-"`
	// TraceCtx is the propagated trace identity: a request arriving over
	// the wire carries the client's trace/span IDs here, so the daemon's
	// configure trace — and every recovery trace re-issued from this
	// request — joins the client's tree instead of starting a new one.
	TraceCtx trace.Context `json:"traceCtx,omitempty"`
}

// ClientRole is the pin role in abstract graphs that Request.ClientDevice
// resolves; the composer resolves it.
const ClientRole = composer.ClientRole

// SessionLostNotice is the payload of a TopicUserNotification event raised
// when a session cannot be kept alive through a runtime change — its
// portal device vanished, or the recovery supervisor gave up: no feasible
// placement remains even with optionals shed and the heuristic as
// fallback. The user must intervene (pick a new portal, add capacity, or
// quit).
type SessionLostNotice struct {
	SessionID string
	// Device is the device whose loss or fluctuation stranded the session
	// (empty when unknown).
	Device device.ID
	Reason string
}

// Timing is the Figure 4 overhead breakdown of one configuration action.
type Timing struct {
	// Composition is the wall time of the service composition tier.
	Composition time.Duration
	// Distribution is the wall time of the service distribution tier.
	Distribution time.Duration
	// Downloading is the modeled dynamic-downloading time (0 when every
	// component is pre-installed on its target device).
	Downloading time.Duration
	// InitOrHandoff is the modeled initialization or state-handoff time,
	// including the buffering time for the first frame at the interruption
	// point.
	InitOrHandoff time.Duration
}

// Total sums the breakdown.
func (t Timing) Total() time.Duration {
	return t.Composition + t.Distribution + t.Downloading + t.InitOrHandoff
}

// ActiveSession is one configured, running application.
type ActiveSession struct {
	ID string
	// Class is the session's observability bucket (see Request.Class).
	Class string
	// Request is the configuration request that produced this session,
	// kept so the domain can re-issue it on runtime changes (device crash,
	// user mobility).
	Request Request
	// Graph is the QoS-consistent concrete service graph.
	Graph *graph.Graph
	// Placement maps every component to its device.
	Placement map[graph.NodeID]device.ID
	// Cost is the cost aggregation of the chosen placement.
	Cost float64
	// Report is the composition report (corrections applied).
	Report *composer.Report
	// Timing is the configuration overhead breakdown.
	Timing Timing
	// Runtime is the running emulated pipeline.
	Runtime *runtime.Session
	// ClientDevice is the session's current portal device.
	ClientDevice device.ID
	// SearchExplored is the placement search's explored-node count (zero
	// for plan-cache hits and solvers that report no stats); the recovery
	// supervisor compares it against the warm re-solve to gauge the
	// warm-start speedup.
	SearchExplored int64

	loads   []resource.Vector
	devIDs  []device.ID
	demands map[[2]device.ID]float64
}

// taps are one action's in-flight observation points from Observer.Begin,
// all nil-safe: an unobserved action carries nils through the pipeline.
type taps struct {
	tr                        *trace.Trace
	composeLog, distributeLog *obslog.Logger
}

// reserve claims a session ID for an in-flight configuration, failing if
// the ID is already active or being configured by another goroutine.
func (c *Configurator) reserve(id string) error {
	if id == "" {
		return fmt.Errorf("core: empty session ID")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sessions[id]; ok {
		return fmt.Errorf("core: session %q already active (use Reconfigure)", id)
	}
	if c.pending[id] {
		return fmt.Errorf("core: session %q is already being configured", id)
	}
	c.pending[id] = true
	return nil
}

// unreserve releases a claimed session ID after a failed configuration.
func (c *Configurator) unreserve(id string) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// commit publishes a successfully configured session, releasing its
// reservation.
func (c *Configurator) commit(active *ActiveSession) {
	c.mu.Lock()
	delete(c.pending, active.ID)
	c.sessions[active.ID] = active
	c.mu.Unlock()
}

// Pending reports the number of in-flight configurations — the admission
// queue depth the saturation analyzer folds into the space verdict.
func (c *Configurator) Pending() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.pending)
}

// ClassCounts returns the number of active sessions per class.
func (c *Configurator) ClassCounts() map[string]int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]int)
	for _, s := range c.sessions {
		out[s.Class]++
	}
	return out
}

// sessionClass derives the observability class of a request: the explicit
// Class, else the service type of the abstract graph's first sink (the
// user-facing end of the pipeline), else "default".
func sessionClass(req Request) string {
	if req.Class != "" {
		return req.Class
	}
	if req.App != nil {
		if sinks := req.App.Sinks(); len(sinks) > 0 {
			if n := req.App.Node(sinks[0]); n != nil && n.Spec.Type != "" {
				return n.Spec.Type
			}
		}
	}
	return "default"
}

// maxClassLabels caps the distinct session classes, so wire clients
// cannot blow up the cardinality of the labels observers build from them.
const maxClassLabels = 32

// overflowClass absorbs every class beyond the cap; it is the metrics
// registry's overflow label.
const overflowClass = "other"

// Class returns the session class a request configures under (see
// Request.Class), admitting it into the bounded class set: beyond
// maxClassLabels distinct classes new ones collapse into one overflow
// class.
func (c *Configurator) Class(req Request) string {
	class := sessionClass(req)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.classSeen[class] {
		return class
	}
	if len(c.classSeen) >= maxClassLabels {
		return overflowClass
	}
	c.classSeen[class] = true
	return class
}

// Configure runs the full pipeline for a new session: compose → distribute
// → admit → download → deploy. If the session ID already has a saved
// checkpoint (from a prior Reconfigure), playback resumes from the
// interruption point. Independent sessions may Configure concurrently; a
// concurrent Configure of the same ID fails fast.
func (c *Configurator) Configure(req Request) (*ActiveSession, error) {
	if err := c.reserve(req.SessionID); err != nil {
		return nil, err
	}
	return c.run(req, explain.ActionConfigure, false, 0)
}

// run carries one configuration action on a session ID the caller has
// claimed: the pipeline run once, the claim released on failure, the
// state-transfer time folded into the session's timing, then one finished
// record to the observer. action labels the run for provenance:
// ActionConfigure, ActionResume, ActionRecover, or ActionReconfigure.
func (c *Configurator) run(req Request, action string, handoff bool, transfer time.Duration) (*ActiveSession, error) {
	req.Class = c.Class(req)
	obs := c.cfg.Observer
	var x taps
	var rec *explain.Record
	if obs != nil {
		rec = &explain.Record{Session: req.SessionID, Action: action, Handoff: handoff}
		x.tr, x.composeLog, x.distributeLog = obs.Begin(req, *rec)
		rec.TraceID = x.tr.Context().TraceID
	}
	root := x.tr.Root()
	active, err := c.configureOnce(req, handoff, root, &x, rec)
	if err != nil {
		c.unreserve(req.SessionID)
		root.SetErr(err)
		if rec != nil {
			rec.Err = err.Error()
		}
	} else {
		active.Timing.InitOrHandoff += transfer
		root.Set(trace.Float("cost", active.Cost))
	}
	x.tr.Finish()
	if obs != nil {
		obs.Finished(req, active, *rec, x.tr, err)
	}
	return active, err
}

// configureOnce runs the pipeline once at the request's QoS: compose →
// distribute → reserve → download → deploy, each stage a child of parent
// and each tier's provenance filled into rec (nil without an observer).
func (c *Configurator) configureOnce(req Request, handoff bool, parent *trace.Span, x *taps, rec *explain.Record) (*ActiveSession, error) {
	// --- Tier 1: service composition. ---
	t0 := time.Now()
	g, rep, err := c.compose(req, parent, x, rec)
	compTime := time.Since(t0)
	if err != nil {
		return nil, err
	}
	// Online profiling refines the declared requirement vectors.
	if c.cfg.Profiler != nil {
		for _, n := range g.Nodes() {
			if n.Instance != "" {
				n.Resources = c.cfg.Profiler.EstimateOr(n.Instance, n.Resources)
			}
		}
	}

	// --- Tier 2: service distribution. ---
	t1 := time.Now()
	up := c.cfg.Devices.UpDevices()
	if len(up) == 0 {
		return nil, fmt.Errorf("core: no devices available")
	}
	prob, assignment, cost, explored, err := c.distribute(req, g, up, parent, x, rec)
	distTime := time.Since(t1)
	if err != nil {
		return nil, fmt.Errorf("core: distribution: %w", err)
	}

	// --- Admission: reserve device resources and link bandwidth. ---
	active := &ActiveSession{
		ID:             req.SessionID,
		Class:          req.Class,
		Request:        req,
		Graph:          g,
		Cost:           cost,
		Report:         rep,
		ClientDevice:   req.ClientDevice,
		SearchExplored: explored,
		loads:          prob.DeviceLoads(assignment),
		devIDs:         make([]device.ID, len(up)),
		demands:        prob.LinkDemands(assignment),
	}
	for i, d := range up {
		active.devIDs[i] = d.ID
	}
	if err := c.admit(up, active, parent); err != nil {
		return nil, err
	}
	fail := func(sp *trace.Span, err error, format string) (*ActiveSession, error) {
		c.release(active)
		sp.SetErr(err)
		sp.End()
		return nil, fmt.Errorf(format, err)
	}

	// --- Dynamic downloading: components missing on their targets. ---
	dlSp := parent.Child("download")
	active.Placement = make(map[graph.NodeID]device.ID, g.NodeCount())
	for id, di := range assignment {
		active.Placement[id] = active.devIDs[di]
	}
	dlTime, err := c.download(g, active.Placement)
	if err != nil {
		return fail(dlSp, err, "%w") // download wraps its own errors
	}
	dlSp.Set(trace.Float("modeledSeconds", dlTime.Seconds()))
	dlSp.End()

	// --- Initialization or state handoff. ---
	// Both a fresh initialization and a resume pay the buffering time for
	// the first frame (at the start, or at the interruption point).
	startPos := int64(0)
	if st, ok := c.cfg.Checkpoints.Load(req.SessionID); ok && handoff {
		startPos = st.Position
	}
	depSp := parent.Child("deploy", trace.Int("startPos", startPos))
	sess, err := c.cfg.Engine.Deploy(g, active.Placement, startPos, req.MaxFrames)
	if err != nil {
		return fail(depSp, err, "core: deploy: %w")
	}
	if err := sess.Start(); err != nil {
		return fail(depSp, err, "core: start: %w")
	}
	depSp.End()

	active.Runtime = sess
	active.Timing = Timing{
		Composition:   compTime,
		Distribution:  distTime,
		Downloading:   dlTime,
		InitOrHandoff: firstFrameBuffering(g),
	}
	c.commit(active)
	return active, nil
}

// compose runs the composition tier on the request, steering discovery by
// the portal device's attributes.
func (c *Configurator) compose(req Request, parent *trace.Span, x *taps, rec *explain.Record) (*graph.Graph, *composer.Report, error) {
	var clientAttrs map[string]string
	if d := c.cfg.Devices.Get(req.ClientDevice); d != nil {
		clientAttrs = d.Attrs
	}
	csp := parent.Child("compose")
	g, rep, err := c.cfg.Composer.Compose(composer.Request{
		App:          req.App,
		UserQoS:      req.UserQoS,
		ClientAttrs:  clientAttrs,
		ClientDevice: string(req.ClientDevice),
		Span:         csp,
		Log:          x.composeLog,
		Explain:      rec,
	})
	if err != nil {
		csp.SetErr(err)
		csp.End()
		return nil, nil, fmt.Errorf("core: composition: %w", err)
	}
	csp.Set(trace.Int("nodes", int64(g.NodeCount())),
		trace.Int("checks", int64(rep.Checks)),
		trace.Int("adjustments", int64(len(rep.Adjustments))),
		trace.Int("transcoders", int64(len(rep.Transcoders))),
		trace.Int("buffers", int64(len(rep.Buffers))))
	csp.End()
	return g, rep, nil
}

// distribute runs the distribution tier over the up devices: a plan-cache
// hit when the request uses the default placer, else the placer. It
// returns the problem it solved, the winning assignment and its cost, and
// the search's explored-node count.
func (c *Configurator) distribute(req Request, g *graph.Graph, up []*device.Device, parent *trace.Span, x *taps, rec *explain.Record) (*distributor.Problem, distributor.Assignment, float64, int64, error) {
	devInfos := make([]distributor.DeviceInfo, len(up))
	for i, d := range up {
		devInfos[i] = distributor.DeviceInfo{ID: d.ID, Avail: d.Available()}
	}
	dsp := parent.Child("distribute")
	stats := &distributor.SearchStats{}
	prob := &distributor.Problem{
		Graph:     g,
		Devices:   devInfos,
		Bandwidth: c.cfg.Links.Available,
		Weights:   c.cfg.Weights,
		Span:      dsp,
		Stats:     stats,
		Log:       x.distributeLog,
	}
	place := c.cfg.Place
	if req.Place != nil {
		place = req.Place
	}
	var assignment distributor.Assignment
	var cost float64
	var err error
	cacheHit := false
	if req.Place == nil && c.cfg.PlanCache != nil {
		if a, cc, ok := c.cfg.PlanCache.Lookup(prob); ok {
			assignment, cost, cacheHit = a, cc, true
			stats.Algorithm = "plan-cache"
		}
	}
	if !cacheHit {
		assignment, cost, err = place(prob)
		if err == nil && req.Place == nil && c.cfg.PlanCache != nil {
			c.cfg.PlanCache.Store(prob, assignment, cost)
		}
	}
	// The span's attributes go in one Set: the device count, the search
	// stats (a custom PlaceFunc that does not fill Stats records none) and
	// the cost or the error.
	devices, outcome := trace.Int("devices", int64(len(up))), trace.Float("cost", cost)
	if err != nil {
		outcome = trace.String("error", err.Error())
	}
	if stats.Algorithm != "" {
		dsp.Set(devices, trace.String("algorithm", stats.Algorithm),
			trace.Int("explored", stats.Explored),
			trace.Int("pruned", stats.Pruned),
			trace.Int("incumbents", stats.Incumbents), outcome)
	} else {
		dsp.Set(devices, outcome)
	}
	dsp.End()
	if rec != nil {
		rec.Search = &explain.Search{
			Algorithm:       stats.Algorithm,
			Explored:        stats.Explored,
			Pruned:          stats.Pruned,
			Incumbents:      stats.Incumbents,
			BoundTrajectory: stats.BoundTrajectory,
			RunnerUp:        stats.RunnerUp,
			Devices:         len(up),
			CacheHit:        cacheHit,
			Warm:            stats.Warm,
			SeedCost:        stats.SeedCost,
			Reused:          stats.Reused,
		}
		if err == nil {
			rec.Search.Cost = cost
		}
	}
	return prob, assignment, cost, stats.Explored, err
}

// admit reserves the session's device loads and link bandwidth, all or
// nothing: a refusal releases whatever was already claimed.
func (c *Configurator) admit(up []*device.Device, active *ActiveSession, parent *trace.Span) error {
	sp := parent.Child("admit")
	loads, demands := active.loads, active.demands
	admitted := make([]int, 0, len(up))
	reserved := make([][2]device.ID, 0, len(demands))
	refuse := func(err error, format string) error {
		for _, pair := range reserved {
			c.cfg.Links.ReleaseBandwidth(pair[0], pair[1], demands[pair])
		}
		for _, i := range admitted {
			up[i].Release(loads[i])
		}
		sp.SetErr(err)
		sp.End()
		return fmt.Errorf(format, err)
	}
	for i, d := range up {
		if loads[i].IsZero() {
			continue
		}
		if err := d.Admit(loads[i]); err != nil {
			return refuse(err, "core: admission: %w")
		}
		admitted = append(admitted, i)
	}
	for pair, mbps := range demands {
		if err := c.cfg.Links.Reserve(pair[0], pair[1], mbps); err != nil {
			return refuse(err, "core: bandwidth reservation: %w")
		}
		reserved = append(reserved, pair)
	}
	sp.Set(trace.Int("devicesLoaded", int64(len(admitted))),
		trace.Int("linksReserved", int64(len(reserved))))
	sp.End()
	return nil
}

// download fetches every component missing on its target device. Devices
// download in parallel, so the modeled cost is the per-device maximum of
// sequential download times.
func (c *Configurator) download(g *graph.Graph, placement map[graph.NodeID]device.ID) (time.Duration, error) {
	perDevice := make(map[device.ID]time.Duration)
	for _, n := range g.Nodes() {
		if n.Instance == "" {
			continue
		}
		dev := placement[n.ID]
		d, err := c.cfg.Repo.Ensure(string(dev), n.Instance)
		if err != nil {
			return 0, fmt.Errorf("core: %w", err)
		}
		perDevice[dev] += d
	}
	var maxD time.Duration
	for _, d := range perDevice {
		if d > maxD {
			maxD = d
		}
	}
	return maxD, nil
}

// firstFrameBuffering models the wait for the first frame after resuming:
// one frame interval at the slowest sink rate.
func firstFrameBuffering(g *graph.Graph) time.Duration {
	rate := runtime.DefaultFrameRate
	for _, id := range g.Sinks() {
		n := g.Node(id)
		if v, ok := n.In.Get(qos.DimFrameRate); ok {
			switch v.Kind {
			case qos.KindScalar:
				if v.Num > 0 {
					rate = v.Num
				}
			case qos.KindRange:
				if v.Lo > 0 {
					rate = v.Lo
				}
			}
		}
	}
	return time.Duration(float64(time.Second) / rate)
}

// Session returns the active session with the given ID, or nil.
func (c *Configurator) Session(id string) *ActiveSession {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.sessions[id]
}

// Sessions returns the number of active sessions.
func (c *Configurator) Sessions() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.sessions)
}

// SessionIDs returns the IDs of all active sessions, sorted.
func (c *Configurator) SessionIDs() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.sessions))
	for id := range c.sessions {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Stop terminates a session and releases its resources.
func (c *Configurator) Stop(sessionID string) error {
	active, err := c.take(sessionID)
	if err != nil {
		return err
	}
	c.teardown(active)
	return nil
}

// take removes an active session from the registry.
func (c *Configurator) take(sessionID string) (*ActiveSession, error) {
	c.mu.Lock()
	active, ok := c.sessions[sessionID]
	delete(c.sessions, sessionID)
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown session %q", sessionID)
	}
	return active, nil
}

// teardown stops a session taken from the registry, releases its
// resources and checkpoint, and tells the observer it left the space.
func (c *Configurator) teardown(active *ActiveSession) {
	active.Runtime.Stop()
	c.release(active)
	c.cfg.Checkpoints.Delete(active.ID)
	if obs := c.cfg.Observer; obs != nil {
		obs.Step(active.Request, explain.Record{}, nil, 0, SupervisorStats{})
	}
}

func (c *Configurator) release(active *ActiveSession) {
	for i, id := range active.devIDs {
		if active.loads[i].IsZero() {
			continue
		}
		if d := c.cfg.Devices.Get(id); d != nil {
			d.Release(active.loads[i])
		}
	}
	for pair, mbps := range active.demands {
		c.cfg.Links.ReleaseBandwidth(pair[0], pair[1], mbps)
	}
}

// stateSizeMB is the serialized session state carried by a handoff when
// Config.StateSizeFor is not set.
const stateSizeMB = 0.5

// stateSize is the size of the session state checkpointed on a portal
// device.
func (c *Configurator) stateSize(portal device.ID) float64 {
	if c.cfg.StateSizeFor != nil {
		return c.cfg.StateSizeFor(portal)
	}
	return stateSizeMB
}

// Suspend checkpoints a session at its interruption point, tears it down,
// releases its resources, and returns the exported state. Unlike
// Reconfigure, nothing is re-created: the state can be carried to another
// domain (the user moved to a new location) and resumed there with
// ResumeFrom. To this domain the session has ended as a stop does.
func (c *Configurator) Suspend(sessionID string) (checkpoint.State, error) {
	active, err := c.take(sessionID)
	if err != nil {
		return checkpoint.State{}, err
	}
	st := checkpoint.State{
		SessionID: sessionID,
		Position:  active.Runtime.Position(),
		SizeMB:    c.stateSize(active.ClientDevice),
		SavedAt:   time.Now(),
	}
	c.teardown(active)
	return st, nil
}

// ResumeFrom configures a session that continues from imported state —
// the receiving side of a cross-domain migration. The request's session ID
// takes precedence over the state's.
func (c *Configurator) ResumeFrom(req Request, st checkpoint.State) (*ActiveSession, error) {
	if err := c.reserve(req.SessionID); err != nil {
		return nil, err
	}
	st.SessionID = req.SessionID
	if err := c.cfg.Checkpoints.Save(st); err != nil {
		c.unreserve(req.SessionID)
		return nil, err
	}
	return c.run(req, explain.ActionResume, true, 0)
}

// Recover (re)configures a session as part of self-healing. A session
// still active is reconfigured in place (checkpoint → tear down → fresh
// compose/distribute → resume). If an earlier recovery attempt already
// tore the session down and then failed to re-place it, the saved
// checkpoint is resumed so a later retry still continues playback from
// the interruption point instead of starting over.
func (c *Configurator) Recover(req Request) (*ActiveSession, error) {
	if c.Session(req.SessionID) != nil {
		return c.Reconfigure(req)
	}
	if err := c.reserve(req.SessionID); err != nil {
		return nil, err
	}
	_, resuming := c.cfg.Checkpoints.Load(req.SessionID)
	return c.run(req, explain.ActionRecover, resuming, 0)
}

// Reconfigure re-runs the configuration model for an existing session —
// invoked "whenever some significant changes are detected during runtime":
// by the domain when the user switches devices, and through Recover by
// the recovery supervisor when a crash or fluctuation breaks the session.
// The old service graph is checkpointed at its interruption point, torn
// down, and a new graph composed, distributed, and resumed from the saved
// position; the returned session's Timing includes the state-handoff
// cost.
func (c *Configurator) Reconfigure(req Request) (*ActiveSession, error) {
	// Move the session from active to pending so a concurrent Configure of
	// the same ID cannot claim it mid-reconfiguration.
	c.mu.Lock()
	old, ok := c.sessions[req.SessionID]
	if ok {
		delete(c.sessions, req.SessionID)
		c.pending[req.SessionID] = true
	}
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown session %q", req.SessionID)
	}

	// Checkpoint at the interruption point, then tear down.
	if err := c.cfg.Checkpoints.Save(checkpoint.State{
		SessionID: req.SessionID,
		Position:  old.Runtime.Position(),
		SizeMB:    c.stateSize(old.ClientDevice),
	}); err != nil {
		// Restore bookkeeping: the old session keeps running.
		c.mu.Lock()
		delete(c.pending, req.SessionID)
		c.sessions[req.SessionID] = old
		c.mu.Unlock()
		return nil, err
	}
	old.Runtime.Stop()
	c.release(old)

	// Transfer the state between the portal devices.
	var transfer time.Duration
	if old.ClientDevice != "" && req.ClientDevice != "" && old.ClientDevice != req.ClientDevice {
		d, err := c.cfg.Checkpoints.Handoff(c.cfg.Net, req.SessionID, string(old.ClientDevice), string(req.ClientDevice))
		if err != nil {
			c.unreserve(req.SessionID)
			return nil, fmt.Errorf("core: %w", err)
		}
		transfer = d
	}
	return c.run(req, explain.ActionReconfigure, true, transfer)
}
