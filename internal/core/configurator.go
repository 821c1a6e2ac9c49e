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
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ubiqos/internal/admission"
	"ubiqos/internal/checkpoint"
	"ubiqos/internal/composer"
	"ubiqos/internal/device"
	"ubiqos/internal/distributor"
	"ubiqos/internal/explain"
	"ubiqos/internal/flight"
	"ubiqos/internal/graph"
	"ubiqos/internal/ledger"
	"ubiqos/internal/metrics"
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

// AdmissionGate is the saturation-aware admission decision point
// (implemented by admission.Gate): it classifies one arriving request as
// admit, admit-degraded, or reject from the space's current capacity
// signals.
type AdmissionGate interface {
	Admit(class string) admission.Decision
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
	// StateSizeMB is the serialized session state size used for handoffs.
	StateSizeMB float64
	// StateSizeFor, when set, sizes the checkpoint by the portal device it
	// is taken on (e.g. a PC's playback buffer is larger than a PDA's, so
	// PC→PDA handoffs carry more data than PDA→PC — the asymmetry in the
	// paper's Figure 4). It overrides StateSizeMB.
	StateSizeFor func(from device.ID) float64
	// Profiler, when set, supplies online-profiled resource requirement
	// estimates that override the instances' declared vectors during
	// distribution (the paper's §3.1 assumption that "profiling or
	// monitoring services are available to automatically measure the
	// resource requirements for all application services").
	Profiler *profiler.Profiler
	// DegradeFactors is the QoS degradation ladder: when configuration
	// fails for feasibility reasons, the user's numeric QoS requirements
	// are scaled by each factor in turn (e.g. 0.75 then 0.5) until a
	// configuration fits — the paper's "continue his or her tasks with
	// minimum QoS degradations". Empty means no degradation is attempted.
	DegradeFactors []float64
	// Metrics, when set, receives operational counters and the per-tier
	// overhead histograms.
	Metrics *metrics.Registry
	// Tracer, when set, records one structured trace per Configure /
	// Reconfigure call: child spans for composition (with per-node
	// discovery attempts and Ordered Coordination corrections),
	// distribution (with branch-and-bound counters), admission, download,
	// and deployment. Nil disables tracing at zero cost.
	Tracer *trace.Tracer
	// Log, when set, receives structured log records for every
	// configuration attempt and outcome, stamped with the session and
	// trace IDs. Nil disables logging at zero cost.
	Log *obslog.Logger
	// Flight, when set, receives the finished configure/recover trace
	// summaries on the per-session flight timelines (log records reach it
	// through Log's sink set instead).
	Flight *flight.Recorder
	// Explain, when set, receives one decision-provenance record per
	// configure/reconfigure/recover action: discovery candidate sets, OC
	// corrections with before/after QoS vectors, the distributor's search
	// summary, and the winning placement. Nil disables provenance at zero
	// cost on the pipeline's hot path.
	Explain *explain.Recorder
	// Ledger, when set, receives the per-session outcome accounting:
	// admission verdicts, every successful (re)configuration with the
	// requested QoS vector and delivered degrade factor, configure
	// failures, and clean stops. The recovery supervisor feeds it the
	// broken/recovered/lost edges. Nil disables outcome accounting.
	Ledger *ledger.Ledger
	// Admission, when set, is the saturation-aware gate consulted at the
	// top of Configure before a new session's pipeline runs: rejected
	// requests return *admission.RejectedError without touching the pipeline, and degraded admissions re-enter it
	// with optional components shed and heuristic placement — the recovery
	// ladder's shed rung applied at admission time. Reconfigure, Recover,
	// and ResumeFrom bypass the gate: saturation throttles new arrivals,
	// never sessions the space has already committed to.
	Admission AdmissionGate
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
	// classSeen caps the distinct session-class labels fed into the
	// metrics registry (beyond the cap new classes collapse into
	// metrics.OverflowLabel).
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
	if cfg.StateSizeMB <= 0 {
		cfg.StateSizeMB = 0.5
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
// resolves.
const ClientRole = "client"

// SessionLostNotice is the payload of a TopicUserNotification event raised
// when a session cannot be kept alive through a runtime change — its
// portal device vanished, or no feasible placement remains even after the
// degradation ladder. The user must intervene (pick a new portal, add
// capacity, or quit).
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
	// DegradeFactor records the QoS degradation applied to admit the
	// session (1 = full requested quality).
	DegradeFactor float64
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
	c.publishPendingLocked()
	return nil
}

// unreserve releases a claimed session ID after a failed configuration.
func (c *Configurator) unreserve(id string) {
	c.mu.Lock()
	delete(c.pending, id)
	c.publishPendingLocked()
	c.mu.Unlock()
}

// commit publishes a successfully configured session, releasing its
// reservation.
func (c *Configurator) commit(active *ActiveSession) {
	c.mu.Lock()
	delete(c.pending, active.ID)
	c.sessions[active.ID] = active
	c.publishPendingLocked()
	c.mu.Unlock()
}

// publishPendingLocked mirrors the admission-queue depth into the
// config_pending gauge. Callers hold c.mu.
func (c *Configurator) publishPendingLocked() {
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Gauge(metrics.ConfigPending).Set(float64(len(c.pending)))
	}
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

// maxClassLabels caps the distinct class labels the configurator feeds
// into the metrics registry.
const maxClassLabels = 32

// classLabel admits a class into the bounded label set, collapsing
// overflow into metrics.OverflowLabel.
func (c *Configurator) classLabel(class string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.classSeen[class] {
		return class
	}
	if len(c.classSeen) >= maxClassLabels {
		return metrics.OverflowLabel
	}
	c.classSeen[class] = true
	return class
}

// classMeter returns the named per-class meter (nil registry yields nil;
// callers must check).
func (c *Configurator) classMeter(name, class string) *metrics.Meter {
	if c.cfg.Metrics == nil {
		return nil
	}
	return c.cfg.Metrics.Meter(metrics.WithLabel(name, "class", class))
}

// SetAdmission installs (or, with nil, removes) the admission gate after
// construction. It is not synchronized against in-flight Configures —
// call it at boot, before the configurator serves traffic.
func (c *Configurator) SetAdmission(g AdmissionGate) {
	c.cfg.Admission = g
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
	if c.cfg.Admission != nil {
		var rejected error
		if req, rejected = c.admit(req); rejected != nil {
			c.unreserve(req.SessionID)
			return nil, rejected
		}
	}
	active, err := c.configure(req, false, explain.ActionConfigure)
	if err != nil {
		c.unreserve(req.SessionID)
	}
	return active, err
}

// sessionLog derives the named per-session child of the configured
// logger — or nil, deriving nothing and costing nothing, when the logger
// would discard a record at level, the most severe one the caller or the
// stage it hands the child to writes. Callers that build fields test the
// result, so a discarded record's fields are never built either.
func (c *Configurator) sessionLog(level obslog.Level, name, session, traceID string) *obslog.Logger {
	if !c.cfg.Log.Enabled(level) {
		return nil
	}
	return c.cfg.Log.Named(name).ForSession(session, traceID)
}

// admit consults the admission gate before the pipeline runs. A rejected
// request comes back with *admission.RejectedError (carrying the
// retry-after hint); a degraded admission comes back with optional
// components shed and heuristic placement. Either way the decision lands
// on the session's provenance timeline.
func (c *Configurator) admit(req Request) (Request, error) {
	dec := c.cfg.Admission.Admit(c.classLabel(sessionClass(req)))
	c.cfg.Ledger.RecordAdmission(req.SessionID, dec.Class, string(dec.Verdict), dec.Reason)
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
	log := c.sessionLog(obslog.LevelInfo, "core", req.SessionID, "")
	if dec.Verdict == admission.Reject {
		// The request never reaches the pipeline's own arrival mark, so
		// record the offered load here — the autoscaler's demand signal
		// must see rejected arrivals too.
		if m := c.classMeter(metrics.SessionArrivals, dec.Class); m != nil {
			m.Mark(1)
		}
		err := &admission.RejectedError{Decision: dec}
		if c.cfg.Explain != nil {
			c.cfg.Explain.Record(explain.Record{
				Session:   req.SessionID,
				Action:    explain.ActionAdmission,
				Admission: xd,
				Err:       err.Error(),
			})
		}
		if log != nil {
			log.Info("admission rejected",
				obslog.String("class", dec.Class), obslog.String("reason", dec.Reason))
		}
		return req, err
	}
	// Admit-degraded: the recovery ladder's shed rung, applied before the
	// pipeline instead of after a failure — optional components dropped,
	// placement on the cheap heuristic.
	if req.App != nil {
		for _, n := range req.App.Nodes() {
			if n.Optional {
				xd.Shed = append(xd.Shed, string(n.ID))
			}
		}
		sort.Strings(xd.Shed)
		req.App = shedOptional(req.App)
	}
	if req.Place == nil {
		req.Place = distributor.Heuristic
	}
	if c.cfg.Explain != nil {
		c.cfg.Explain.Record(explain.Record{
			Session:   req.SessionID,
			Action:    explain.ActionAdmission,
			Admission: xd,
		})
	}
	if log != nil {
		log.Info("admission degraded",
			obslog.String("class", dec.Class), obslog.String("reason", dec.Reason))
	}
	return req, nil
}

// configure runs the pipeline, walking the QoS degradation ladder when
// the full-quality configuration does not fit the current environment.
// action labels the run for provenance: ActionConfigure, ActionResume,
// ActionRecover, or ActionReconfigure.
func (c *Configurator) configure(req Request, handoff bool, action string) (*ActiveSession, error) {
	req.Class = c.classLabel(sessionClass(req))
	if m := c.classMeter(metrics.SessionArrivals, req.Class); m != nil {
		m.Mark(1)
	}
	tr := c.cfg.Tracer.StartCtx(req.TraceCtx, "configure", req.SessionID, trace.Bool("handoff", handoff))
	log := c.sessionLog(obslog.LevelInfo, "core", req.SessionID, tr.Context().TraceID)
	if log != nil {
		log.Info("configure started", obslog.Bool("handoff", handoff))
	}
	root := tr.Root()
	var xr *explain.Record
	if c.cfg.Explain != nil {
		xr = &explain.Record{
			Session: req.SessionID,
			TraceID: tr.Context().TraceID,
			Action:  action,
			Handoff: handoff,
		}
	}
	active, err := c.configureLadder(req, handoff, root, xr)
	if err != nil {
		root.SetErr(err)
		if log == nil {
			log = c.sessionLog(obslog.LevelError, "core", req.SessionID, tr.Context().TraceID)
		}
		log.Error("configure failed", obslog.Err(err))
	} else {
		root.Set(trace.Float("cost", active.Cost),
			trace.Float("degradeFactor", active.DegradeFactor))
		if log != nil {
			log.Info("configured",
				obslog.Float("cost", active.Cost),
				obslog.Float("degradeFactor", active.DegradeFactor),
				obslog.Int("components", int64(active.Graph.NodeCount())),
				obslog.Duration("tookMs", active.Timing.Total()))
		}
	}
	tr.Finish()
	c.cfg.Flight.RecordTrace(tr.Export())
	if xr != nil {
		if err != nil {
			xr.Err = err.Error()
		} else {
			xr.Cost = active.Cost
			xr.DegradeFactor = active.DegradeFactor
			xr.Placement = make(map[string]string, len(active.Placement))
			for id, dev := range active.Placement {
				xr.Placement[string(id)] = string(dev)
			}
		}
		c.cfg.Explain.Record(*xr)
	}
	c.recordOutcome(active, req.Class, err)
	if err != nil {
		c.cfg.Ledger.RecordConfigureFailed(req.SessionID, req.Class, err.Error())
	} else {
		c.cfg.Ledger.RecordConfigured(req.SessionID, req.Class, req.UserQoS,
			active.DegradeFactor, active.Timing.Total(), action)
	}
	return active, err
}

// recordOutcome feeds the metrics registry after a configuration attempt.
func (c *Configurator) recordOutcome(active *ActiveSession, class string, err error) {
	m := c.cfg.Metrics
	if m == nil {
		return
	}
	m.Counter(metrics.ConfigsTotal).Inc()
	if err != nil {
		m.Counter(metrics.ConfigsFailed).Inc()
		c.classMeter(metrics.SessionFailures, class).Mark(1)
		return
	}
	if active.DegradeFactor != 1 {
		m.Counter(metrics.ConfigsDegraded).Inc()
	}
	m.Counter(metrics.TranscodersInserted).Add(int64(len(active.Report.Transcoders)))
	m.Counter(metrics.BuffersInserted).Add(int64(len(active.Report.Buffers)))
	m.Counter(metrics.Adjustments).Add(int64(len(active.Report.Adjustments)))
	m.Counter(metrics.DiscoveryAttempts).Add(int64(active.Report.DiscoveryAttempts))
	m.Counter(metrics.DiscoveryFailures).Add(int64(active.Report.DiscoveryFailures))
	m.Histogram(metrics.CompositionTime).Observe(active.Timing.Composition)
	m.Histogram(metrics.DistributionTime).Observe(active.Timing.Distribution)
	m.Histogram(metrics.DownloadTime).Observe(active.Timing.Downloading)
	m.Histogram(metrics.HandoffTime).Observe(active.Timing.InitOrHandoff)
	m.Histogram(metrics.ConfigureTime).Observe(active.Timing.Total())
	m.Gauge(metrics.ActiveSessions).Set(float64(c.Sessions()))
}

func (c *Configurator) configureLadder(req Request, handoff bool, root *trace.Span, xr *explain.Record) (*ActiveSession, error) {
	asp := root.Child("attempt", trace.Float("degradeFactor", 1))
	active, err := c.configureOnce(req, handoff, asp, nextAttempt(xr, 1))
	asp.SetErr(err)
	asp.End()
	if err == nil {
		active.DegradeFactor = 1
		return active, nil
	}
	finishAttempt(xr, err)
	// Missing services cannot be fixed by lowering quality; notify the
	// user instead of degrading. Nor can a malformed user QoS, which no
	// rung would make valid (and an inverted range cannot be scaled).
	var miss *composer.MissingServiceError
	if errors.As(err, &miss) || len(c.cfg.DegradeFactors) == 0 || len(req.UserQoS) == 0 || req.UserQoS.Validate() != nil {
		return nil, err
	}
	for _, f := range c.cfg.DegradeFactors {
		if f <= 0 || f >= 1 {
			continue
		}
		degraded := req
		degraded.UserQoS = degradeVector(req.UserQoS, f)
		asp := root.Child("attempt", trace.Float("degradeFactor", f))
		active, derr := c.configureOnce(degraded, handoff, asp, nextAttempt(xr, f))
		asp.SetErr(derr)
		asp.End()
		if derr == nil {
			active.DegradeFactor = f
			return active, nil
		}
		finishAttempt(xr, derr)
	}
	return nil, err
}

// nextAttempt appends a fresh provenance attempt to the record and
// returns it for configureOnce to fill; a nil record yields nil.
func nextAttempt(xr *explain.Record, degradeFactor float64) *explain.Attempt {
	if xr == nil {
		return nil
	}
	xr.Attempts = append(xr.Attempts, explain.Attempt{DegradeFactor: degradeFactor})
	return &xr.Attempts[len(xr.Attempts)-1]
}

// finishAttempt stamps the most recent provenance attempt with the error
// that ended it.
func finishAttempt(xr *explain.Record, err error) {
	if xr == nil || len(xr.Attempts) == 0 || err == nil {
		return
	}
	xr.Attempts[len(xr.Attempts)-1].Err = err.Error()
}

// degradeVector scales the numeric dimensions of a QoS requirement by f,
// leaving symbolic dimensions untouched: a range [lo,hi] becomes
// [lo·f, hi·f], a scalar v becomes v·f.
func degradeVector(v qos.Vector, f float64) qos.Vector {
	out := v.Clone()
	for i, p := range out {
		switch p.Value.Kind {
		case qos.KindScalar:
			out[i].Value = qos.Scalar(p.Value.Num * f)
		case qos.KindRange:
			out[i].Value = qos.Range(p.Value.Lo*f, p.Value.Hi*f)
		}
	}
	return out
}

func (c *Configurator) configureOnce(req Request, handoff bool, parent *trace.Span, att *explain.Attempt) (*ActiveSession, error) {
	// --- Tier 1: service composition. ---
	var clientAttrs map[string]string
	if d := c.cfg.Devices.Get(req.ClientDevice); d != nil {
		clientAttrs = d.Attrs
	}
	t0 := time.Now()
	csp := parent.Child("compose")
	app := ResolveClientPins(req.App, req.ClientDevice)
	var comp *explain.Composition
	if att != nil {
		comp = &explain.Composition{}
	}
	g, rep, err := c.cfg.Composer.Compose(composer.Request{
		App:          app,
		UserQoS:      req.UserQoS,
		ClientAttrs:  clientAttrs,
		ClientDevice: string(req.ClientDevice),
		Span:         csp,
		Log:          c.sessionLog(obslog.LevelWarn, "composer", req.SessionID, parent.TraceContext().TraceID),
		Explain:      comp,
	})
	compTime := time.Since(t0)
	if att != nil {
		att.Discoveries = comp.Discoveries
		att.Corrections = comp.Corrections
	}
	if err != nil {
		csp.SetErr(err)
		csp.End()
		return nil, fmt.Errorf("core: composition: %w", err)
	}
	csp.Set(trace.Int("nodes", int64(g.NodeCount())),
		trace.Int("checks", int64(rep.Checks)),
		trace.Int("adjustments", int64(len(rep.Adjustments))),
		trace.Int("transcoders", int64(len(rep.Transcoders))),
		trace.Int("buffers", int64(len(rep.Buffers))))
	csp.End()

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
	devInfos := make([]distributor.DeviceInfo, len(up))
	devIDs := make([]device.ID, len(up))
	for i, d := range up {
		devInfos[i] = distributor.DeviceInfo{ID: d.ID, Avail: d.Available()}
		devIDs[i] = d.ID
	}
	dsp := parent.Child("distribute", trace.Int("devices", int64(len(up))))
	stats := &distributor.SearchStats{}
	prob := &distributor.Problem{
		Graph:     g,
		Devices:   devInfos,
		Bandwidth: c.cfg.Links.Available,
		Weights:   c.cfg.Weights,
		Span:      dsp,
		Stats:     stats,
		Log:       c.sessionLog(obslog.LevelDebug, "distributor", req.SessionID, parent.TraceContext().TraceID),
	}
	place := c.cfg.Place
	if req.Place != nil {
		place = req.Place
	}
	var assignment distributor.Assignment
	var cost float64
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
	distTime := time.Since(t1)
	c.recordSearch(dsp, stats, cost, err)
	if att != nil {
		att.Search = &explain.Search{
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
			att.Search.Cost = cost
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: distribution: %w", err)
	}

	// --- Admission: reserve device resources and link bandwidth. ---
	admitSp := parent.Child("admit")
	loads := prob.DeviceLoads(assignment)
	admitted := make([]int, 0, len(up))
	rollback := func() {
		for _, i := range admitted {
			up[i].Release(loads[i])
		}
	}
	for i, d := range up {
		if loads[i].IsZero() {
			continue
		}
		if err := d.Admit(loads[i]); err != nil {
			rollback()
			admitSp.SetErr(err)
			admitSp.End()
			return nil, fmt.Errorf("core: admission: %w", err)
		}
		admitted = append(admitted, i)
	}
	demands := prob.LinkDemands(assignment)
	reserved := make([][2]device.ID, 0, len(demands))
	rollbackLinks := func() {
		for _, pair := range reserved {
			c.cfg.Links.ReleaseBandwidth(pair[0], pair[1], demands[pair])
		}
	}
	for pair, mbps := range demands {
		if err := c.cfg.Links.Reserve(pair[0], pair[1], mbps); err != nil {
			rollbackLinks()
			rollback()
			admitSp.SetErr(err)
			admitSp.End()
			return nil, fmt.Errorf("core: bandwidth reservation: %w", err)
		}
		reserved = append(reserved, pair)
	}
	admitSp.Set(trace.Int("devicesLoaded", int64(len(admitted))),
		trace.Int("linksReserved", int64(len(reserved))))
	admitSp.End()

	// --- Dynamic downloading: components missing on their targets. ---
	dlSp := parent.Child("download")
	placement := make(map[graph.NodeID]device.ID, g.NodeCount())
	for id, di := range assignment {
		placement[id] = devInfos[di].ID
	}
	dlTime, err := c.download(g, placement)
	if err != nil {
		rollbackLinks()
		rollback()
		dlSp.SetErr(err)
		dlSp.End()
		return nil, err
	}
	dlSp.Set(trace.Float("modeledSeconds", dlTime.Seconds()))
	dlSp.End()

	// --- Initialization or state handoff. ---
	// Both a fresh initialization and a resume pay the buffering time for
	// the first frame (at the start, or at the interruption point).
	startPos := int64(0)
	initTime := firstFrameBuffering(g)
	if st, ok := c.cfg.Checkpoints.Load(req.SessionID); ok && handoff {
		startPos = st.Position
	}

	depSp := parent.Child("deploy", trace.Int("startPos", startPos))
	sess, err := c.cfg.Engine.Deploy(g, placement, startPos, req.MaxFrames)
	if err != nil {
		rollbackLinks()
		rollback()
		depSp.SetErr(err)
		depSp.End()
		return nil, fmt.Errorf("core: deploy: %w", err)
	}
	if err := sess.Start(); err != nil {
		rollbackLinks()
		rollback()
		depSp.SetErr(err)
		depSp.End()
		return nil, fmt.Errorf("core: start: %w", err)
	}
	depSp.End()

	active := &ActiveSession{
		ID:             req.SessionID,
		Class:          req.Class,
		Request:        req,
		Graph:          g,
		Placement:      placement,
		Cost:           cost,
		Report:         rep,
		Runtime:        sess,
		ClientDevice:   req.ClientDevice,
		SearchExplored: stats.Explored,
		loads:          loads,
		devIDs:         devIDs,
		demands:        demands,
		Timing: Timing{
			Composition:   compTime,
			Distribution:  distTime,
			Downloading:   dlTime,
			InitOrHandoff: initTime,
		},
	}
	c.commit(active)
	return active, nil
}

// recordSearch finishes the distribution span with the solver's search
// statistics and feeds the branch-and-bound counters into the metrics
// registry. A custom PlaceFunc that does not fill Stats records only the
// span timing.
func (c *Configurator) recordSearch(dsp *trace.Span, stats *distributor.SearchStats, cost float64, err error) {
	if stats.Algorithm != "" {
		dsp.Set(trace.String("algorithm", stats.Algorithm),
			trace.Int("explored", stats.Explored),
			trace.Int("pruned", stats.Pruned),
			trace.Int("incumbents", stats.Incumbents))
	}
	if err != nil {
		dsp.SetErr(err)
	} else {
		dsp.Set(trace.Float("cost", cost))
	}
	dsp.End()
	m := c.cfg.Metrics
	if m == nil {
		return
	}
	switch stats.Algorithm {
	case "optimal", "optimal-warm":
		m.Counter(metrics.BnBExplored).Add(stats.Explored)
		m.Counter(metrics.BnBPruned).Add(stats.Pruned)
		m.Counter(metrics.BnBIncumbents).Add(stats.Incumbents)
		if stats.Warm {
			m.Counter(metrics.WarmSolves).Inc()
		} else {
			m.Counter(metrics.ColdSolves).Inc()
		}
	}
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

// ResolveClientPins rewrites the ClientRole pin to the concrete client
// device, returning a copy when rewriting is needed. Configure applies it
// to every request; a dry run of the composition tier alone (the wire
// check op) calls it to compose the graph Configure would.
func ResolveClientPins(app *composer.AbstractGraph, client device.ID) *composer.AbstractGraph {
	if app == nil || client == "" {
		return app
	}
	needs := false
	for _, n := range app.Nodes() {
		if n.Pin == ClientRole {
			needs = true
			break
		}
	}
	if !needs {
		return app
	}
	out := app.Clone()
	for _, n := range out.Nodes() {
		if n.Pin == ClientRole {
			n.Pin = string(client)
		}
	}
	return out
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
	c.mu.Lock()
	active, ok := c.sessions[sessionID]
	if ok {
		delete(c.sessions, sessionID)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: unknown session %q", sessionID)
	}
	active.Runtime.Stop()
	c.release(active)
	c.cfg.Checkpoints.Delete(sessionID)
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Gauge(metrics.ActiveSessions).Set(float64(c.Sessions()))
	}
	if m := c.classMeter(metrics.SessionCompletions, active.Class); m != nil {
		m.Mark(1)
	}
	c.cfg.Ledger.RecordStopped(sessionID)
	if log := c.sessionLog(obslog.LevelInfo, "core", sessionID, active.Request.TraceCtx.TraceID); log != nil {
		log.Info("session stopped")
	}
	return nil
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

// Suspend checkpoints a session at its interruption point, tears it down,
// releases its resources, and returns the exported state. Unlike
// Reconfigure, nothing is re-created: the state can be carried to another
// domain (the user moved to a new location) and resumed there with
// ResumeFrom.
func (c *Configurator) Suspend(sessionID string) (checkpoint.State, error) {
	c.mu.Lock()
	active, ok := c.sessions[sessionID]
	if ok {
		delete(c.sessions, sessionID)
	}
	c.mu.Unlock()
	if !ok {
		return checkpoint.State{}, fmt.Errorf("core: unknown session %q", sessionID)
	}
	stateSize := c.cfg.StateSizeMB
	if c.cfg.StateSizeFor != nil {
		stateSize = c.cfg.StateSizeFor(active.ClientDevice)
	}
	st := checkpoint.State{
		SessionID: sessionID,
		Position:  active.Runtime.Position(),
		SizeMB:    stateSize,
		SavedAt:   time.Now(),
	}
	active.Runtime.Stop()
	c.release(active)
	c.cfg.Checkpoints.Delete(sessionID)
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Gauge(metrics.ActiveSessions).Set(float64(c.Sessions()))
	}
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
	active, err := c.configure(req, true, explain.ActionResume)
	if err != nil {
		c.unreserve(req.SessionID)
	}
	return active, err
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
	active, err := c.configure(req, resuming, explain.ActionRecover)
	if err != nil {
		c.unreserve(req.SessionID)
	}
	return active, err
}

// Discard drops a session's orphaned recovery state (its checkpoint) after
// the supervisor gives up on it. Sessions still active must be stopped
// with Stop instead.
func (c *Configurator) Discard(sessionID string) {
	c.cfg.Checkpoints.Delete(sessionID)
}

// Reconfigure re-runs the configuration model for an existing session —
// invoked "whenever some significant changes are detected during runtime",
// e.g. the user switches devices or a device crashes. The old service
// graph is checkpointed at its interruption point, torn down, and a new
// graph composed, distributed, and resumed from the saved position; the
// returned session's Timing includes the state-handoff cost.
func (c *Configurator) Reconfigure(req Request) (*ActiveSession, error) {
	// Move the session from active to pending so a concurrent Configure of
	// the same ID cannot claim it mid-reconfiguration.
	c.mu.Lock()
	old, ok := c.sessions[req.SessionID]
	if ok {
		delete(c.sessions, req.SessionID)
		c.pending[req.SessionID] = true
		c.publishPendingLocked()
	}
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown session %q", req.SessionID)
	}

	// Checkpoint at the interruption point, then tear down.
	pos := old.Runtime.Position()
	stateSize := c.cfg.StateSizeMB
	if c.cfg.StateSizeFor != nil {
		stateSize = c.cfg.StateSizeFor(old.ClientDevice)
	}
	if err := c.cfg.Checkpoints.Save(checkpoint.State{
		SessionID: req.SessionID,
		Position:  pos,
		SizeMB:    stateSize,
	}); err != nil {
		// Restore bookkeeping: the old session keeps running.
		c.mu.Lock()
		delete(c.pending, req.SessionID)
		c.sessions[req.SessionID] = old
		c.publishPendingLocked()
		c.mu.Unlock()
		return nil, err
	}
	old.Runtime.Stop()
	c.release(old)

	// Transfer the state between the portal devices.
	var handoffTime time.Duration
	if old.ClientDevice != "" && req.ClientDevice != "" && old.ClientDevice != req.ClientDevice {
		d, err := c.cfg.Checkpoints.Handoff(c.cfg.Net, req.SessionID, string(old.ClientDevice), string(req.ClientDevice))
		if err != nil {
			c.unreserve(req.SessionID)
			return nil, fmt.Errorf("core: %w", err)
		}
		handoffTime = d
	}

	active, err := c.configure(req, true, explain.ActionReconfigure)
	if err != nil {
		c.unreserve(req.SessionID)
		return nil, err
	}
	active.Timing.InitOrHandoff += handoffTime
	if c.cfg.Metrics != nil {
		c.cfg.Metrics.Counter(metrics.Handoffs).Inc()
		c.cfg.Metrics.Histogram(metrics.HandoffTime).Observe(handoffTime)
	}
	return active, nil
}
