package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"time"

	"ubiqos/internal/composer"
	"ubiqos/internal/device"
	"ubiqos/internal/distributor"
	"ubiqos/internal/eventbus"
	"ubiqos/internal/explain"
	"ubiqos/internal/graph"
	"ubiqos/internal/par"
	"ubiqos/internal/trace"
)

// errSupervisorStopped ends a recovery pass once Stop is called: the pool
// then starts no new task.
var errSupervisorStopped = errors.New("core: supervisor stopped")

// SupervisorOptions tunes the recovery supervisor.
type SupervisorOptions struct {
	// Bus is the domain's event service; the supervisor subscribes
	// losslessly to device.left, resource.changed, and device.switched.
	Bus *eventbus.Bus
	// BaseBackoff is the delay before the first retry (default 10ms);
	// subsequent retries double it up to MaxBackoff (default 1s), with
	// seeded jitter on top.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Deadline bounds how long a session may stay broken before recovery
	// degrades it: past the deadline (default 500ms), attempts shed
	// optional components and fall back from the configured placement
	// algorithm to the greedy heuristic.
	Deadline time.Duration
	// DegradeAfter is the attempt count that also triggers degraded mode
	// (default 2), so a session whose full-quality re-placement keeps
	// failing stops burning retries on it even before the deadline.
	DegradeAfter int
	// MaxAttempts is the per-session give-up threshold (default 6). A
	// session still unplaceable after MaxAttempts is stopped, its
	// checkpoint discarded, and the user notified.
	MaxAttempts int
	// InitialDelay postpones a newly queued task's first recovery
	// attempt (default 0 = attempt immediately). It damps recovery on
	// flapping devices and lets chaos drills model operator-scale
	// repair times instead of sub-millisecond heals.
	InitialDelay time.Duration
	// Seed makes the retry jitter deterministic for reproducible
	// experiments: the jitter of one retry is a function of the seed, the
	// session and the attempt number alone.
	Seed int64
}

func (o *SupervisorOptions) defaults() {
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 10 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.Deadline <= 0 {
		o.Deadline = 500 * time.Millisecond
	}
	if o.DegradeAfter <= 0 {
		o.DegradeAfter = 2
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 6
	}
}

// SupervisorStats is a snapshot of the supervisor's lifetime counters.
type SupervisorStats struct {
	// Attempts counts recovery pipeline runs (initial tries and retries).
	Attempts int64
	// Retries counts re-queued attempts after a failure.
	Retries int64
	// Recovered counts sessions brought back to a running state.
	Recovered int64
	// Degraded counts recoveries that had to shed optional components or
	// fall back to heuristic placement.
	Degraded int64
	// Restored counts degraded→restored transitions: sessions previously
	// recovered on the degraded path that a later full-QoS recovery
	// brought back to their original request (optionals re-placed,
	// exact placement restored).
	Restored int64
	// Lost counts sessions given up on (portal gone, or MaxAttempts
	// exhausted).
	Lost int64
	// Backlog is the number of sessions awaiting recovery.
	Backlog int
	// WarmSpeedup is the explored-node ratio of the last warm recovery
	// that measured one: the solve that produced the incumbent over the
	// warm re-solve (0 until then).
	WarmSpeedup float64
}

// recoveryTask tracks one broken session through its retry schedule.
type recoveryTask struct {
	sessionID string
	// req is the session's configuration request, captured when the fault
	// was detected: a failed recovery attempt tears the session down, so
	// later retries cannot re-read it from the configurator.
	req Request
	// dev is the device whose fault stranded the session (for notices).
	dev       device.ID
	reason    string
	attempts  int
	degraded  bool
	firstSeen time.Time
	due       time.Time
	// incumbent is the broken session's last committed placement and
	// cost, captured at enqueue time to warm-start the re-solve:
	// full-quality attempts seed the branch-and-bound from it so only the
	// lost device's components are genuinely re-searched.
	incumbent *distributor.Incumbent
	// prevExplored is the explored-node count of the solve that produced
	// the incumbent, for the warm-speedup gauge.
	prevExplored int64
}

// Supervisor is the self-healing loop of the configuration model: it
// subscribes losslessly to runtime-change events and re-runs the
// compose→distribute pipeline for every session the change broke, with
// capped exponential backoff between attempts, a degradation ladder
// (shed optional components, heuristic placement) once the recovery
// deadline is blown, and a bounded give-up that notifies the user — the
// paper's "whenever some significant changes are detected during runtime,
// the service configuration protocol is re-executed", made crash-safe.
type Supervisor struct {
	c    *Configurator
	opts SupervisorOptions
	sub  *eventbus.Subscription

	mu    sync.Mutex
	tasks map[string]*recoveryTask
	busy  bool
	stats SupervisorStats
	// degraded remembers, per session recovered on the degraded path,
	// the original full-quality request (captured before optionals were
	// shed), so a later recovery can try to restore the session — and so
	// the restoration can be detected and counted when it succeeds.
	degraded map[string]Request

	stopOnce sync.Once
	stopped  chan struct{}
	exited   chan struct{}
}

// NewSupervisor starts a recovery supervisor over the configurator. Stop
// it with Stop; it also exits when the bus closes.
func NewSupervisor(c *Configurator, opts SupervisorOptions) (*Supervisor, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil configurator")
	}
	if opts.Bus == nil {
		return nil, fmt.Errorf("core: supervisor needs an event bus")
	}
	opts.defaults()
	sub, err := opts.Bus.SubscribeLossless(
		eventbus.TopicDeviceLeft,
		eventbus.TopicResourceChanged,
		eventbus.TopicDeviceSwitched,
	)
	if err != nil {
		return nil, err
	}
	s := &Supervisor{
		c:        c,
		opts:     opts,
		sub:      sub,
		tasks:    make(map[string]*recoveryTask),
		degraded: make(map[string]Request),
		stopped:  make(chan struct{}),
		exited:   make(chan struct{}),
	}
	go s.run()
	return s, nil
}

// Stop cancels the subscription and waits for the worker to exit. Pending
// recovery tasks are abandoned (their sessions keep whatever state they
// had): attempts already running finish, and no further one starts. Stop
// is idempotent.
func (s *Supervisor) Stop() {
	s.stopOnce.Do(func() {
		close(s.stopped)
		s.sub.Cancel()
	})
	<-s.exited
}

// Stats returns a snapshot of the lifetime counters and the backlog.
func (s *Supervisor) Stats() SupervisorStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Backlog = len(s.tasks)
	return st
}

// AwaitIdle blocks until the supervisor has no queued events and no
// pending recovery tasks (i.e. the smart space is quiescent again), or
// until the timeout elapses. It reports whether idleness was reached.
func (s *Supervisor) AwaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	quiet := 0
	for time.Now().Before(deadline) {
		s.mu.Lock()
		idle := len(s.tasks) == 0 && !s.busy
		s.mu.Unlock()
		if idle && s.sub.Pending() == 0 {
			// A momentary zero can hide an event mid-handoff in the bus
			// pump; require two consecutive quiet polls.
			quiet++
			if quiet >= 2 {
				return true
			}
		} else {
			quiet = 0
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// run is the worker loop: wake on a bus event (scan for broken sessions)
// or on the next retry deadline (process due tasks).
func (s *Supervisor) run() {
	defer close(s.exited)
	for {
		var timer *time.Timer
		var timerC <-chan time.Time
		if due, ok := s.nextDue(); ok {
			d := time.Until(due)
			if d < 0 {
				d = 0
			}
			timer = time.NewTimer(d)
			timerC = timer.C
		}
		select {
		case ev, ok := <-s.sub.C():
			if timer != nil {
				timer.Stop()
			}
			if !ok {
				return
			}
			s.setBusy(true)
			s.scan(ev.Time)
			s.process()
			s.setBusy(false)
		case <-timerC:
			s.setBusy(true)
			s.process()
			s.setBusy(false)
		case <-s.stopped:
			if timer != nil {
				timer.Stop()
			}
			return
		}
	}
}

func (s *Supervisor) setBusy(b bool) {
	s.mu.Lock()
	s.busy = b
	s.mu.Unlock()
}

func (s *Supervisor) nextDue() (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var min time.Time
	found := false
	for _, t := range s.tasks {
		if !found || t.due.Before(min) {
			min = t.due
			found = true
		}
	}
	return min, found
}

// scan walks every active session and queues a recovery task for each one
// the current environment can no longer support. The event payload is
// deliberately ignored: health is re-derived from the device and link
// tables, so a burst of coalesced events costs one scan.
func (s *Supervisor) scan(at time.Time) {
	for _, sid := range s.c.SessionIDs() {
		active := s.c.Session(sid)
		if active == nil {
			continue
		}
		dev, reason, broken := s.diagnose(active)
		if !broken {
			continue
		}
		s.enqueue(sid, active.Request, dev, reason, at)
	}
}

// diagnose reports whether the session's current placement is still
// supportable: every hosting device up and within capacity, every
// reserved link within its (possibly degraded) bandwidth.
func (s *Supervisor) diagnose(active *ActiveSession) (device.ID, string, bool) {
	seen := map[device.ID]bool{}
	for _, dev := range active.Placement {
		if seen[dev] {
			continue
		}
		seen[dev] = true
		d := s.c.cfg.Devices.Get(dev)
		if d == nil || !d.Up() {
			return dev, "component host left the smart space", true
		}
		if !d.Committed().LessEq(d.Capacity()) {
			return dev, "component host overcommitted after fluctuation", true
		}
	}
	for pair := range active.demands {
		const eps = 1e-9
		if s.c.cfg.Links.Reserved(pair[0], pair[1]) > s.c.cfg.Links.Capacity(pair[0], pair[1])+eps {
			return pair[0], fmt.Sprintf("link %s-%s overcommitted after degradation", pair[0], pair[1]), true
		}
	}
	return "", "", false
}

func (s *Supervisor) enqueue(sid string, req Request, dev device.ID, reason string, at time.Time) {
	s.mu.Lock()
	if t, ok := s.tasks[sid]; ok {
		// Already being recovered; refresh the trigger but keep the
		// attempt counter and schedule.
		t.dev, t.reason = dev, reason
		s.mu.Unlock()
		return
	}
	// A session recovered degraded carries a shed request; recover from
	// the remembered original instead, so a healthier space restores the
	// optionals rather than cementing the degraded shape.
	restoring := false
	if orig, ok := s.degraded[sid]; ok {
		req = orig
		restoring = true
	}
	task := &recoveryTask{
		sessionID: sid,
		req:       req,
		dev:       dev,
		reason:    reason,
		firstSeen: at,
		due:       time.Now().Add(s.opts.InitialDelay),
	}
	// The warm-start incumbent only helps when it covers the same graph;
	// a restoration re-solves the full (un-shed) graph cold.
	if active := s.c.Session(sid); active != nil && len(active.Placement) > 0 && !restoring {
		placement := make(map[graph.NodeID]device.ID, len(active.Placement))
		for id, d := range active.Placement {
			placement[id] = d
		}
		task.incumbent = &distributor.Incumbent{Placement: placement, Cost: active.Cost}
		task.prevExplored = active.SearchExplored
	}
	s.tasks[sid] = task
	s.mu.Unlock()
	s.report(req, &explain.LadderStep{Reason: reason, Outcome: "broken", Detail: string(dev)}, "", nil, 0)
}

// report hands one recovery-ladder step to the configurator's observer
// with the supervisor's counters after it.
func (s *Supervisor) report(req Request, step *explain.LadderStep, traceID string, tr *trace.Trace, down time.Duration) {
	if obs := s.c.cfg.Observer; obs != nil {
		rec := explain.Record{Session: req.SessionID, TraceID: traceID, Action: explain.ActionRecoveryStep, Ladder: step}
		obs.Step(req, rec, tr, down, s.Stats())
	}
}

// process runs every due recovery task once and returns when all have
// run. The tasks run in fault order — by the time their fault was seen,
// then by session ID — on one worker per available CPU, each worker
// taking the next task in that order; with one worker they run inline.
// Recoveries of distinct sessions are as independent as concurrent
// configures, so the k-th broken session of a fault need not wait for
// the k-1 before it. A worker takes no new task once Stop is called.
func (s *Supervisor) process() {
	now := time.Now()
	s.mu.Lock()
	var due []*recoveryTask
	for _, t := range s.tasks {
		if !t.due.After(now) {
			due = append(due, t)
		}
	}
	s.mu.Unlock()
	sort.Slice(due, func(i, j int) bool {
		if !due[i].firstSeen.Equal(due[j].firstSeen) {
			return due[i].firstSeen.Before(due[j].firstSeen)
		}
		return due[i].sessionID < due[j].sessionID
	})
	// The one error is errSupervisorStopped, and Stop needs nothing more.
	_ = par.ForEach(len(due), runtime.GOMAXPROCS(0), func(i int) error {
		select {
		case <-s.stopped:
			return errSupervisorStopped
		default:
		}
		s.attempt(due[i])
		return nil
	})
}

// attempt runs one recovery for the task, deciding between full-quality
// and degraded re-placement, and either finishes the task or re-queues it
// with backoff.
func (s *Supervisor) attempt(t *recoveryTask) {
	// Re-check health: the fault may have cleared while the task waited
	// (the device rejoined, the link was restored, or a device switch
	// re-placed the session).
	if active := s.c.Session(t.sessionID); active != nil {
		if _, _, broken := s.diagnose(active); !broken {
			s.finish(t.sessionID)
			s.report(t.req, &explain.LadderStep{Attempt: t.attempts, Reason: t.reason, Outcome: "healed"}, "", nil, 0)
			return
		}
	}
	// A lost portal cannot be healed by re-placement: only the user can
	// pick a new portal device.
	if d := s.c.cfg.Devices.Get(t.req.ClientDevice); d == nil || !d.Up() {
		s.giveUp(t, "portal device left the smart space", nil)
		return
	}

	degraded := t.attempts >= s.opts.DegradeAfter || time.Since(t.firstSeen) > s.opts.Deadline
	req := t.req
	step := &explain.LadderStep{Attempt: t.attempts + 1, Reason: t.reason, Degraded: degraded}
	if degraded {
		req.Place = distributor.Heuristic
		step.PlacementFallback = "heuristic"
		req.App, step.Shed = ShedOptional(req.App)
		t.degraded = true
	} else if t.incumbent != nil {
		// Full-quality rung: warm-start the exact solver from the broken
		// session's last placement, so only the components stranded by the
		// fault are genuinely re-searched. The heuristic fallback above
		// takes over once the deadline or attempt budget is blown.
		inc := t.incumbent
		req.Place = func(p *distributor.Problem) (distributor.Assignment, float64, error) {
			return distributor.OptimalWarm(p, inc)
		}
		step.PlacementFallback = "optimal-warm"
		step.Warm = true
	}

	var tr *trace.Trace
	traceID := ""
	if obs := s.c.cfg.Observer; obs != nil {
		tr, _, _ = obs.Begin(t.req, explain.Record{Session: t.sessionID, Action: explain.ActionRecoveryStep, Ladder: step})
		traceID = tr.Context().TraceID
	}
	s.mu.Lock()
	s.stats.Attempts++
	s.mu.Unlock()
	active, err := s.c.Recover(req)
	tr.Root().SetErr(err)
	tr.Finish()

	if err == nil {
		s.mu.Lock()
		s.stats.Recovered++
		if degraded {
			s.stats.Degraded++
			s.degraded[t.sessionID] = t.req
		} else {
			// A full-quality recovery of a session previously recovered
			// degraded is a restoration: the original request (optionals
			// included) is running again.
			_, step.Restored = s.degraded[t.sessionID]
			delete(s.degraded, t.sessionID)
			if step.Restored {
				s.stats.Restored++
			}
		}
		if step.Warm && t.prevExplored > 0 && active.SearchExplored > 0 {
			s.stats.WarmSpeedup = float64(t.prevExplored) / float64(active.SearchExplored)
		}
		delete(s.tasks, t.sessionID)
		s.mu.Unlock()
		if step.Warm {
			step.SeedCost = t.incumbent.Cost
		}
		step.Outcome = "recovered"
		s.report(t.req, step, traceID, tr, time.Since(t.firstSeen))
		s.opts.Bus.Publish(eventbus.TopicSessionRecovered, t.sessionID)
		if step.Restored {
			s.opts.Bus.Publish(eventbus.TopicSessionRestored, t.sessionID)
		}
		return
	}

	t.attempts++
	if t.attempts >= s.opts.MaxAttempts {
		s.giveUp(t, fmt.Sprintf("no feasible placement after %d attempts: %v", t.attempts, err), tr)
		return
	}
	backoff := s.backoff(t.sessionID, t.attempts)
	t.due = time.Now().Add(backoff)
	s.mu.Lock()
	s.stats.Retries++
	s.mu.Unlock()
	step.Outcome = "retry"
	step.BackoffMs = float64(backoff) / float64(time.Millisecond)
	step.Detail = err.Error()
	s.report(t.req, step, traceID, tr, 0)
}

// backoff returns base·2^(attempt-1) capped at MaxBackoff, plus up to 50%
// jitter so a burst of broken sessions does not retry in lockstep. The
// jitter is a hash of (Seed, session, attempt), not a draw from a shared
// generator, so it does not depend on the order concurrent attempts fail
// in.
func (s *Supervisor) backoff(sid string, attempt int) time.Duration {
	d := s.opts.BaseBackoff
	for i := 1; i < attempt && d < s.opts.MaxBackoff; i++ {
		d *= 2
	}
	if d > s.opts.MaxBackoff {
		d = s.opts.MaxBackoff
	}
	var key [16]byte
	binary.LittleEndian.PutUint64(key[:8], uint64(s.opts.Seed))
	binary.LittleEndian.PutUint64(key[8:], uint64(attempt))
	h := fnv.New64a()
	h.Write(key[:])
	h.Write([]byte(sid))
	return d + time.Duration(h.Sum64()%uint64(d/2+1))
}

// giveUp abandons the session: whatever is left of it is stopped, its
// checkpoint discarded, and the user notified that intervention is needed.
// tr is the trace of the attempt that exhausted the budget, if one ran.
func (s *Supervisor) giveUp(t *recoveryTask, reason string, tr *trace.Trace) {
	s.mu.Lock()
	delete(s.tasks, t.sessionID)
	delete(s.degraded, t.sessionID)
	s.stats.Lost++
	s.mu.Unlock()
	// Report the loss before Stop reports a stop, so the session's
	// account ends lost rather than completed.
	s.report(t.req, &explain.LadderStep{
		Attempt: t.attempts, Reason: t.reason, Degraded: t.degraded,
		Outcome: "lost", Detail: reason,
	}, t.req.TraceCtx.TraceID, tr, 0)
	if s.c.Session(t.sessionID) != nil {
		_ = s.c.Stop(t.sessionID)
	} else {
		// Drop the orphaned recovery state (its checkpoint).
		s.c.cfg.Checkpoints.Delete(t.sessionID)
	}
	s.opts.Bus.Publish(eventbus.TopicUserNotification, SessionLostNotice{
		SessionID: t.sessionID,
		Device:    t.dev,
		Reason:    reason,
	})
}

func (s *Supervisor) finish(sid string) {
	s.mu.Lock()
	delete(s.tasks, sid)
	s.mu.Unlock()
}

// ShedOptional strips optional services from an abstract graph — the
// degraded-mode trade: keep the mandatory pipeline alive rather than fail
// to place the enhanced one. It returns the stripped graph and the sorted
// IDs of the components it dropped.
func ShedOptional(app *composer.AbstractGraph) (*composer.AbstractGraph, []string) {
	if app == nil {
		return nil, nil
	}
	var shed []string
	for _, n := range app.Nodes() {
		if n.Optional {
			shed = append(shed, string(n.ID))
		}
	}
	sort.Strings(shed)
	return shedOptional(app), shed
}

// shedOptional strips optional services (and their edges) from an
// abstract graph, returning it unchanged when it has none.
func shedOptional(app *composer.AbstractGraph) *composer.AbstractGraph {
	if app == nil {
		return nil
	}
	drop := make(map[graph.NodeID]bool)
	for _, n := range app.Nodes() {
		if n.Optional {
			drop[n.ID] = true
		}
	}
	if len(drop) == 0 {
		return app
	}
	out := composer.NewAbstractGraph()
	for _, n := range app.Nodes() {
		if n.Optional {
			continue
		}
		cp := *n
		out.MustAddNode(&cp)
	}
	for _, e := range app.Edges() {
		if drop[e.From] || drop[e.To] {
			continue
		}
		out.MustAddEdge(e.From, e.To, e.ThroughputMbps)
	}
	return out
}
