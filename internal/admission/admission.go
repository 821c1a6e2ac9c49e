// Package admission is the actuation half of the paper's §3.3
// admission-over-residual-capacity model: a gate the configurator
// consults before a new session's pipeline runs. The gate reads the
// capacity observatory's saturation verdict and the configure-latency SLO
// burn rate, applies a per-class policy, and answers admit /
// admit-degraded / reject-with-retry-after. Degraded admission reuses the
// recovery ladder's shed rung at admission time — optional components are
// stripped and placement falls back to the cheap heuristic — so a
// pressured space trades session quality for session count instead of
// failing requests after the expensive pipeline has already run.
package admission

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ubiqos/internal/capacity"
	"ubiqos/internal/metrics"
)

// Verdict is the gate's answer for one request.
type Verdict string

const (
	// Admit lets the request run the full pipeline at full quality.
	Admit Verdict = "admit"
	// AdmitDegraded admits the request with optional components shed and
	// heuristic (cheapest-first) placement.
	AdmitDegraded Verdict = "admit-degraded"
	// Reject refuses the request outright, with a retry-after hint.
	Reject Verdict = "reject"
)

// Never is a threshold state no analyzer verdict reaches: a policy with
// DegradeAt (or RejectAt) set to Never disables that rung for the class.
const Never = capacity.StateSaturated + 1

// DefaultRetryAfter is the retry hint attached to rejections when the
// class policy does not set one.
const DefaultRetryAfter = 2 * time.Second

// ClassPolicy says how one session class responds to space saturation.
// Thresholds are inclusive: the rung applies at that state or worse.
type ClassPolicy struct {
	// DegradeAt is the effective state at which new sessions are admitted
	// degraded (shed optionals, heuristic placement).
	DegradeAt capacity.State `json:"degradeAt"`
	// RejectAt is the effective state at which new sessions are rejected.
	RejectAt capacity.State `json:"rejectAt"`
	// RetryAfter is the hint attached to rejections (0 selects
	// DefaultRetryAfter).
	RetryAfter time.Duration `json:"retryAfter"`
}

// DefaultPolicies returns the stock per-class tuning: voice holds full
// quality until the space saturates (its QoS degrades badly, so reject
// beats degrade), background sheds as soon as the space is approaching,
// and everything else degrades at approaching and rejects at saturated.
func DefaultPolicies() map[string]ClassPolicy {
	return map[string]ClassPolicy{
		"voice":      {DegradeAt: Never, RejectAt: capacity.StateSaturated},
		"background": {DegradeAt: capacity.StateApproaching, RejectAt: capacity.StateSaturated},
	}
}

// DefaultPolicy is the fallback for classes without an explicit policy.
func DefaultPolicy() ClassPolicy {
	return ClassPolicy{DegradeAt: capacity.StateApproaching, RejectAt: capacity.StateSaturated}
}

// Decision is one gate answer, carried into explain records and wire
// error responses.
type Decision struct {
	Verdict Verdict `json:"verdict"`
	Class   string  `json:"class"`
	// State is the effective saturation state the decision used; Escalated
	// marks it as bumped one level by SLO burn.
	State     capacity.State `json:"state"`
	StateStr  string         `json:"stateStr"`
	Escalated bool           `json:"escalated,omitempty"`
	// SLOBurn is the configure-latency objective's burn rate at decision
	// time (actual/target; >1 means the objective is violated).
	SLOBurn float64 `json:"sloBurn"`
	Reason  string  `json:"reason,omitempty"`
	// RetryAfterMs is the rejection back-off hint (0 unless rejected).
	RetryAfterMs float64 `json:"retryAfterMs,omitempty"`
}

// RetryAfter returns the back-off hint as a duration.
func (d Decision) RetryAfter() time.Duration {
	return time.Duration(d.RetryAfterMs * float64(time.Millisecond))
}

// RejectedError is the typed error a rejected Configure returns, so the
// wire layer can attach the decision and its retry-after hint to the
// error response.
type RejectedError struct {
	Decision Decision
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("admission: class %q rejected (%s, retry after %s)",
		e.Decision.Class, e.Decision.Reason, e.Decision.RetryAfter())
}

// Signals are the gate's inputs, wired by the domain: the saturation
// analyzer's verdict and the configure-latency SLO burn rate.
type Signals struct {
	Report  func() capacity.Report
	SLOBurn func() float64
}

// Options configures a Gate.
type Options struct {
	Signals Signals
	// Policies overrides per-class policy (nil selects DefaultPolicies);
	// unlisted classes get DefaultPolicy.
	Policies map[string]ClassPolicy
	// Metrics, when set, receives admissions_total counters and the
	// admission_state gauge.
	Metrics *metrics.Registry
}

// ClassCounts is one class's decision tally in a Status snapshot.
type ClassCounts struct {
	Class    string `json:"class"`
	Admitted int64  `json:"admitted"`
	Degraded int64  `json:"degraded"`
	Rejected int64  `json:"rejected"`
}

// Status is the gate's introspection snapshot (the /admission endpoint
// and `qosctl admit`).
type Status struct {
	State    capacity.State         `json:"state"` // effective, at snapshot time
	StateStr string                 `json:"stateStr"`
	SLOBurn  float64                `json:"sloBurn"`
	Default  ClassPolicy            `json:"default"`
	Policies map[string]ClassPolicy `json:"policies"`
	Classes  []ClassCounts          `json:"classes"`
}

// Gate decides admission for new sessions. It is safe for concurrent use.
type Gate struct {
	signals Signals
	reg     *metrics.Registry

	mu       sync.Mutex
	policies map[string]ClassPolicy
	def      ClassPolicy
	counts   map[string]*ClassCounts
}

// New returns a gate over the given signals. Signals.Report must be set;
// a nil SLOBurn reads as 0 (no latency pressure).
func New(opts Options) *Gate {
	g := &Gate{
		signals:  opts.Signals,
		reg:      opts.Metrics,
		policies: opts.Policies,
		def:      DefaultPolicy(),
		counts:   make(map[string]*ClassCounts),
	}
	if g.policies == nil {
		g.policies = DefaultPolicies()
	}
	if g.signals.SLOBurn == nil {
		g.signals.SLOBurn = func() float64 { return 0 }
	}
	return g
}

// policyFor resolves the class policy. Callers hold g.mu.
func (g *Gate) policyFor(class string) ClassPolicy {
	p, ok := g.policies[class]
	if !ok {
		p = g.def
	}
	if p.RetryAfter <= 0 {
		p.RetryAfter = DefaultRetryAfter
	}
	return p
}

// decide computes a decision without recording it.
func (g *Gate) decide(class string) Decision {
	rep := g.signals.Report()
	burn := g.signals.SLOBurn()
	state := rep.Space
	escalated := false
	// A violated latency SLO is saturation the headroom gauges cannot see
	// (e.g. download stalls), so it escalates the effective state one
	// level. At-risk burn (<1) only informs the reason string.
	if burn > 1 && state < capacity.StateSaturated {
		state++
		escalated = true
	}
	g.mu.Lock()
	pol := g.policyFor(class)
	g.mu.Unlock()

	d := Decision{
		Verdict:   Admit,
		Class:     class,
		State:     state,
		StateStr:  state.String(),
		Escalated: escalated,
		SLOBurn:   burn,
	}
	cause := fmt.Sprintf("space %s (headroom %.2f)", state, rep.SpaceHeadroom)
	if escalated {
		cause = fmt.Sprintf("space %s escalated from %s (slo burn %.2f)", state, rep.Space, burn)
	}
	switch {
	case state >= pol.RejectAt:
		d.Verdict = Reject
		d.Reason = cause
		d.RetryAfterMs = float64(pol.RetryAfter) / float64(time.Millisecond)
	case state >= pol.DegradeAt:
		d.Verdict = AdmitDegraded
		d.Reason = cause
	}
	return d
}

// Admit decides one request and records the decision in the gate's
// tallies and metrics.
func (g *Gate) Admit(class string) Decision {
	d := g.decide(class)
	g.mu.Lock()
	c, ok := g.counts[class]
	if !ok {
		c = &ClassCounts{Class: class}
		g.counts[class] = c
	}
	switch d.Verdict {
	case Admit:
		c.Admitted++
	case AdmitDegraded:
		c.Degraded++
	case Reject:
		c.Rejected++
	}
	g.mu.Unlock()
	if g.reg != nil {
		name := metrics.WithLabel(metrics.AdmissionsTotal, "class", class)
		g.reg.Counter(metrics.WithLabel(name, "verdict", string(d.Verdict))).Inc()
		g.reg.Gauge(metrics.AdmissionState).Set(float64(d.State))
	}
	return d
}

// Preview decides one request without recording it — the dry-run behind
// `qosctl admit -class`.
func (g *Gate) Preview(class string) Decision { return g.decide(class) }

// Status snapshots the gate's policy table and per-class tallies.
func (g *Gate) Status() Status {
	rep := g.signals.Report()
	burn := g.signals.SLOBurn()
	state := rep.Space
	if burn > 1 && state < capacity.StateSaturated {
		state++
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	st := Status{
		State:    state,
		StateStr: state.String(),
		SLOBurn:  burn,
		Default:  g.def,
		Policies: make(map[string]ClassPolicy, len(g.policies)),
		Classes:  make([]ClassCounts, 0, len(g.counts)),
	}
	for class, p := range g.policies {
		st.Policies[class] = p
	}
	for _, c := range g.counts {
		st.Classes = append(st.Classes, *c)
	}
	sort.Slice(st.Classes, func(i, j int) bool { return st.Classes[i].Class < st.Classes[j].Class })
	return st
}
