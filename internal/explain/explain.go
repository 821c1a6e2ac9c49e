// Package explain defines decision provenance: the per-session record of *why* each configuration decision came out the
// way it did. Where the trace layer shows that composition and
// distribution happened and the flight recorder shows when, the explain
// layer captures the alternatives each tier considered and the reasons
// the losers lost — the discovery candidate set behind every instance
// binding, every Ordered Coordination correction with the QoS vectors
// before and after it, the distributor's bound trajectory and runner-up
// cost, and the recovery supervisor's degradation-ladder steps.
//
// This package holds the record types, their diff, and their renderers;
// the records themselves live in each session's slot of the session
// store (internal/flight), which numbers them and bounds them per
// session. A nil *Record ignores every add, so disabled provenance
// costs nothing on the composer's hot path.
package explain

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ubiqos/internal/registry"
)

// Actions a Record can describe. The first four are configuration
// pipeline runs; the ladder actions are recovery-supervisor steps, and
// ActionAdmission marks an admission-gate decision that changed a
// request's fate (degraded or rejected it) before the pipeline ran.
const (
	ActionConfigure    = "configure"
	ActionReconfigure  = "reconfigure"
	ActionRecover      = "recover"
	ActionResume       = "resume"
	ActionRecoveryStep = "recovery-step"
	ActionAdmission    = "admission"
)

// Discovery is the provenance of one service-discovery binding: the
// abstract component, the full candidate set with per-candidate
// rejection reasons, and the outcome of the binding.
type Discovery struct {
	// Node is the (qualified) abstract component ID, Type its abstract
	// service type, and Depth the recursive-composition depth.
	Node  string `json:"node"`
	Type  string `json:"type"`
	Depth int    `json:"depth,omitempty"`
	// Outcome is "found", "skipped-optional", "recompose", or "missing".
	Outcome string `json:"outcome"`
	// Chosen names the winning instance (empty unless Outcome is found).
	Chosen string `json:"chosen,omitempty"`
	// Candidates is the ranked candidate set the decision was made over.
	Candidates []registry.Candidate `json:"candidates,omitempty"`
}

// Correction is one Ordered Coordination correction: which rule fired,
// where, and the producer-side QoS vector before and after.
type Correction struct {
	// Rule is "adjust", "transcoder", or "buffer".
	Rule string `json:"rule"`
	// Node is the adjusted predecessor (adjust) or the spliced
	// corrective component (transcoder/buffer).
	Node string `json:"node"`
	// Dim is the mismatched QoS dimension that triggered the rule.
	Dim string `json:"dim"`
	// Edge is the producer->consumer edge a corrective node was spliced
	// onto (splices only).
	Edge string `json:"edge,omitempty"`
	// From and To are the dimension's value before and after.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// BeforeQoS is the producer's full output QoS vector before the
	// correction; AfterQoS is the vector the consumer sees after it (the
	// adjusted producer's, or the spliced node's, output).
	BeforeQoS string `json:"beforeQoS"`
	AfterQoS  string `json:"afterQoS"`
}

// Search summarizes how the distribution tier solved one placement.
type Search struct {
	// Algorithm is the solver that ran (heuristic, optimal, optimal-warm,
	// plan-cache, or empty for a custom placement function).
	Algorithm string `json:"algorithm,omitempty"`
	// Explored, Pruned, and Incumbents are the branch-and-bound search
	// counters (for the heuristic: placements and fallbacks).
	Explored   int64 `json:"explored"`
	Pruned     int64 `json:"pruned"`
	Incumbents int64 `json:"incumbents,omitempty"`
	// BoundTrajectory is the sequence of incumbent costs the search
	// moved through, best last.
	BoundTrajectory []float64 `json:"boundTrajectory,omitempty"`
	// Cost is the winning placement's cost aggregation; RunnerUp is the
	// best strictly-worse complete solution observed (0 when none was).
	Cost     float64 `json:"cost"`
	RunnerUp float64 `json:"runnerUp,omitempty"`
	// Devices is how many devices the k-cut was computed over.
	Devices int `json:"devices,omitempty"`
	// CacheHit marks a placement served from the plan cache without any
	// search.
	CacheHit bool `json:"cacheHit,omitempty"`
	// Warm marks a warm-started solve; SeedCost is the incumbent cost the
	// search was seeded from and Reused counts the components whose
	// previous placement was fixed first in the variable order.
	Warm     bool    `json:"warm,omitempty"`
	SeedCost float64 `json:"seedCost,omitempty"`
	Reused   int     `json:"reused,omitempty"`
}

// LadderStep is one recovery-supervisor decision about a broken session.
type LadderStep struct {
	// Attempt is the 1-based recovery attempt number.
	Attempt int `json:"attempt"`
	// Reason is why recovery was triggered (the diagnosis).
	Reason string `json:"reason,omitempty"`
	// Degraded marks the degraded rung: optional components shed and
	// placement fallen back to the greedy heuristic.
	Degraded bool `json:"degraded,omitempty"`
	// Shed lists the optional components dropped by the degraded rung.
	Shed []string `json:"shed,omitempty"`
	// PlacementFallback names the algorithm the rung fell back to.
	PlacementFallback string `json:"placementFallback,omitempty"`
	// Warm marks a full-quality rung that warm-started the exact solver
	// from the broken session's incumbent placement; SeedCost is that
	// incumbent's cost (recovered outcome only).
	Warm     bool    `json:"warm,omitempty"`
	SeedCost float64 `json:"seedCost,omitempty"`
	// Restored marks a full-quality recovery that brought a previously
	// degraded session back to its original request (recovered outcome
	// only).
	Restored bool `json:"restored,omitempty"`
	// Outcome is "recovered", "retry", or "lost" ("broken" and "healed"
	// steps reach only the configurator's observer).
	Outcome string `json:"outcome"`
	// BackoffMs is the delay before the next retry (retry outcome only).
	BackoffMs float64 `json:"backoffMs,omitempty"`
	// Detail carries the retry error, the give-up reason, or the device.
	Detail string `json:"detail,omitempty"`
}

// AdmissionDecision is the provenance of one admission-gate verdict
// (ActionAdmission records).
type AdmissionDecision struct {
	// Verdict is admit-degraded or reject (plain admits leave no separate
	// record — the configure record itself is the provenance).
	Verdict string `json:"verdict"`
	// State is the effective saturation state the gate decided with;
	// Escalated marks it as bumped one level by SLO burn.
	State     string `json:"state"`
	Escalated bool   `json:"escalated,omitempty"`
	// SLOBurn is the configure-latency burn rate at decision time.
	SLOBurn float64 `json:"sloBurn,omitempty"`
	Reason  string  `json:"reason,omitempty"`
	// RetryAfterMs is the back-off hint handed to a rejected requester.
	RetryAfterMs float64 `json:"retryAfterMs,omitempty"`
	// Shed lists the optional components a degraded admission dropped.
	Shed []string `json:"shed,omitempty"`
}

// Record is one entry on a session's provenance timeline: a
// configuration pipeline run (Discoveries, Corrections and Search filled
// as far as it got, Placement on success) or a recovery-supervisor ladder
// step (Ladder filled).
type Record struct {
	// Seq is the store-wide monotonic sequence number.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Session and TraceID cross-link the record to the session's trace
	// and flight timeline.
	Session string `json:"session"`
	TraceID string `json:"traceId,omitempty"`
	// Action is one of the Action* constants.
	Action  string `json:"action"`
	Handoff bool   `json:"handoff,omitempty"`
	// Discoveries and Corrections are the composition tier's provenance;
	// Search is the distribution tier's (nil when the run failed before
	// placement).
	Discoveries []Discovery  `json:"discoveries,omitempty"`
	Corrections []Correction `json:"corrections,omitempty"`
	Search      *Search      `json:"search,omitempty"`
	// Placement and Cost describe the configuration (set only when the
	// action succeeded).
	Placement map[string]string `json:"placement,omitempty"`
	Cost      float64           `json:"cost,omitempty"`
	// Ladder is the recovery-supervisor step (ActionRecoveryStep only).
	Ladder *LadderStep `json:"ladder,omitempty"`
	// Admission is the admission-gate decision (ActionAdmission only).
	Admission *AdmissionDecision `json:"admission,omitempty"`
	// Err is why the action failed.
	Err string `json:"err,omitempty"`
}

// AddDiscovery appends one discovery decision. The composer fills a
// record single-threadedly during Compose; a nil *Record ignores every
// add, so the composer's hot path carries no conditionals beyond the nil
// receiver check.
func (rec *Record) AddDiscovery(d Discovery) {
	if rec == nil {
		return
	}
	rec.Discoveries = append(rec.Discoveries, d)
}

// AddCorrection appends one Ordered Coordination correction.
func (rec *Record) AddCorrection(x Correction) {
	if rec == nil {
		return
	}
	rec.Corrections = append(rec.Corrections, x)
}

// Move is one component's placement change between two records.
type Move struct {
	Component string `json:"component"`
	// From is empty for components new in the later placement; To is
	// empty for components that disappeared (e.g. shed optionals).
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
}

// PlacementDiff compares the placements of two successive successful
// records — e.g. pre- vs. post-crash.
type PlacementDiff struct {
	// FromSeq/ToSeq identify the compared records; FromAction/ToAction
	// are their actions (configure, reconfigure, recover, resume).
	FromSeq    uint64 `json:"fromSeq"`
	ToSeq      uint64 `json:"toSeq"`
	FromAction string `json:"fromAction"`
	ToAction   string `json:"toAction"`
	// Moved lists components whose device changed, Added components only
	// in the later placement, Removed components only in the earlier.
	Moved   []Move `json:"moved,omitempty"`
	Added   []Move `json:"added,omitempty"`
	Removed []Move `json:"removed,omitempty"`
	// Unchanged counts components that stayed put.
	Unchanged int `json:"unchanged"`
}

// DiffPlacements computes the placement diff between two records.
func DiffPlacements(from, to *Record) PlacementDiff {
	d := PlacementDiff{
		FromSeq: from.Seq, ToSeq: to.Seq,
		FromAction: from.Action, ToAction: to.Action,
	}
	comps := make([]string, 0, len(from.Placement)+len(to.Placement))
	seen := make(map[string]bool)
	for c := range from.Placement {
		comps = append(comps, c)
		seen[c] = true
	}
	for c := range to.Placement {
		if !seen[c] {
			comps = append(comps, c)
		}
	}
	sort.Strings(comps)
	for _, c := range comps {
		old, hadOld := from.Placement[c]
		cur, hasNew := to.Placement[c]
		switch {
		case hadOld && hasNew && old == cur:
			d.Unchanged++
		case hadOld && hasNew:
			d.Moved = append(d.Moved, Move{Component: c, From: old, To: cur})
		case hasNew:
			d.Added = append(d.Added, Move{Component: c, To: cur})
		default:
			d.Removed = append(d.Removed, Move{Component: c, From: old})
		}
	}
	return d
}

// SessionExplain is one session's full provenance report.
type SessionExplain struct {
	Session string   `json:"session"`
	Records []Record `json:"records"`
	// Diffs compares each pair of successive records that carry a
	// placement, oldest pair first — the reconfiguration history.
	Diffs []PlacementDiff `json:"diffs,omitempty"`
}

// SessionInfo summarizes one recorded session for index listings.
type SessionInfo struct {
	Session string    `json:"session"`
	Records int       `json:"records"` // retained (post-eviction) count
	Total   uint64    `json:"total"`   // lifetime count, including evicted
	Last    time.Time `json:"last"`    // time of the newest record
}

// Render formats one session's provenance report as human-readable
// text. It returns "" for an unknown session.
func (se *SessionExplain) Render() string {
	if se == nil || len(se.Records) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "explain %s (%d records)\n", se.Session, len(se.Records))
	for i := range se.Records {
		renderRecord(&b, &se.Records[i])
	}
	if len(se.Diffs) > 0 {
		b.WriteString("placement diffs:\n")
		for i := range se.Diffs {
			renderDiff(&b, &se.Diffs[i])
		}
	}
	fmt.Fprintf(&b, "cross-links: trace IDs above join the session's span trees "+
		"(qosctl trace -session %s) and fused flight timeline (qosctl flight -session %s, /flight/%s)\n",
		se.Session, se.Session, se.Session)
	return b.String()
}

func renderRecord(b *strings.Builder, rec *Record) {
	fmt.Fprintf(b, "#%d %s %s", rec.Seq, rec.Time.Format("15:04:05.000"), rec.Action)
	if rec.Handoff {
		b.WriteString(" handoff")
	}
	if rec.TraceID != "" {
		fmt.Fprintf(b, " trace=%s", rec.TraceID)
	}
	if rec.Err != "" {
		fmt.Fprintf(b, " FAILED: %s", rec.Err)
	} else if rec.Placement != nil {
		fmt.Fprintf(b, " cost=%.4f", rec.Cost)
	}
	b.WriteByte('\n')
	if rec.Ladder != nil {
		renderLadder(b, rec.Ladder)
	}
	if rec.Admission != nil {
		renderAdmission(b, rec.Admission)
	}
	for _, d := range rec.Discoveries {
		fmt.Fprintf(b, "    discover %s (%s): %s", d.Node, d.Type, d.Outcome)
		if d.Chosen != "" {
			fmt.Fprintf(b, " -> %s", d.Chosen)
		}
		b.WriteByte('\n')
		for _, c := range d.Candidates {
			mark := " "
			if c.Chosen {
				mark = "*"
			}
			fmt.Fprintf(b, "      %s %s score=%d", mark, c.Name, c.Score)
			if c.Rejection != "" {
				fmt.Fprintf(b, " rejected: %s", c.Rejection)
			}
			b.WriteByte('\n')
		}
	}
	for _, c := range rec.Corrections {
		fmt.Fprintf(b, "    correction %s on %s dim=%s", c.Rule, c.Node, c.Dim)
		if c.Edge != "" {
			fmt.Fprintf(b, " edge=%s", c.Edge)
		}
		if c.From != "" || c.To != "" {
			fmt.Fprintf(b, " %s -> %s", c.From, c.To)
		}
		fmt.Fprintf(b, "\n      before %s\n      after  %s\n", c.BeforeQoS, c.AfterQoS)
	}
	if s := rec.Search; s != nil {
		fmt.Fprintf(b, "    search %s: devices=%d explored=%d pruned=%d incumbents=%d cost=%.4f",
			s.Algorithm, s.Devices, s.Explored, s.Pruned, s.Incumbents, s.Cost)
		if s.RunnerUp > 0 {
			fmt.Fprintf(b, " runnerUp=%.4f", s.RunnerUp)
		}
		if s.CacheHit {
			b.WriteString(" (served from plan cache)")
		}
		b.WriteByte('\n')
		if s.Warm {
			fmt.Fprintf(b, "      warm-started from incumbent cost %.4f (%d placements reused)\n",
				s.SeedCost, s.Reused)
		}
		if len(s.BoundTrajectory) > 0 {
			b.WriteString("      bound trajectory:")
			for _, c := range s.BoundTrajectory {
				fmt.Fprintf(b, " %.4f", c)
			}
			b.WriteByte('\n')
		}
	}
	if rec.Placement != nil {
		comps := make([]string, 0, len(rec.Placement))
		for c := range rec.Placement {
			comps = append(comps, c)
		}
		sort.Strings(comps)
		b.WriteString("  placement:")
		for _, c := range comps {
			fmt.Fprintf(b, " %s->%s", c, rec.Placement[c])
		}
		b.WriteByte('\n')
	}
}

func renderLadder(b *strings.Builder, l *LadderStep) {
	fmt.Fprintf(b, "  ladder attempt %d: %s", l.Attempt, l.Outcome)
	if l.Degraded {
		b.WriteString(" degraded")
		if len(l.Shed) > 0 {
			fmt.Fprintf(b, " shed=%s", strings.Join(l.Shed, ","))
		}
		if l.PlacementFallback != "" {
			fmt.Fprintf(b, " place=%s", l.PlacementFallback)
		}
	} else if l.Warm {
		b.WriteString(" warm")
		if l.SeedCost > 0 {
			fmt.Fprintf(b, " warm-started from incumbent cost %.4f", l.SeedCost)
		}
	}
	if l.Restored {
		b.WriteString(" restored-to-full-qos")
	}
	if l.Reason != "" {
		fmt.Fprintf(b, " reason=%q", l.Reason)
	}
	if l.BackoffMs > 0 {
		fmt.Fprintf(b, " backoff=%.1fms", l.BackoffMs)
	}
	if l.Detail != "" {
		fmt.Fprintf(b, " detail=%q", l.Detail)
	}
	b.WriteByte('\n')
}

func renderAdmission(b *strings.Builder, d *AdmissionDecision) {
	fmt.Fprintf(b, "  admission %s: space %s", d.Verdict, d.State)
	if d.Escalated {
		fmt.Fprintf(b, " (escalated by slo burn %.2f)", d.SLOBurn)
	}
	if len(d.Shed) > 0 {
		fmt.Fprintf(b, " shed=%s", strings.Join(d.Shed, ","))
	}
	if d.RetryAfterMs > 0 {
		fmt.Fprintf(b, " retry-after=%.0fms", d.RetryAfterMs)
	}
	if d.Reason != "" {
		fmt.Fprintf(b, " reason=%q", d.Reason)
	}
	b.WriteByte('\n')
}

func renderDiff(b *strings.Builder, d *PlacementDiff) {
	fmt.Fprintf(b, "  #%d (%s) -> #%d (%s): %d unchanged",
		d.FromSeq, d.FromAction, d.ToSeq, d.ToAction, d.Unchanged)
	b.WriteByte('\n')
	for _, m := range d.Moved {
		fmt.Fprintf(b, "    moved   %s: %s -> %s\n", m.Component, m.From, m.To)
	}
	for _, m := range d.Added {
		fmt.Fprintf(b, "    added   %s -> %s\n", m.Component, m.To)
	}
	for _, m := range d.Removed {
		fmt.Fprintf(b, "    removed %s (was %s)\n", m.Component, m.From)
	}
}
