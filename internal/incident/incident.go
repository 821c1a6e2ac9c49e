// Package incident implements the domain's incident correlation
// engine: three rules watch the health signals the daemon already
// produces — SLO burn rates (internal/metrics), saturation verdicts
// (internal/capacity), and fault storms and device churn
// (internal/faultinject via the counters they bump) — and fuse them
// into operator-grade incidents with a lifecycle (open →
// mitigating → resolved), a correlated evidence bundle captured at
// onset, and ledger-based impact accounting attached at resolution.
//
// Detectors use hysteresis like the capacity Analyzer: a rule's signal
// must sit at or above its open threshold for a minimum dwell before an
// incident opens, and below its (lower) close threshold for a minimum
// dwell before it resolves, so a signal oscillating around the
// threshold opens at most one incident. Rate-style signals are
// EWMA-smoothed first.
//
// Like the rest of the observability stack the engine is nil-safe:
// every method on a nil *Engine is a no-op.
package incident

import (
	"time"

	"ubiqos/internal/admission"
	"ubiqos/internal/capacity"
	"ubiqos/internal/flight"
	"ubiqos/internal/ledger"
	"ubiqos/internal/metrics"
)

// Severity ranks an incident. While an incident is open its severity
// may escalate (warning → critical) but never de-escalate; the peak is
// what the postmortem reports.
type Severity int

const (
	SevNone Severity = iota
	SevWarning
	SevCritical
)

// String returns "none", "warning", or "critical".
func (s Severity) String() string {
	switch s {
	case SevWarning:
		return "warning"
	case SevCritical:
		return "critical"
	default:
		return "none"
	}
}

// State is an incident's lifecycle phase.
type State string

const (
	// StateOpen: the rule's signal crossed its open threshold and held
	// for the dwell; evidence has been captured.
	StateOpen State = "open"
	// StateMitigating: the recovery supervisor recovered or restored a
	// session while the incident was open.
	StateMitigating State = "mitigating"
	// StateResolved: the signal cleared below the close threshold for
	// the close dwell; impact accounting is attached.
	StateResolved State = "resolved"
)

// Transition is one timeline step of an incident's lifecycle.
type Transition struct {
	Time  time.Time `json:"time"`
	State State     `json:"state"`
	Note  string    `json:"note,omitempty"`
}

// SeriesExcerpt is a bounded slice of one capacity time series around
// the incident's onset window.
type SeriesExcerpt struct {
	Metric  string            `json:"metric"`
	Samples []capacity.Sample `json:"samples"`
}

// FlightExcerpt is a bounded slice of one session's flight-recorder
// timeline inside the evidence window.
type FlightExcerpt struct {
	Session string         `json:"session"`
	Entries []flight.Entry `json:"entries"`
}

// Evidence is the correlated bundle captured when an incident opens:
// everything an operator would otherwise stitch together from /slo,
// /saturation, /timeseries, /flight, /admission, and /scorecard by
// hand, frozen at onset.
type Evidence struct {
	// From / To bound the lookback window the excerpts cover.
	From time.Time `json:"from"`
	To   time.Time `json:"to"`
	// Sources names the distinct signal families that were abnormal at
	// onset: "slo", "saturation", "faults", "ledger", "flight".
	Sources []string `json:"sources"`
	// Saturation is the analyzer's full report at onset (device table,
	// link residuals, queue depth, space verdict).
	Saturation *capacity.Report `json:"saturation,omitempty"`
	// SLO carries every objective's status at onset.
	SLO []metrics.Status `json:"slo,omitempty"`
	// Series holds capacity ring excerpts around the onset.
	Series []SeriesExcerpt `json:"series,omitempty"`
	// Sessions samples affected sessions' flight-recorder entries
	// inside the window, and TraceIDs collects the distinct trace IDs
	// seen in them.
	Sessions []FlightExcerpt `json:"sessions,omitempty"`
	TraceIDs []string        `json:"traceIds,omitempty"`
	// Admission snapshots the gate (per-class admit/degrade/reject
	// counts).
	Admission *admission.Status `json:"admission,omitempty"`
	// Scorecards is the ledger's per-class accounting at onset — also
	// the baseline the resolution-time impact diff subtracts from.
	Scorecards []ledger.Scorecard `json:"scorecards,omitempty"`
}

// Impact is the ledger-derived damage accounting attached when an
// incident resolves: what accrued between open and resolve.
type Impact struct {
	// SessionsAffected counts sessions with flight-recorder activity
	// during the incident.
	SessionsAffected int `json:"sessionsAffected"`
	// DurationSec is open→resolve in seconds.
	DurationSec float64 `json:"durationSec"`
	// BrokenSec / DegradedSec are space-wide broken and degraded time
	// accrued during the incident (summed over classes).
	BrokenSec   float64 `json:"brokenSec"`
	DegradedSec float64 `json:"degradedSec"`
	// DeficitSec is the per-axis QoS-deficit integral accrued during
	// the incident; TotalDeficitSec sums it over axes.
	DeficitSec      map[string]float64 `json:"deficitSec,omitempty"`
	TotalDeficitSec float64            `json:"totalDeficitSec"`
	// ClassAvailability is each class's availability at resolve time.
	ClassAvailability map[string]float64 `json:"classAvailability,omitempty"`
}

// Incident is one correlated incident. Snapshots returned by
// Engine.List / Engine.Get are safe to retain; Evidence and Impact are
// write-once and shared.
type Incident struct {
	// ID is "INC-<n>", unique within the engine's lifetime.
	ID string `json:"id"`
	// Rule / Source name the detection rule and its signal family.
	Rule   string `json:"rule"`
	Source string `json:"source"`
	// Title is a one-line operator summary composed at open time.
	Title       string   `json:"title"`
	Severity    Severity `json:"severity"`
	SeverityStr string   `json:"severityStr"`
	State       State    `json:"state"`
	// OpenedAt / MitigatingAt / ResolvedAt stamp the lifecycle
	// (MitigatingAt and ResolvedAt are zero until reached).
	OpenedAt     time.Time `json:"openedAt"`
	MitigatingAt time.Time `json:"mitigatingAt"`
	ResolvedAt   time.Time `json:"resolvedAt"`
	// ResolutionCause explains why the incident closed, crediting the
	// mitigation actors that acted while it was open.
	ResolutionCause string   `json:"resolutionCause,omitempty"`
	MitigatedBy     []string `json:"mitigatedBy,omitempty"`
	// OpenSignal / PeakSignal / LastSignal track the (smoothed) rule
	// signal at open, at its worst, and at the last observation.
	OpenSignal float64 `json:"openSignal"`
	PeakSignal float64 `json:"peakSignal"`
	LastSignal float64 `json:"lastSignal"`
	// Timeline records every lifecycle transition with a note.
	Timeline []Transition `json:"timeline"`
	Evidence *Evidence    `json:"evidence,omitempty"`
	Impact   *Impact      `json:"impact,omitempty"`

	// Resolution-time impact baselines, snapshotted from the ledger at
	// open so the diff covers only what accrued during the incident.
	openDeficits map[string]float64
	openBroken   float64
	openDegraded float64
}
