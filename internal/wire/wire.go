// Package wire defines the newline-delimited JSON protocol spoken between
// the qosconfigd domain-server daemon and the qosctl client, plus the
// server and client implementations. Each request is one JSON object on
// one line; each response likewise.
package wire

import (
	"encoding/json"

	"ubiqos/internal/admission"
	"ubiqos/internal/buildinfo"
	"ubiqos/internal/capacity"
	"ubiqos/internal/composer"
	"ubiqos/internal/distributor"
	"ubiqos/internal/explain"
	"ubiqos/internal/flight"
	"ubiqos/internal/incident"
	"ubiqos/internal/ledger"
	"ubiqos/internal/metrics"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/trace"
)

// Operation names.
const (
	OpPing         = "ping"
	OpListDevices  = "list-devices"
	OpListInst     = "list-services"
	OpSessions     = "sessions"
	OpSession      = "session"
	OpStart        = "start"
	OpStop         = "stop"
	OpSwitch       = "switch"
	OpMetrics      = "metrics"
	OpTrace        = "trace"
	OpCrashDevice  = "crash-device"
	OpRejoinDevice = "rejoin-device"
	OpCheck        = "check"
	OpRegister     = "register-service"
	OpUnregister   = "unregister-service"
	OpFlight       = "flight"
	OpSlo          = "slo"
	OpExplain      = "explain"
	OpVersion      = "version"
	OpStats        = "stats"
	OpTimeseries   = "timeseries"
	OpSaturation   = "saturation"
	OpAdmission    = "admission"
	OpLedger       = "ledger"
	OpScorecard    = "scorecard"
	OpIncidents    = "incidents"
	OpPostmortem   = "postmortem"
)

// Request is one client request.
type Request struct {
	// Op selects the operation.
	Op string `json:"op"`
	// SessionID addresses a session (start/stop/switch/session).
	SessionID string `json:"sessionId,omitempty"`
	// App is the abstract service graph (start).
	App *composer.AbstractGraph `json:"app,omitempty"`
	// UserQoS carries the user's QoS requirements (start).
	UserQoS qos.Vector `json:"userQoS,omitempty"`
	// ClientDevice is the portal device (start).
	ClientDevice string `json:"clientDevice,omitempty"`
	// ToDevice is the handoff target (switch).
	ToDevice string `json:"toDevice,omitempty"`
	// MaxFrames bounds emulated sources (start; 0 = unbounded).
	MaxFrames int64 `json:"maxFrames,omitempty"`
	// Instance is the service instance to announce (register-service).
	Instance *registry.Instance `json:"instance,omitempty"`
	// Name addresses a registered instance (unregister-service).
	Name string `json:"name,omitempty"`
	// InstalledOn optionally marks the registered instance pre-installed
	// on these devices ("*" = everywhere).
	InstalledOn []string `json:"installedOn,omitempty"`
	// Class buckets the session for per-class observability (start; empty
	// derives the class from the app graph's sink service type).
	Class string `json:"class,omitempty"`
	// Metric names a capacity time series (timeseries op; empty lists the
	// recorded series).
	Metric string `json:"metric,omitempty"`
	// Window restricts a timeseries query to the trailing duration, in
	// Go duration syntax, e.g. "2m" (timeseries op; empty = full ring).
	Window string `json:"window,omitempty"`
	// Incident addresses one incident by ID, e.g. "INC-3" (incidents /
	// postmortem ops; empty incidents op lists all).
	Incident string `json:"incident,omitempty"`
	// TraceID carries the client-originated trace context so the server's
	// spans join the caller's trace (start, the one op whose handler reads
	// it). The client fills it in on a start when empty.
	TraceID string `json:"traceId,omitempty"`
	// SpanID names the client-side span that caused this request; the
	// server records it as the parent of its root span.
	SpanID string `json:"spanId,omitempty"`
}

// wireRequest is the struct encoding/json decodes a request line into when
// scanRequest does not take it. Its JSON document is Request's own (the
// shallower App shadows the embedded one under the same key), but the
// graph is held in its plain form, which composer.FromPlain turns into a
// graph with every check UnmarshalJSON applies, in one scan of the line
// rather than a re-scan of the graph's bytes. Either way a rejected line
// is refused in encoding/json's or the graph's words.
type wireRequest struct {
	Request
	App *composer.PlainGraph `json:"app,omitempty"`
}

// decodeRequest parses one request line: through scanRequest when it
// takes the line, through encoding/json when it does not.
func decodeRequest(line []byte) (Request, error) {
	if req, took, err := scanRequest(line); took {
		return req, err
	}
	return decodeRequestJSON(line)
}

// decodeRequestJSON parses one request line with encoding/json alone.
func decodeRequestJSON(line []byte) (Request, error) {
	var wr wireRequest
	if err := json.Unmarshal(line, &wr); err != nil {
		return Request{}, err
	}
	return wr.request()
}

// request builds the Request the wire form describes.
func (wr wireRequest) request() (Request, error) {
	if wr.App != nil {
		app, err := composer.FromPlain(*wr.App)
		if err != nil {
			return Request{}, err
		}
		wr.Request.App = app
	}
	return wr.Request, nil
}

// DeviceInfo describes one device in a list-devices response.
type DeviceInfo struct {
	ID        string    `json:"id"`
	Class     string    `json:"class"`
	Capacity  []float64 `json:"capacity"`
	Available []float64 `json:"available"`
	Up        bool      `json:"up"`
}

// InstanceInfo describes one registered service instance.
type InstanceInfo struct {
	Name      string            `json:"name"`
	Type      string            `json:"type"`
	Attrs     map[string]string `json:"attrs,omitempty"`
	SizeMB    float64           `json:"sizeMB,omitempty"`
	Resources []float64         `json:"resources,omitempty"`
}

// TimingInfo is the configuration overhead breakdown in milliseconds.
type TimingInfo struct {
	CompositionMs   float64 `json:"compositionMs"`
	DistributionMs  float64 `json:"distributionMs"`
	DownloadingMs   float64 `json:"downloadingMs"`
	InitOrHandoffMs float64 `json:"initOrHandoffMs"`
}

// SessionInfo describes one configured session.
type SessionInfo struct {
	ID           string             `json:"id"`
	ClientDevice string             `json:"clientDevice"`
	Placement    map[string]string  `json:"placement"`
	Cost         float64            `json:"cost"`
	Timing       TimingInfo         `json:"timing"`
	Rates        map[string]float64 `json:"rates,omitempty"`
	Summary      string             `json:"summary,omitempty"`
	// DOT is the Graphviz rendering of the placed service graph.
	DOT string `json:"dot,omitempty"`
}

// StatsInfo is the incremental-placement health snapshot (stats op): the
// plan cache's hit/miss ledger plus the warm/cold solve split.
type StatsInfo struct {
	// PlanCache is the signature-keyed plan cache's ledger (nil only in a
	// reply that does not carry one).
	PlanCache *distributor.PlanCacheStats `json:"planCache,omitempty"`
	// WarmSolves counts branch-and-bound solves seeded from an incumbent.
	WarmSolves int64 `json:"warmSolves"`
	// ColdSolves counts from-scratch branch-and-bound solves.
	ColdSolves int64 `json:"coldSolves"`
	// WarmSpeedup is the explored-node ratio (previous cold solve over the
	// warm re-solve) of the most recent warm recovery; 0 until one happens.
	WarmSpeedup float64 `json:"warmSpeedup,omitempty"`
}

// TimeseriesInfo is one capacity time series (timeseries op).
type TimeseriesInfo struct {
	Metric string `json:"metric"`
	// IntervalSeconds is the observatory's sampling period.
	IntervalSeconds float64           `json:"intervalSeconds"`
	Samples         []capacity.Sample `json:"samples"`
}

// Response is one server response.
type Response struct {
	OK       bool           `json:"ok"`
	Error    string         `json:"error,omitempty"`
	Devices  []DeviceInfo   `json:"devices,omitempty"`
	Services []InstanceInfo `json:"services,omitempty"`
	Sessions []string       `json:"sessions,omitempty"`
	Session  *SessionInfo   `json:"session,omitempty"`
	// Metrics is the plain-text metrics snapshot (metrics op).
	Metrics string `json:"metrics,omitempty"`
	// Trace is one finished configuration trace (trace op): the span tree
	// of a Configure call, newest first when no session is named.
	Trace *trace.TraceData `json:"trace,omitempty"`
	// Stranded lists the sessions that had a component on a crashed device
	// when it went down (crash-device op); the recovery supervisor re-places
	// or gives up on each of them.
	Stranded []string `json:"stranded,omitempty"`
	// CheckSummary reports what composing the app would do (check op).
	CheckSummary string `json:"checkSummary,omitempty"`
	// Flight is one session's fused observability timeline (flight op).
	Flight []flight.Entry `json:"flight,omitempty"`
	// FlightSessions lists sessions with recorded timelines (flight op
	// with no session named), most recently active first.
	FlightSessions []flight.SessionInfo `json:"flightSessions,omitempty"`
	// SLO reports the burn-rate status of each declared objective (slo op).
	SLO []metrics.Status `json:"slo,omitempty"`
	// Explain is one session's decision-provenance report (explain op).
	Explain *explain.SessionExplain `json:"explain,omitempty"`
	// ExplainSessions lists sessions with provenance records (explain op
	// with no session named), most recently active first.
	ExplainSessions []explain.SessionInfo `json:"explainSessions,omitempty"`
	// Version is the daemon's build identity (version op).
	Version *buildinfo.Info `json:"version,omitempty"`
	// Stats is the incremental-placement health snapshot (stats op).
	Stats *StatsInfo `json:"stats,omitempty"`
	// Timeseries is one capacity time series (timeseries op with a metric).
	Timeseries *TimeseriesInfo `json:"timeseries,omitempty"`
	// TimeseriesMetrics lists the recorded series (timeseries op with no
	// metric named).
	TimeseriesMetrics []string `json:"timeseriesMetrics,omitempty"`
	// Saturation is the space's saturation verdict (saturation op) — the
	// payload behind `qosctl top`.
	Saturation *capacity.Report `json:"saturation,omitempty"`
	// Admission is the gate's answer (admission op), and rides along on a
	// rejected start so the client sees the verdict and retry-after hint.
	Admission *AdmissionInfo `json:"admission,omitempty"`
	// Ledger is one session's delivered-vs-requested outcome report
	// (ledger op with a session named).
	Ledger *ledger.SessionReport `json:"ledger,omitempty"`
	// LedgerSessions lists sessions with outcome records (ledger op with
	// no session named), most recently active first.
	LedgerSessions []ledger.SessionReport `json:"ledgerSessions,omitempty"`
	// Scorecards holds the per-class QoS outcome scorecards (scorecard
	// op) — the payload behind `qosctl report`.
	Scorecards []ledger.Scorecard `json:"scorecards,omitempty"`
	// Incidents lists the incident log, newest first, with evidence
	// bundles stripped (incidents op with no ID).
	Incidents []incident.Incident `json:"incidents,omitempty"`
	// Incident is one incident in full, evidence bundle included
	// (incidents op with an ID).
	Incident *incident.Incident `json:"incident,omitempty"`
	// Postmortem is the incident's shareable markdown document
	// (postmortem op).
	Postmortem string `json:"postmortem,omitempty"`
}

// AdmissionInfo is the admission gate's wire payload: the gate status
// (admission op with no class), a dry-run decision (admission op with a
// class), or the decision that rejected a start.
type AdmissionInfo struct {
	// Enabled reports whether the domain runs with an admission gate.
	Enabled bool `json:"enabled"`
	// Decision is a single class's verdict (preview or rejection).
	Decision *admission.Decision `json:"decision,omitempty"`
	// Status is the gate snapshot: effective state, policies, tallies.
	Status *admission.Status `json:"status,omitempty"`
}
