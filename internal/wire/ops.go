package wire

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"ubiqos/internal/admission"
	"ubiqos/internal/buildinfo"
	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/graph"
	"ubiqos/internal/incident"
	"ubiqos/internal/ledger"
	"ubiqos/internal/metrics"
	"ubiqos/internal/repository"
	"ubiqos/internal/trace"
)

// op is one row of the protocol table: everything the daemon, the HTTP
// surface and qosctl know about one wire operation.
type op struct {
	name   string
	handle func(*Server, Request) (Response, error)
	// verb is the qosctl verb ("" = none); need lists the flags it
	// requires.
	verb string
	need []string
	// args are the request fields the op reads, named as the qosctl flag
	// and HTTP query parameter that fill them (see setArg).
	args []string
	// route is the op's HTTP GET path ("" = not served over HTTP). With a
	// key, route/<value> fills that arg from the path and route alone
	// serves the op with it empty.
	route, key string
	// json picks the reply's payload for HTTP and `qosctl -json` (nil: the
	// op has no JSON view and qosctl -json prints the whole reply); text
	// renders the reply for ?format=text and qosctl's default output.
	json func(Request, Response) any
	text func(Request, Response) string
	// Per-op metric names, labeled once rather than on every request.
	requests, errors, latency string
}

// ops is the protocol, one row per Op* constant.
var ops = []op{
	{name: OpPing, handle: func(*Server, Request) (Response, error) { return Response{}, nil }},
	{name: OpListDevices, handle: (*Server).listDevices, verb: "devices", text: devicesText},
	{name: OpListInst, handle: (*Server).listServices, verb: "services", text: servicesText},
	{name: OpSessions, verb: "sessions", text: sessionsText,
		handle: func(s *Server, _ Request) (Response, error) {
			return Response{Sessions: s.dom.Configurator.SessionIDs()}, nil
		}},
	{name: OpSession, handle: (*Server).sessionInfo, verb: "session", need: []string{"session"},
		args: []string{"session"}, text: sessionText},
	{name: OpStart, handle: (*Server).start, verb: "start", need: []string{"session"},
		args: []string{"session", "client", "class"}, text: sessionText},
	{name: OpStop, verb: "stop", need: []string{"session"}, args: []string{"session"},
		handle: func(s *Server, req Request) (Response, error) { return Response{}, s.dom.StopApp(req.SessionID) }},
	{name: OpSwitch, handle: (*Server).switchDevice, verb: "switch", need: []string{"session", "to"},
		args: []string{"session", "to"}, text: sessionText},
	{name: OpMetrics, verb: "metrics",
		handle: func(s *Server, _ Request) (Response, error) {
			return Response{Metrics: s.dom.Metrics.Exposition()}, nil
		},
		text: func(_ Request, r Response) string { return r.Metrics }},
	{name: OpTrace, handle: (*Server).traceInfo, verb: "trace", args: []string{"session"},
		json: func(_ Request, r Response) any { return r.Trace }, text: traceText},
	{name: OpCrashDevice, handle: (*Server).crashDevice, verb: "crash", need: []string{"to"}, args: []string{"to"}},
	{name: OpRejoinDevice, verb: "rejoin", need: []string{"to"}, args: []string{"to"},
		handle: func(s *Server, req Request) (Response, error) {
			return Response{}, s.dom.RejoinDevice(device.ID(req.ToDevice))
		}},
	{name: OpCheck, handle: (*Server).check, verb: "check", args: []string{"client"},
		text: func(_ Request, r Response) string { return "composition would succeed: " + r.CheckSummary + "\n" }},
	{name: OpRegister, handle: (*Server).registerService, verb: "register"},
	{name: OpUnregister, handle: (*Server).unregister, verb: "unregister", need: []string{"name"}, args: []string{"name"}},
	{name: OpFlight, handle: (*Server).flightInfo, verb: "flight", args: []string{"session"},
		route: "/flight", key: "session", text: flightText,
		json: func(q Request, r Response) any { return pick(q.SessionID, r.FlightSessions, r.Flight) }},
	{name: OpSlo, verb: "slo", route: "/slo",
		handle: func(s *Server, _ Request) (Response, error) { return Response{SLO: s.dom.SLO.Publish()}, nil },
		json:   func(_ Request, r Response) any { return r.SLO },
		text:   func(_ Request, r Response) string { return metrics.Render(r.SLO) }},
	{name: OpExplain, handle: (*Server).explainInfo, verb: "explain", args: []string{"session"},
		route: "/explain", key: "session", text: explainText,
		json: func(q Request, r Response) any { return pick(q.SessionID, r.ExplainSessions, r.Explain) }},
	{name: OpVersion, handle: (*Server).version, verb: "version"},
	{name: OpStats, handle: (*Server).statsInfo, verb: "stats", text: statsText,
		json: func(_ Request, r Response) any { return r.Stats }},
	{name: OpTimeseries, handle: (*Server).timeseries, verb: "timeseries", args: []string{"metric", "window"},
		route: "/timeseries", text: timeseriesText,
		json: func(q Request, r Response) any {
			return pick(q.Metric, map[string][]string{"metrics": r.TimeseriesMetrics}, r.Timeseries)
		}},
	{name: OpSaturation, handle: (*Server).saturation, verb: "top", route: "/saturation",
		json: func(_ Request, r Response) any { return r.Saturation },
		text: func(_ Request, r Response) string { return r.Saturation.Render() }},
	{name: OpAdmission, handle: (*Server).admissionInfo, verb: "admit", args: []string{"class"},
		route: "/admission", text: admissionText,
		json: func(_ Request, r Response) any { return r.Admission }},
	{name: OpLedger, handle: (*Server).ledgerInfo, verb: "ledger", args: []string{"session"},
		route: "/ledger", key: "session", text: ledgerText,
		json: func(q Request, r Response) any { return pick(q.SessionID, r.LedgerSessions, r.Ledger) }},
	{name: OpScorecard, handle: (*Server).scorecardInfo, verb: "report", args: []string{"class", "window"},
		route: "/scorecard",
		json:  func(_ Request, r Response) any { return r.Scorecards },
		text:  func(_ Request, r Response) string { return ledger.RenderScorecards(r.Scorecards) }},
	{name: OpIncidents, handle: (*Server).incidentsInfo, verb: "incidents", args: []string{"id"},
		route: "/incidents", key: "id", text: incidentsText,
		json: func(q Request, r Response) any { return pick(q.Incident, r.Incidents, r.Incident) }},
	{name: OpPostmortem, handle: (*Server).postmortemInfo, verb: "postmortem", need: []string{"id"}, args: []string{"id"},
		json: func(_ Request, r Response) any { return r.Incident },
		text: func(_ Request, r Response) string { return r.Postmortem }},
}

// setArg fills the request field an op arg names.
var setArg = map[string]func(*Request, string){
	"session": func(r *Request, v string) { r.SessionID = v },
	"client":  func(r *Request, v string) { r.ClientDevice = v },
	"to":      func(r *Request, v string) { r.ToDevice = v },
	"name":    func(r *Request, v string) { r.Name = v },
	"class":   func(r *Request, v string) { r.Class = v },
	"metric":  func(r *Request, v string) { r.Metric = v },
	"window":  func(r *Request, v string) { r.Window = v },
	"id":      func(r *Request, v string) { r.Incident = v },
}

// unknownOp answers any op name outside the table. Its metrics land on
// the registry's overflow label, so a misbehaving client cannot grow the
// label space without bound.
var unknownOp = op{
	name: metrics.OverflowLabel,
	handle: func(_ *Server, req Request) (Response, error) {
		return Response{}, fmt.Errorf("wire: unknown op %q", req.Op)
	},
}

var opsByName, opsByVerb = indexOps()

func indexOps() (byName, byVerb map[string]*op) {
	byName, byVerb = make(map[string]*op, len(ops)), make(map[string]*op, len(ops))
	unknownOp.label()
	for i := range ops {
		o := &ops[i]
		o.label()
		byName[o.name] = o
		if o.verb != "" {
			byVerb[o.verb] = o
		}
	}
	return byName, byVerb
}

func (o *op) label() {
	o.requests = metrics.WithLabel(metrics.WireRequests, "op", o.name)
	o.errors = metrics.WithLabel(metrics.WireErrors, "op", o.name)
	o.latency = metrics.WithLabel(metrics.WireLatency, "op", o.name)
}

// request builds the op's request from its args; value looks each one up
// by name.
func (o *op) request(req Request, value func(string) string) Request {
	req.Op = o.name
	for _, a := range o.args {
		setArg[a](&req, value(a))
	}
	return req
}

// statusError is a handler failure that HTTP answers with its own status:
// 404 for an unknown key, 400 for a malformed query. Over TCP it is error
// text like any other.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

func notFound(format string, a ...any) error {
	return &statusError{http.StatusNotFound, fmt.Sprintf(format, a...)}
}

// parseWindow parses a request's trailing window ("" = unbounded).
func parseWindow(req Request) (time.Duration, error) {
	if req.Window == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(req.Window)
	if err != nil || d < 0 {
		return 0, &statusError{http.StatusBadRequest,
			fmt.Sprintf("wire: bad window %q (want a Go duration, e.g. \"2m\")", req.Window)}
	}
	return d, nil
}

func (s *Server) listDevices(Request) (Response, error) {
	var out []DeviceInfo
	for _, d := range s.dom.Devices.All() {
		out = append(out, DeviceInfo{
			ID:        string(d.ID),
			Class:     d.Class.String(),
			Capacity:  d.Capacity(),
			Available: d.Available(),
			Up:        d.Up(),
		})
	}
	return Response{Devices: out}, nil
}

func (s *Server) listServices(Request) (Response, error) {
	var out []InstanceInfo
	for _, in := range s.dom.Registry.All() {
		out = append(out, InstanceInfo{
			Name:      in.Name,
			Type:      in.Type,
			Attrs:     in.Attrs,
			SizeMB:    in.SizeMB,
			Resources: in.Resources,
		})
	}
	return Response{Services: out}, nil
}

func (s *Server) start(req Request) (Response, error) {
	if req.App == nil {
		return Response{}, errors.New("wire: start requires an app graph")
	}
	active, err := s.dom.StartApp(core.Request{
		SessionID:    req.SessionID,
		Class:        req.Class,
		App:          req.App,
		UserQoS:      req.UserQoS,
		ClientDevice: device.ID(req.ClientDevice),
		MaxFrames:    req.MaxFrames,
		TraceCtx:     trace.Context{TraceID: req.TraceID, ParentSpan: req.SpanID},
	})
	if err != nil {
		// A gate rejection carries its decision — verdict, effective state,
		// and the retry-after hint — alongside the error text, so callers
		// can back off instead of hammering a saturated space.
		var resp Response
		var rej *admission.RejectedError
		if errors.As(err, &rej) {
			resp.Admission = &AdmissionInfo{Enabled: true, Decision: &rej.Decision}
		}
		return resp, err
	}
	return Response{Session: sessionInfoOf(active)}, nil
}

func (s *Server) switchDevice(req Request) (Response, error) {
	active, err := s.dom.SwitchDevice(req.SessionID, device.ID(req.ToDevice))
	if err != nil {
		return Response{}, err
	}
	return Response{Session: sessionInfoOf(active)}, nil
}

// crashDevice crashes a device the way the fault injector does and names
// the sessions the crash stranded; re-placing them is the recovery
// supervisor's job.
func (s *Server) crashDevice(req Request) (Response, error) {
	id := device.ID(req.ToDevice)
	stranded := s.dom.SessionsOn(id)
	if err := s.dom.FailDevice(id); err != nil {
		return Response{}, err
	}
	return Response{Stranded: stranded}, nil
}

func (s *Server) unregister(req Request) (Response, error) {
	if !s.dom.Registry.Unregister(req.Name) {
		return Response{}, fmt.Errorf("wire: unknown service %q", req.Name)
	}
	return Response{}, nil
}

func (s *Server) version(Request) (Response, error) {
	info := buildinfo.Get()
	return Response{Version: &info}, nil
}

func (s *Server) saturation(Request) (Response, error) {
	rep := s.dom.SaturationReport()
	return Response{Saturation: &rep}, nil
}

// admissionInfo answers the admission op: the gate status when no class
// is named, or a dry-run decision for one class. A domain without a gate
// reports Enabled=false rather than erroring, so `qosctl admit` degrades
// gracefully.
func (s *Server) admissionInfo(req Request) (Response, error) {
	g := s.dom.Admission
	if g == nil {
		return Response{Admission: &AdmissionInfo{}}, nil
	}
	info := &AdmissionInfo{Enabled: true}
	if req.Class != "" {
		d := g.Preview(req.Class)
		info.Decision = &d
	} else {
		st := g.Status()
		info.Status = &st
	}
	return Response{Admission: info}, nil
}

// registerService announces a new service instance in the domain's
// discovery catalog — services "come and go frequently" in the smart
// space, and this is how they come.
func (s *Server) registerService(req Request) (Response, error) {
	if req.Instance == nil {
		return Response{}, errors.New("wire: register-service requires an instance")
	}
	if err := s.dom.Registry.Register(req.Instance); err != nil {
		return Response{}, err
	}
	if req.Instance.SizeMB > 0 {
		if err := s.dom.Repo.Publish(repository.Package{Name: req.Instance.Name, SizeMB: req.Instance.SizeMB}); err != nil {
			return Response{}, err
		}
	}
	for _, target := range req.InstalledOn {
		if target == "*" {
			for _, d := range s.dom.Devices.All() {
				s.dom.Repo.MarkInstalled(string(d.ID), req.Instance.Name)
			}
			continue
		}
		if s.dom.Devices.Get(device.ID(target)) == nil {
			return Response{}, fmt.Errorf("wire: installed-on references unknown device %q", target)
		}
		s.dom.Repo.MarkInstalled(target, req.Instance.Name)
	}
	return Response{}, nil
}

// check dry-runs the composition tier against the current environment
// without deploying anything.
func (s *Server) check(req Request) (Response, error) {
	if req.App == nil {
		return Response{}, errors.New("wire: check requires an app graph")
	}
	client := device.ID(req.ClientDevice)
	var attrs map[string]string
	if d := s.dom.Devices.Get(client); d != nil {
		attrs = d.Attrs
	}
	_, rep, err := s.dom.Composer.Compose(composer.Request{
		App:          req.App,
		UserQoS:      req.UserQoS,
		ClientAttrs:  attrs,
		ClientDevice: req.ClientDevice,
	})
	if err != nil {
		return Response{}, err
	}
	return Response{CheckSummary: rep.Summary()}, nil
}

// traceInfo returns the most recent configuration trace for a session,
// or the latest trace overall when no session is named.
func (s *Server) traceInfo(req Request) (Response, error) {
	if req.SessionID == "" {
		if td := s.dom.Tracer.Latest(); td != nil {
			return Response{Trace: td}, nil
		}
		return Response{}, notFound("wire: no traces recorded yet")
	}
	if td := s.dom.Tracer.Find(req.SessionID); td != nil {
		return Response{Trace: td}, nil
	}
	return Response{}, notFound("wire: no trace for session %q", req.SessionID)
}

// flightInfo returns one session's fused flight-recorder timeline, or
// the index of recorded sessions when no session is named.
func (s *Server) flightInfo(req Request) (Response, error) {
	if req.SessionID == "" {
		return Response{FlightSessions: s.dom.Flight.Sessions()}, nil
	}
	entries := s.dom.Flight.Timeline(req.SessionID)
	if len(entries) == 0 {
		return Response{}, notFound("wire: no flight timeline for session %q", req.SessionID)
	}
	return Response{Flight: entries}, nil
}

// ledgerInfo returns one session's delivered-vs-requested outcome
// report, or the index of recorded sessions when no session is named.
func (s *Server) ledgerInfo(req Request) (Response, error) {
	if req.SessionID == "" {
		return Response{LedgerSessions: s.dom.Flight.LedgerSessions()}, nil
	}
	rep, ok := s.dom.Flight.Report(req.SessionID)
	if !ok {
		return Response{}, notFound("wire: no ledger record for session %q", req.SessionID)
	}
	return Response{Ledger: &rep}, nil
}

// incidentsInfo lists the incident log (evidence bundles stripped to
// keep the listing light) or returns one incident in full by ID.
func (s *Server) incidentsInfo(req Request) (Response, error) {
	if req.Incident == "" {
		list := s.dom.Incidents.List()
		for i := range list {
			list[i].Evidence = nil
		}
		return Response{Incidents: list}, nil
	}
	inc, ok := s.dom.Incidents.Get(req.Incident)
	if !ok {
		return Response{}, notFound("wire: no incident %q", req.Incident)
	}
	return Response{Incident: &inc}, nil
}

// postmortemInfo renders one incident's shareable markdown postmortem.
func (s *Server) postmortemInfo(req Request) (Response, error) {
	if req.Incident == "" {
		return Response{}, errors.New("wire: postmortem needs an incident ID, e.g. \"INC-1\"")
	}
	resp, err := s.incidentsInfo(req)
	if err != nil {
		return resp, err
	}
	resp.Postmortem = incident.Postmortem(*resp.Incident)
	return resp, nil
}

// scorecardInfo returns the per-class QoS outcome scorecards, optionally
// restricted to one class and/or a trailing latency window.
func (s *Server) scorecardInfo(req Request) (Response, error) {
	window, err := parseWindow(req)
	if err != nil {
		return Response{}, err
	}
	cards := s.dom.Flight.Scorecards(window)
	if req.Class != "" {
		filtered := cards[:0]
		for _, c := range cards {
			if c.Class == req.Class {
				filtered = append(filtered, c)
			}
		}
		if len(filtered) == 0 {
			return Response{}, notFound("wire: no scorecard for class %q", req.Class)
		}
		cards = filtered
	}
	return Response{Scorecards: cards}, nil
}

// explainInfo returns one session's decision-provenance report, or the
// index of sessions with records when no session is named.
func (s *Server) explainInfo(req Request) (Response, error) {
	if req.SessionID == "" {
		return Response{ExplainSessions: s.dom.Flight.ExplainSessions()}, nil
	}
	se := s.dom.Flight.Explain(req.SessionID)
	if se == nil {
		return Response{}, notFound("wire: no explain record for session %q", req.SessionID)
	}
	return Response{Explain: se}, nil
}

// timeseries answers a capacity time-series query: one named series
// (optionally restricted to a trailing window), or the recorded series
// list when no metric is named. A sampling pass runs first so the ring is
// fresh even between ticks.
func (s *Server) timeseries(req Request) (Response, error) {
	s.dom.SampleCapacityNow()
	if req.Metric == "" {
		return Response{TimeseriesMetrics: s.dom.Capacity.Metrics()}, nil
	}
	window, err := parseWindow(req)
	if err != nil {
		return Response{}, err
	}
	samples := s.dom.Capacity.Series(req.Metric, window)
	if samples == nil {
		return Response{}, notFound("wire: no series %q (omit the metric to list recorded series)", req.Metric)
	}
	return Response{Timeseries: &TimeseriesInfo{
		Metric:          req.Metric,
		IntervalSeconds: s.dom.Capacity.Interval().Seconds(),
		Samples:         samples,
	}}, nil
}

// statsInfo snapshots the incremental-placement counters: plan cache
// hit/miss ledger plus the warm/cold branch-and-bound solve split.
func (s *Server) statsInfo(Request) (Response, error) {
	m := s.dom.Metrics
	st := s.dom.PlanCache.Stats()
	info := &StatsInfo{
		PlanCache:  &st,
		WarmSolves: m.Counter(metrics.WarmSolves).Value(),
		ColdSolves: m.Counter(metrics.ColdSolves).Value(),
	}
	if v, ok := m.Gauge(metrics.WarmSpeedup).Value(); ok {
		info.WarmSpeedup = v
	}
	return Response{Stats: info}, nil
}

// sessionInfo answers the session op, the one reply that carries the
// Graphviz rendering: `qosctl session -dot` is its only reader, so start
// and switch do not pay for it.
func (s *Server) sessionInfo(req Request) (Response, error) {
	active := s.dom.Configurator.Session(req.SessionID)
	if active == nil {
		return Response{}, notFound("wire: unknown session %q", req.SessionID)
	}
	info := sessionInfoOf(active)
	placement := make(map[graph.NodeID]string, len(active.Placement))
	for id, dev := range active.Placement {
		placement[id] = string(dev)
	}
	info.DOT = active.Graph.DOT(active.ID, placement)
	return Response{Session: info}, nil
}

func sessionInfoOf(active *core.ActiveSession) *SessionInfo {
	placement := make(map[string]string, len(active.Placement))
	for id, dev := range active.Placement {
		placement[string(id)] = string(dev)
	}
	return &SessionInfo{
		ID:           active.ID,
		ClientDevice: string(active.ClientDevice),
		Placement:    placement,
		Cost:         active.Cost,
		Timing: TimingInfo{
			CompositionMs:   ms(active.Timing.Composition),
			DistributionMs:  ms(active.Timing.Distribution),
			DownloadingMs:   ms(active.Timing.Downloading),
			InitOrHandoffMs: ms(active.Timing.InitOrHandoff),
		},
		Rates:   active.Runtime.SinkRates(),
		Summary: active.Report.Summary(),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
