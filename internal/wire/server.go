package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ubiqos/internal/admission"
	"ubiqos/internal/buildinfo"
	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/domain"
	"ubiqos/internal/graph"
	"ubiqos/internal/incident"
	"ubiqos/internal/metrics"
	"ubiqos/internal/repository"
	"ubiqos/internal/trace"
)

// maxLineBytes bounds one request line (a large abstract graph fits well
// within this).
const maxLineBytes = 4 << 20

// Server exposes a domain over TCP.
type Server struct {
	dom *domain.Domain

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer wraps the domain.
func NewServer(dom *domain.Domain) (*Server, error) {
	if dom == nil {
		return nil, fmt.Errorf("wire: nil domain")
	}
	return &Server{dom: dom, conns: make(map[net.Conn]struct{})}, nil
}

// Listen binds the address and starts serving in background goroutines.
// It returns the bound address (useful with ":0").
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("wire: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("wire: server closed")
	}
	s.listener = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				conn.Close()
				return
			}
			s.conns[conn] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serve(conn)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops accepting, closes all connections, and waits for handlers.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) serve(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 64<<10), maxLineBytes)
	enc := json.NewEncoder(conn)
	for scanner.Scan() {
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		var resp Response
		if req, err := decodeRequest(line); err != nil {
			s.dom.Metrics.Counter(metrics.WireBadLines).Inc()
			resp = errResponse(fmt.Errorf("wire: bad request: %w", err))
		} else {
			resp = s.Handle(req)
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
	if err := scanner.Err(); err != nil {
		// An unscannable stream (most likely a line over maxLineBytes) is
		// reported back before the connection drops, so the client sees why.
		s.dom.Metrics.Counter(metrics.WireBadLines).Inc()
		enc.Encode(errResponse(fmt.Errorf("wire: read: %w", err)))
	}
}

func errResponse(err error) Response { return Response{Error: err.Error()} }

// knownOps is the accepted operation set; per-op metric labels for
// anything else collapse into the registry's overflow label ("other")
// so a misbehaving client cannot grow the label space without bound.
var knownOps = map[string]bool{
	OpPing: true, OpListDevices: true, OpListInst: true,
	OpSessions: true, OpSession: true, OpStart: true, OpStop: true,
	OpSwitch: true, OpMetrics: true, OpTrace: true, OpCrashDevice: true,
	OpRejoinDevice: true, OpCheck: true, OpRegister: true, OpUnregister: true,
	OpFlight: true, OpSlo: true, OpExplain: true, OpVersion: true,
	OpStats: true, OpTimeseries: true, OpSaturation: true,
	OpAdmission: true, OpScale: true, OpLedger: true, OpScorecard: true,
	OpIncidents: true, OpPostmortem: true,
}

// Handle dispatches one request; it is exported so the daemon can be
// exercised without a socket. Every call is counted and timed per op
// under wire_requests_total / wire_request_errors_total /
// wire_request_duration_seconds.
func (s *Server) Handle(req Request) Response {
	op := req.Op
	if !knownOps[op] {
		op = metrics.OverflowLabel
	}
	start := time.Now()
	resp := s.dispatch(req)
	m := s.dom.Metrics
	m.Counter(metrics.WithLabel(metrics.WireRequests, "op", op)).Inc()
	if !resp.OK {
		m.Counter(metrics.WithLabel(metrics.WireErrors, "op", op)).Inc()
	}
	m.Histogram(metrics.WithLabel(metrics.WireLatency, "op", op)).Observe(time.Since(start))
	return resp
}

func (s *Server) dispatch(req Request) Response {
	switch req.Op {
	case OpPing:
		return Response{OK: true}
	case OpListDevices:
		return s.listDevices()
	case OpListInst:
		return s.listServices()
	case OpSessions:
		return Response{OK: true, Sessions: s.dom.Configurator.SessionIDs()}
	case OpSession:
		return s.sessionInfo(req.SessionID)
	case OpStart:
		return s.start(req)
	case OpStop:
		if err := s.dom.StopApp(req.SessionID); err != nil {
			return errResponse(err)
		}
		return Response{OK: true}
	case OpSwitch:
		active, err := s.dom.SwitchDevice(req.SessionID, device.ID(req.ToDevice))
		if err != nil {
			return errResponse(err)
		}
		return Response{OK: true, Session: sessionInfoOf(active)}
	case OpMetrics:
		return Response{OK: true, Metrics: s.dom.Metrics.Snapshot()}
	case OpTrace:
		return s.traceInfo(req.SessionID)
	case OpCrashDevice:
		moved, err := s.dom.RemoveDevice(device.ID(req.ToDevice))
		if err != nil && len(moved) == 0 {
			return errResponse(err)
		}
		resp := Response{OK: true, Moved: moved}
		if err != nil {
			resp.Error = err.Error() // partial recovery: report but succeed
		}
		return resp
	case OpRejoinDevice:
		if err := s.dom.RejoinDevice(device.ID(req.ToDevice)); err != nil {
			return errResponse(err)
		}
		return Response{OK: true}
	case OpCheck:
		return s.check(req)
	case OpFlight:
		return s.flightInfo(req.SessionID)
	case OpLedger:
		return s.ledgerInfo(req.SessionID)
	case OpScorecard:
		return s.scorecardInfo(req)
	case OpIncidents:
		return s.incidentsInfo(req.Incident)
	case OpPostmortem:
		return s.postmortemInfo(req.Incident)
	case OpSlo:
		return Response{OK: true, SLO: s.dom.SLO.Publish()}
	case OpExplain:
		return s.explainInfo(req.SessionID)
	case OpVersion:
		info := buildinfo.Get()
		return Response{OK: true, Version: &info}
	case OpStats:
		return s.statsInfo()
	case OpTimeseries:
		return s.timeseries(req)
	case OpSaturation:
		rep := s.dom.SaturationReport()
		return Response{OK: true, Saturation: &rep}
	case OpAdmission:
		return s.admissionInfo(req)
	case OpScale:
		return s.scaleInfo(req)
	case OpRegister:
		return s.registerService(req)
	case OpUnregister:
		if !s.dom.Registry.Unregister(req.Name) {
			return errResponse(fmt.Errorf("wire: unknown service %q", req.Name))
		}
		return Response{OK: true}
	default:
		return errResponse(fmt.Errorf("wire: unknown op %q", req.Op))
	}
}

func (s *Server) listDevices() Response {
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
	return Response{OK: true, Devices: out}
}

func (s *Server) listServices() Response {
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
	return Response{OK: true, Services: out}
}

func (s *Server) start(req Request) Response {
	if req.App == nil {
		return errResponse(errors.New("wire: start requires an app graph"))
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
		resp := errResponse(err)
		// A gate rejection carries its decision — verdict, effective state,
		// and the retry-after hint — alongside the error text, so callers
		// can back off instead of hammering a saturated space.
		var rej *admission.RejectedError
		if errors.As(err, &rej) {
			resp.Admission = &AdmissionInfo{Enabled: true, Decision: &rej.Decision}
		}
		return resp
	}
	return Response{OK: true, Session: sessionInfoOf(active)}
}

// admissionInfo answers the admission op: the gate status when no class
// is named, or a dry-run decision for one class. A domain without a gate
// reports Enabled=false rather than erroring, so `qosctl admit` degrades
// gracefully.
func (s *Server) admissionInfo(req Request) Response {
	g := s.dom.Admission
	if g == nil {
		return Response{OK: true, Admission: &AdmissionInfo{}}
	}
	info := &AdmissionInfo{Enabled: true}
	if req.Class != "" {
		d := g.Preview(req.Class)
		info.Decision = &d
	} else {
		st := g.Status()
		info.Status = &st
	}
	return Response{OK: true, Admission: info}
}

// scaleInfo answers the scale op: status, or a manual replica override
// when a group and count are given.
func (s *Server) scaleInfo(req Request) Response {
	a := s.dom.Autoscaler
	if a == nil {
		return errResponse(errors.New("wire: autoscaler not enabled on this domain"))
	}
	if req.Group != "" {
		if req.Replicas == nil {
			return errResponse(errors.New("wire: scale with a group requires a replica count"))
		}
		if err := a.SetReplicas(req.Group, *req.Replicas); err != nil {
			return errResponse(err)
		}
	}
	st := a.Status()
	return Response{OK: true, Autoscale: &st}
}

// registerService announces a new service instance in the domain's
// discovery catalog — services "come and go frequently" in the smart
// space, and this is how they come.
func (s *Server) registerService(req Request) Response {
	if req.Instance == nil {
		return errResponse(errors.New("wire: register-service requires an instance"))
	}
	if err := s.dom.Registry.Register(req.Instance); err != nil {
		return errResponse(err)
	}
	if req.Instance.SizeMB > 0 {
		if err := s.dom.Repo.Publish(repository.Package{Name: req.Instance.Name, SizeMB: req.Instance.SizeMB}); err != nil {
			return errResponse(err)
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
			return errResponse(fmt.Errorf("wire: installed-on references unknown device %q", target))
		}
		s.dom.Repo.MarkInstalled(target, req.Instance.Name)
	}
	return Response{OK: true}
}

// check dry-runs the composition tier against the current environment
// without deploying anything.
func (s *Server) check(req Request) Response {
	if req.App == nil {
		return errResponse(errors.New("wire: check requires an app graph"))
	}
	client := device.ID(req.ClientDevice)
	var attrs map[string]string
	if d := s.dom.Devices.Get(client); d != nil {
		attrs = d.Attrs
	}
	_, rep, err := s.dom.Composer.Compose(composer.Request{
		App:          core.ResolveClientPins(req.App, client),
		UserQoS:      req.UserQoS,
		ClientAttrs:  attrs,
		ClientDevice: req.ClientDevice,
	})
	if err != nil {
		return errResponse(err)
	}
	return Response{OK: true, CheckSummary: rep.Summary()}
}

// traceInfo returns the most recent configuration trace for a session,
// or the latest trace overall when no session is named.
func (s *Server) traceInfo(sessionID string) Response {
	var td *trace.TraceData
	if sessionID == "" {
		td = s.dom.Tracer.Latest()
	} else {
		td = s.dom.Tracer.Find(sessionID)
	}
	if td == nil {
		if sessionID == "" {
			return errResponse(errors.New("wire: no traces recorded yet"))
		}
		return errResponse(fmt.Errorf("wire: no trace for session %q", sessionID))
	}
	return Response{OK: true, Trace: td}
}

// flightInfo returns one session's fused flight-recorder timeline, or
// the index of recorded sessions when no session is named.
func (s *Server) flightInfo(sessionID string) Response {
	if sessionID == "" {
		return Response{OK: true, FlightSessions: s.dom.Flight.Sessions()}
	}
	entries := s.dom.Flight.Timeline(sessionID)
	if len(entries) == 0 {
		return errResponse(fmt.Errorf("wire: no flight timeline for session %q", sessionID))
	}
	return Response{OK: true, Flight: entries}
}

// ledgerInfo returns one session's delivered-vs-requested outcome
// report, or the index of recorded sessions when no session is named.
func (s *Server) ledgerInfo(sessionID string) Response {
	if sessionID == "" {
		return Response{OK: true, LedgerSessions: s.dom.Ledger.Sessions()}
	}
	rep, ok := s.dom.Ledger.Report(sessionID)
	if !ok {
		return errResponse(fmt.Errorf("wire: no ledger record for session %q", sessionID))
	}
	return Response{OK: true, Ledger: &rep}
}

// incidentsInfo lists the incident log (evidence bundles stripped to
// keep the listing light) or returns one incident in full by ID.
func (s *Server) incidentsInfo(id string) Response {
	if id == "" {
		list := s.dom.Incidents.List()
		for i := range list {
			list[i].Evidence = nil
		}
		return Response{OK: true, Incidents: list}
	}
	inc, ok := s.dom.Incidents.Get(id)
	if !ok {
		return errResponse(fmt.Errorf("wire: no incident %q", id))
	}
	return Response{OK: true, Incident: &inc}
}

// postmortemInfo renders one incident's shareable markdown postmortem.
func (s *Server) postmortemInfo(id string) Response {
	if id == "" {
		return errResponse(fmt.Errorf("wire: postmortem needs an incident ID, e.g. \"INC-1\""))
	}
	inc, ok := s.dom.Incidents.Get(id)
	if !ok {
		return errResponse(fmt.Errorf("wire: no incident %q", id))
	}
	return Response{OK: true, Incident: &inc, Postmortem: incident.Postmortem(inc)}
}

// scorecardInfo returns the per-class QoS outcome scorecards, optionally
// restricted to one class and/or a trailing latency window.
func (s *Server) scorecardInfo(req Request) Response {
	var window time.Duration
	if req.Window != "" {
		d, err := time.ParseDuration(req.Window)
		if err != nil || d < 0 {
			return errResponse(fmt.Errorf("wire: bad window %q (want a Go duration, e.g. \"2m\")", req.Window))
		}
		window = d
	}
	cards := s.dom.Ledger.Scorecards(window)
	if req.Class != "" {
		filtered := cards[:0]
		for _, c := range cards {
			if c.Class == req.Class {
				filtered = append(filtered, c)
			}
		}
		if len(filtered) == 0 {
			return errResponse(fmt.Errorf("wire: no scorecard for class %q", req.Class))
		}
		cards = filtered
	}
	return Response{OK: true, Scorecards: cards}
}

// explainInfo returns one session's decision-provenance report, or the
// index of sessions with records when no session is named.
func (s *Server) explainInfo(sessionID string) Response {
	if sessionID == "" {
		return Response{OK: true, ExplainSessions: s.dom.Explain.Sessions()}
	}
	se := s.dom.Explain.Explain(sessionID)
	if se == nil {
		return errResponse(fmt.Errorf("wire: no explain record for session %q", sessionID))
	}
	return Response{OK: true, Explain: se}
}

// timeseries answers a capacity time-series query: one named series
// (optionally restricted to a trailing window), or the recorded series
// list when no metric is named. A sampling pass runs first so the ring is
// fresh even between ticks.
func (s *Server) timeseries(req Request) Response {
	s.dom.SampleCapacityNow()
	if req.Metric == "" {
		return Response{OK: true, TimeseriesMetrics: s.dom.Capacity.Metrics()}
	}
	var window time.Duration
	if req.Window != "" {
		d, err := time.ParseDuration(req.Window)
		if err != nil || d < 0 {
			return errResponse(fmt.Errorf("wire: bad window %q (want a Go duration, e.g. \"2m\")", req.Window))
		}
		window = d
	}
	samples := s.dom.Capacity.Series(req.Metric, window)
	if samples == nil {
		return errResponse(fmt.Errorf("wire: no series %q (omit the metric to list recorded series)", req.Metric))
	}
	return Response{OK: true, Timeseries: &TimeseriesInfo{
		Metric:          req.Metric,
		IntervalSeconds: s.dom.Capacity.Interval().Seconds(),
		Samples:         samples,
	}}
}

// statsInfo snapshots the incremental-placement counters: plan cache
// hit/miss ledger plus the warm/cold branch-and-bound solve split.
func (s *Server) statsInfo() Response {
	m := s.dom.Metrics
	info := &StatsInfo{
		WarmSolves: m.Counter(metrics.WarmSolves).Value(),
		ColdSolves: m.Counter(metrics.ColdSolves).Value(),
	}
	if v, ok := m.Gauge(metrics.WarmSpeedup).Value(); ok {
		info.WarmSpeedup = v
	}
	if s.dom.PlanCache != nil {
		st := s.dom.PlanCache.Stats()
		info.PlanCache = &st
	}
	return Response{OK: true, Stats: info}
}

// sessionInfo answers the session op, the one reply that carries the
// Graphviz rendering: `qosctl session -dot` is its only reader, so start
// and switch do not pay for it.
func (s *Server) sessionInfo(id string) Response {
	active := s.dom.Configurator.Session(id)
	if active == nil {
		return errResponse(fmt.Errorf("wire: unknown session %q", id))
	}
	info := sessionInfoOf(active)
	placement := make(map[graph.NodeID]string, len(active.Placement))
	for id, dev := range active.Placement {
		placement[id] = string(dev)
	}
	info.DOT = active.Graph.DOT(active.ID, placement)
	return Response{OK: true, Session: info}
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
		Timing: timingInfo(active.Timing.Composition, active.Timing.Distribution,
			active.Timing.Downloading, active.Timing.InitOrHandoff),
		Rates:   active.Runtime.SinkRates(),
		Summary: active.Report.Summary(),
	}
}
