// Package runtime executes a distributed service graph as an emulated
// media pipeline: sources generate typed frames at their configured
// output rate, transcoders rewrite frame formats, buffers pace streams
// down, frames crossing devices arrive one link latency later, and sinks
// measure the delivered frame rate — the "measured QoS" axis of the
// paper's Figure 3.
//
// A session is one discrete-event loop: Deploy flattens the graph into
// slice-indexed component and edge tables, and Start launches the
// session's only goroutine, which owns one timer queue (internal/sim) on
// which a source tick, a buffer's cadence tick and a frame delivery are
// events, and sleeps on one timer until the next is due or the session is
// stopped. The pipeline runs at a configurable time scale, so a session
// that would play for minutes on the real testbed completes in
// milliseconds of wall time while reporting full-scale rates.
package runtime

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ubiqos/internal/device"
	"ubiqos/internal/graph"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/sim"
)

// Engine deploys sessions onto the emulated smart space.
type Engine struct {
	scale float64
	net   *netsim.Network
	// newClock makes a session's clock: the wall clock, outside the tests.
	newClock func() clock
}

// NewEngine returns an engine running at the given time scale (1 = real
// time; 0.01 = 100× fast-forward) over the given network (used for
// inter-device frame latency).
func NewEngine(scale float64, net *netsim.Network) (*Engine, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("runtime: scale must be positive, got %g", scale)
	}
	if net == nil {
		return nil, fmt.Errorf("runtime: nil network")
	}
	return &Engine{scale: scale, net: net, newClock: newWallClock}, nil
}

// DefaultFrameRate is assumed for sources that do not declare a framerate
// dimension.
const DefaultFrameRate = 30.0

// chanBuffer bounds the frames one edge holds undelivered; a frame
// forwarded onto a full edge is dropped (media streams are lossy) and
// counted. On a Fig. 5 graph it is what keeps a burst finite: a component
// forwards one copy per path that reaches it, so unbounded, one source
// frame becomes as many frames as the DAG has paths.
const chanBuffer = 16

// TypeBuffer is the component type whose instances pace their stream down
// to the declared output rate (shared vocabulary with the composition
// tier's corrective buffer insertion).
const TypeBuffer = "buffer"

// pacingSlack lets a paced stream tolerate arrival jitter: a frame is
// forwarded when at least slack×interval has elapsed since the last one.
const pacingSlack = 0.9

// Frame is one unit of media data.
type Frame struct {
	// Seq is the stream position (monotonic per source).
	Seq int64
	// Format is the current media encoding.
	Format string
	// Origin is the source component that generated the frame.
	Origin graph.NodeID
}

// role is what a component does with a frame, fixed by its position in
// the graph and its type.
type role uint8

const (
	// roleFilter forwards at the arrival rate; enforcing rates is the
	// buffer's job in the paper's correction model.
	roleFilter role = iota
	roleSource
	roleSink
	// roleBuffer is the paper's buffer with one input: frames are queued
	// and re-emitted on a fixed cadence at the configured output rate.
	roleBuffer
	// rolePacer is a buffer with several inputs: it drops a frame arriving
	// under slack×interval after the last it forwarded, so that jitter
	// does not halve a stream already at the target rate.
	rolePacer
)

// component is one row of a session's component table.
type component struct {
	id               graph.NodeID
	role             role
	outFirst, outEnd int32  // its outgoing edges' run of the edge table
	format           string // configured output format; "" keeps the frame's own
	// interval is, scaled, a source's tick period, a buffer's cadence or
	// a pacer's minimum spacing.
	interval float64

	seq      int64   // source: next stream position
	queue    []Frame // buffer: backlog, oldest first; a tick is scheduled while it is not empty
	lastEmit float64 // pacer: when it last forwarded, -Inf before it has
}

// edge is one row of a session's edge table.
type edge struct {
	from, to int32
	// latency is the scaled one-way link latency between the endpoints'
	// devices, 0 on one device. The distributor's fit-into check and link
	// reservations already guarantee bandwidth, so latency is all a frame
	// is charged.
	latency  float64
	inflight int32 // frames forwarded and not yet delivered, ≤ chanBuffer
}

// Deploy instantiates the service graph with the given placement and
// returns a stopped session; call Start to begin streaming. The placement
// must cover every node. maxFrames bounds each source (0 = unbounded).
func (e *Engine) Deploy(g *graph.Graph, placement map[graph.NodeID]device.ID, startPosition int64, maxFrames int64) (*Session, error) {
	if g == nil || g.NodeCount() == 0 {
		return nil, fmt.Errorf("runtime: empty graph")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	nodes := g.Nodes()
	s := &Session{
		engine:    e,
		start:     startPosition,
		maxFrames: maxFrames,
		comps:     make([]component, len(nodes)),
		edges:     make([]edge, 0, g.EdgeCount()),
	}
	// Components and devices become small integers, so no event hashes a
	// name: component i is the graph's node at position i.
	devOf := make([]int, len(nodes))
	var devs []device.ID
	for i, n := range nodes {
		dev, ok := placement[n.ID]
		if !ok {
			return nil, fmt.Errorf("runtime: node %s has no placement", n.ID)
		}
		if devOf[i] = slices.Index(devs, dev); devOf[i] < 0 {
			devOf[i], devs = len(devs), append(devs, dev)
		}
	}
	// latency holds one link lookup per device pair; -1 is "not asked".
	latency := make([]float64, len(devs)*len(devs))
	for i := range latency {
		latency[i] = -1
	}
	// EachEdge groups the edges by source in node order, so a component's
	// outgoing edges are one run of the edge table; each edge moves its
	// source's run end past it.
	indeg := make([]int32, len(nodes))
	g.EachEdge(func(from, to int, _ float64) {
		lat := &latency[devOf[from]*len(devs)+devOf[to]]
		if *lat < 0 {
			*lat = 0
			if link, ok := e.net.LinkBetween(string(devs[devOf[from]]), string(devs[devOf[to]])); ok && devOf[from] != devOf[to] {
				*lat = float64(time.Duration(link.LatencyMs * float64(time.Millisecond) * e.scale))
			}
		}
		s.edges = append(s.edges, edge{from: int32(from), to: int32(to), latency: *lat})
		s.comps[from].outEnd = int32(len(s.edges))
		indeg[to]++
	})
	var runEnd int32 // where the previous component's run ended
	for i, n := range nodes {
		c := &s.comps[i]
		// A component without outgoing edges has the empty run there.
		c.outFirst, c.outEnd = runEnd, max(c.outEnd, runEnd)
		runEnd = c.outEnd
		c.id, c.format = n.ID, outFormat(n)
		rate, declared := outRate(n)
		switch {
		case indeg[i] == 0:
			if !declared {
				rate = DefaultFrameRate
			}
			c.role, c.seq, c.interval = roleSource, startPosition, period(rate, e.scale)
		case c.outFirst == c.outEnd:
			c.role = roleSink
		case n.Type == TypeBuffer && declared && indeg[i] == 1:
			c.role, c.interval = roleBuffer, period(rate, e.scale)
		case n.Type == TypeBuffer && declared:
			c.role, c.interval, c.lastEmit = rolePacer, pacingSlack*period(rate, e.scale), math.Inf(-1)
		}
	}
	return s, nil
}

// period is the scaled interval between frames at the given rate, at
// least one nanosecond.
func period(rate, scale float64) float64 {
	return math.Max(1, float64(time.Duration(float64(time.Second)/rate*scale)))
}

// outRate reads the component's configured output frame rate.
func outRate(n *graph.Node) (float64, bool) {
	switch v, _ := n.Out.Get(qos.DimFrameRate); v.Kind {
	case qos.KindScalar:
		return v.Num, v.Num > 0
	case qos.KindRange:
		return v.Hi, v.Hi > 0
	}
	return 0, false
}

// outFormat reads the component's configured output format, if symbolic.
func outFormat(n *graph.Node) string {
	if v, _ := n.Out.Get(qos.DimFormat); v.Kind == qos.KindSymbol {
		return v.Sym
	}
	return ""
}

type statKey struct{ sink, from graph.NodeID }

// rateStat accumulates arrivals on one sink edge, including streaming
// inter-arrival statistics for jitter estimation.
type rateStat struct {
	count       int64
	first, last time.Duration // on the session's clock
	lastSeq     int64
	lastFormat  string
	// Inter-arrival deltas (scaled seconds): Welford's streaming mean and
	// sum of squared deviations, exactly zero for a constant spacing.
	dCount     int64
	dMean, dM2 float64
}

// Session is one deployed application instance. Times inside it (event
// queue, edge latencies, arrival stamps) are scaled nanoseconds on its clock.
type Session struct {
	engine *Engine
	// clk is made by Start: its epoch, the session's time zero, is then.
	clk              clock
	start, maxFrames int64

	// comps, edges and q belong to the loop goroutine once it exists.
	comps []component
	edges []edge
	q     sim.Simulator

	quit             chan struct{}
	wg               sync.WaitGroup
	muState          sync.Mutex
	started, stopped bool

	// mu guards the arrival statistics, which the loop writes and any
	// goroutine reads; the maps are made on the first arrival.
	mu                 sync.Mutex
	stats, originStats map[statKey]*rateStat
	dropped            atomic.Int64
}

// Start schedules every source's first tick and launches the session's
// event loop. Start is not reentrant.
func (s *Session) Start() error {
	s.muState.Lock()
	defer s.muState.Unlock()
	if s.started {
		return fmt.Errorf("runtime: session already started")
	}
	s.started = true
	s.quit = make(chan struct{})
	s.clk = s.engine.newClock()
	now := float64(s.clk.now())
	for i := range s.comps {
		if c := &s.comps[i]; c.role == roleSource {
			s.q.MustSchedule(now+c.interval, func() { s.sourceTick(c) })
		}
	}
	s.wg.Add(1)
	go s.loop()
	return nil
}

// Stop ends the event loop and returns once it has exited; events still
// queued never run. Stop is idempotent.
func (s *Session) Stop() {
	s.muState.Lock()
	defer s.muState.Unlock()
	if s.started && !s.stopped {
		s.stopped = true
		close(s.quit)
		s.wg.Wait()
	}
}

// Play runs the session for the given modeled duration (scaled down to
// the clock's time) and then stops it.
func (s *Session) Play(modeled time.Duration) error {
	if err := s.Start(); err != nil {
		return err
	}
	s.clk.sleep(time.Duration(float64(modeled) * s.engine.scale))
	s.Stop()
	return nil
}

// MeasuredRate returns the delivered frame rate (modeled fps) observed at
// the sink for frames arriving from the given direct predecessor, and the
// number of frames counted.
func (s *Session) MeasuredRate(sink, from graph.NodeID) (fps float64, frames int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rateLocked(s.stats, statKey{sink: sink, from: from})
}

// SinkRates returns the measured rate for every (sink, predecessor) pair
// with at least one arrival, keyed "sink<-from".
func (s *Session) SinkRates() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]float64, len(s.stats))
	for k := range s.stats {
		out[string(k.sink)+"<-"+string(k.from)], _ = s.rateLocked(s.stats, k)
	}
	return out
}

// Position returns the next stream position after the furthest frame
// delivered to any sink — the interruption point a checkpoint should
// capture.
func (s *Session) Position() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	pos := s.start
	for _, st := range s.stats {
		if st.lastSeq+1 > pos {
			pos = st.lastSeq + 1
		}
	}
	return pos
}

// Dropped reports frames discarded on full edges and by overloaded
// buffers.
func (s *Session) Dropped() int64 { return s.dropped.Load() }

// LastFormat returns the media format of the most recent frame delivered
// to the sink from the given predecessor.
func (s *Session) LastFormat(sink, from graph.NodeID) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.stats[statKey{sink: sink, from: from}]; st != nil {
		return st.lastFormat
	}
	return ""
}

// recordArrival counts a frame delivered to a sink, per predecessor and
// per origin, at the clock's reading: a delivery run late is measured late.
func (s *Session) recordArrival(sink, from graph.NodeID, f Frame) {
	now := s.clk.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stats == nil {
		s.stats = make(map[statKey]*rateStat)
		s.originStats = make(map[statKey]*rateStat)
	}
	record := func(m map[statKey]*rateStat, k statKey) {
		st, ok := m[k]
		if !ok {
			st = &rateStat{first: now}
			m[k] = st
		}
		if st.count > 0 {
			d := (now - st.last).Seconds()
			st.dCount++
			off := d - st.dMean
			st.dMean += off / float64(st.dCount)
			st.dM2 += off * (d - st.dMean)
		}
		st.count++
		st.last = now
		if f.Seq > st.lastSeq {
			st.lastSeq = f.Seq
		}
		st.lastFormat = f.Format
	}
	record(s.stats, statKey{sink: sink, from: from})
	if f.Origin != "" {
		record(s.originStats, statKey{sink: sink, from: f.Origin})
	}
}

// MeasuredJitter returns the standard deviation of the inter-arrival time
// (in modeled time) observed at the sink for frames from the given origin
// source — the delivery jitter a lip-sync or playout buffer must absorb.
func (s *Session) MeasuredJitter(sink, origin graph.NodeID) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.originStats[statKey{sink: sink, from: origin}]
	if !ok || st.dCount < 2 {
		return 0, false
	}
	realStd := math.Sqrt(st.dM2 / float64(st.dCount))
	return time.Duration(realStd / s.engine.scale * float64(time.Second)), true
}

// MeasuredOriginRate returns the delivered frame rate (modeled fps)
// observed at the sink for frames generated by the given origin source —
// the right measure when a multiplexing component (gateway, lip-sync)
// carries several streams over one edge.
func (s *Session) MeasuredOriginRate(sink, origin graph.NodeID) (fps float64, frames int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rateLocked(s.originStats, statKey{sink: sink, from: origin})
}

// rateLocked computes the modeled rate for one stat entry; callers hold mu.
func (s *Session) rateLocked(m map[statKey]*rateStat, k statKey) (float64, int64) {
	st := m[k]
	if st == nil {
		return 0, 0
	}
	if elapsed := (st.last - st.first).Seconds(); st.count >= 2 && elapsed > 0 {
		return float64(st.count-1) / (elapsed / s.engine.scale), st.count
	}
	return 0, st.count
}
