package runtime

// The goroutine-per-component, channel-per-edge runtime that the event
// loop replaced, kept verbatim as the oracle of
// TestEventLoopMatchesReference: only the type names carry a ref prefix,
// and the constants and Frame it shares with the event loop are not
// repeated.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ubiqos/internal/device"
	"ubiqos/internal/graph"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/resource"
)

// refEngine deploys sessions onto the emulated smart space.
type refEngine struct {
	scale float64
	net   *netsim.Network
}

// newRefEngine returns an engine running at the given time scale (1 = real
// time; 0.01 = 100× fast-forward) over the given network (used for
// inter-device frame latency).
func newRefEngine(scale float64, net *netsim.Network) (*refEngine, error) {
	if scale <= 0 {
		return nil, fmt.Errorf("runtime: scale must be positive, got %g", scale)
	}
	if net == nil {
		return nil, fmt.Errorf("runtime: nil network")
	}
	return &refEngine{scale: scale, net: net}, nil
}

// Deploy instantiates the service graph with the given placement and
// returns a stopped session; call Start to begin streaming. The placement
// must cover every node. maxFrames bounds each source (0 = unbounded).
func (e *refEngine) Deploy(g *graph.Graph, placement map[graph.NodeID]device.ID, startPosition int64, maxFrames int64) (*refSession, error) {
	if g == nil || g.NodeCount() == 0 {
		return nil, fmt.Errorf("runtime: empty graph")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	for _, n := range g.Nodes() {
		if _, ok := placement[n.ID]; !ok {
			return nil, fmt.Errorf("runtime: node %s has no placement", n.ID)
		}
	}
	s := &refSession{
		engine:      e,
		graph:       g,
		placement:   placement,
		start:       startPosition,
		maxFrames:   maxFrames,
		quit:        make(chan struct{}),
		stats:       make(map[statKey]*refRateStat),
		originStats: make(map[statKey]*refRateStat),
		procs:       make(map[graph.NodeID]*refProc),
	}
	// Build one channel per edge, owned by the consumer side.
	chans := make(map[graph.Edge]chan Frame)
	for _, edge := range g.Edges() {
		chans[edge] = make(chan Frame, chanBuffer)
	}
	for _, n := range g.Nodes() {
		p := &refProc{node: n, session: s}
		for _, edge := range g.In(n.ID) {
			p.in = append(p.in, refInEdge{from: edge.From, ch: chans[edge]})
		}
		for _, edge := range g.Out(n.ID) {
			p.out = append(p.out, refOutEdge{to: edge.To, ch: chans[edge]})
		}
		s.procs[n.ID] = p
	}
	return s, nil
}

type refInEdge struct {
	from graph.NodeID
	ch   chan Frame
}

type refOutEdge struct {
	to graph.NodeID
	ch chan Frame
}

// refRateStat accumulates arrivals on one sink edge, including streaming
// inter-arrival statistics for jitter estimation.
type refRateStat struct {
	count       int64
	first, last time.Time
	lastSeq     int64
	lastFormat  string
	// Inter-arrival deltas (real time, seconds): streaming sum and sum of
	// squares for the standard deviation.
	dCount       int64
	dSum, dSqSum float64
}

// refSession is one deployed application instance.
type refSession struct {
	engine    *refEngine
	graph     *graph.Graph
	placement map[graph.NodeID]device.ID
	start     int64
	maxFrames int64

	quit    chan struct{}
	wg      sync.WaitGroup
	started bool
	stopped bool
	muState sync.Mutex

	mu          sync.Mutex
	stats       map[statKey]*refRateStat
	originStats map[statKey]*refRateStat
	dropped     int64

	procs map[graph.NodeID]*refProc
}

// Start launches every component goroutine. Start is not reentrant.
func (s *refSession) Start() error {
	s.muState.Lock()
	defer s.muState.Unlock()
	if s.started {
		return fmt.Errorf("runtime: session already started")
	}
	s.started = true
	for _, p := range s.procs {
		p := p
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			p.run()
		}()
	}
	return nil
}

// Stop terminates all components and waits for them to exit. Stop is
// idempotent.
func (s *refSession) Stop() {
	s.muState.Lock()
	if !s.started || s.stopped {
		s.muState.Unlock()
		return
	}
	s.stopped = true
	s.muState.Unlock()
	close(s.quit)
	s.wg.Wait()
}

// Play runs the session for the given modeled duration (scaled down to
// wall time) and then stops it.
func (s *refSession) Play(modeled time.Duration) error {
	if err := s.Start(); err != nil {
		return err
	}
	time.Sleep(time.Duration(float64(modeled) * s.engine.scale))
	s.Stop()
	return nil
}

// MeasuredRate returns the delivered frame rate (modeled fps) observed at
// the sink for frames arriving from the given direct predecessor, and the
// number of frames counted.
func (s *refSession) MeasuredRate(sink, from graph.NodeID) (fps float64, frames int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rateLocked(s.stats, statKey{sink: sink, from: from})
}

// SinkRates returns the measured rate for every (sink, predecessor) pair
// with at least one arrival, keyed "sink<-from".
func (s *refSession) SinkRates() map[string]float64 {
	out := make(map[string]float64)
	s.mu.Lock()
	keys := make([]statKey, 0, len(s.stats))
	for k := range s.stats {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	for _, k := range keys {
		fps, _ := s.MeasuredRate(k.sink, k.from)
		out[string(k.sink)+"<-"+string(k.from)] = fps
	}
	return out
}

// Position returns the next stream position after the furthest frame
// delivered to any sink — the interruption point a checkpoint should
// capture.
func (s *refSession) Position() int64 {
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

// Dropped reports frames discarded on overflowing edges.
func (s *refSession) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// LastFormat returns the media format of the most recent frame delivered
// to the sink from the given predecessor.
func (s *refSession) LastFormat(sink, from graph.NodeID) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.stats[statKey{sink: sink, from: from}]; ok {
		return st.lastFormat
	}
	return ""
}

func (s *refSession) recordArrival(sink, from graph.NodeID, f Frame) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	record := func(m map[statKey]*refRateStat, k statKey) {
		st, ok := m[k]
		if !ok {
			st = &refRateStat{first: now}
			m[k] = st
		}
		if st.count > 0 {
			d := now.Sub(st.last).Seconds()
			st.dCount++
			st.dSum += d
			st.dSqSum += d * d
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
func (s *refSession) MeasuredJitter(sink, origin graph.NodeID) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.originStats[statKey{sink: sink, from: origin}]
	if !ok || st.dCount < 2 {
		return 0, false
	}
	n := float64(st.dCount)
	mean := st.dSum / n
	variance := st.dSqSum/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	realStd := math.Sqrt(variance)
	return time.Duration(realStd / s.engine.scale * float64(time.Second)), true
}

// MeasuredOriginRate returns the delivered frame rate (modeled fps)
// observed at the sink for frames generated by the given origin source —
// the right measure when a multiplexing component (gateway, lip-sync)
// carries several streams over one edge.
func (s *refSession) MeasuredOriginRate(sink, origin graph.NodeID) (fps float64, frames int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rateLocked(s.originStats, statKey{sink: sink, from: origin})
}

// rateLocked computes the modeled rate for one stat entry; callers hold mu.
func (s *refSession) rateLocked(m map[statKey]*refRateStat, k statKey) (float64, int64) {
	st, ok := m[k]
	if !ok {
		return 0, 0
	}
	if st.count < 2 {
		return 0, st.count
	}
	realElapsed := st.last.Sub(st.first).Seconds()
	if realElapsed <= 0 {
		return 0, st.count
	}
	return float64(st.count-1) / (realElapsed / s.engine.scale), st.count
}

func (s *refSession) recordDrop() {
	s.mu.Lock()
	s.dropped++
	s.mu.Unlock()
}

// refProc is one running component instance.
type refProc struct {
	node    *graph.Node
	session *refSession
	in      []refInEdge
	out     []refOutEdge
}

// run dispatches on the component's position in the graph: sources
// generate, sinks consume and measure, everything else transforms and
// forwards.
func (p *refProc) run() {
	switch {
	case len(p.in) == 0:
		p.runSource()
	case len(p.out) == 0:
		p.runSink()
	default:
		p.runFilter()
	}
}

// outRate reads the component's configured output frame rate.
func (p *refProc) outRate() (float64, bool) {
	v, ok := p.node.Out.Get(qos.DimFrameRate)
	if !ok {
		return 0, false
	}
	switch v.Kind {
	case qos.KindScalar:
		return v.Num, v.Num > 0
	case qos.KindRange:
		return v.Hi, v.Hi > 0
	default:
		return 0, false
	}
}

// outFormat reads the component's configured output format, if symbolic.
func (p *refProc) outFormat() string {
	v, ok := p.node.Out.Get(qos.DimFormat)
	if ok && v.Kind == qos.KindSymbol {
		return v.Sym
	}
	return ""
}

// runSource emits frames at the configured rate (scaled), starting at the
// session's start position, until stopped or maxFrames is reached.
func (p *refProc) runSource() {
	rate, ok := p.outRate()
	if !ok {
		rate = DefaultFrameRate
	}
	interval := time.Duration(float64(time.Second) / rate * p.session.engine.scale)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	seq := p.session.start
	format := p.outFormat()
	for {
		select {
		case <-p.session.quit:
			return
		case <-ticker.C:
			f := Frame{Seq: seq, Format: format, Origin: p.node.ID}
			seq++
			p.forward(f)
			if p.session.maxFrames > 0 && seq-p.session.start >= p.session.maxFrames {
				return
			}
		}
	}
}

// runSink drains all incoming edges, recording per-edge arrival stats.
func (p *refProc) runSink() {
	p.consume(func(graph.NodeID, Frame) {})
}

// runFilter transforms and forwards: the frame's format becomes the
// component's configured output format (transcoding), and buffer
// components pace the stream down to their configured output rate. Only
// buffers pace — transcoders and other filters forward at the arrival
// rate (enforcing rates is the buffer's job in the paper's correction
// model). A single-input buffer gets the full queue-and-ticker treatment
// (absorbing arrival jitter by re-emitting on a fixed cadence); fan-in
// buffers fall back to drop-based pacing with a small slack so a stream
// already at the target rate is not halved by jitter.
func (p *refProc) runFilter() {
	format := p.outFormat()
	if rate, ok := p.outRate(); ok && p.node.Type == TypeBuffer && len(p.in) == 1 {
		p.runBuffer(format, rate)
		return
	}
	var minInterval time.Duration
	if rate, ok := p.outRate(); ok && p.node.Type == TypeBuffer {
		minInterval = time.Duration(float64(time.Second) / rate * p.session.engine.scale * pacingSlack)
	}
	var lastEmit time.Time
	p.consume(func(_ graph.NodeID, f Frame) {
		if minInterval > 0 {
			now := time.Now()
			if !lastEmit.IsZero() && now.Sub(lastEmit) < minInterval {
				return // pace: drop the early frame
			}
			lastEmit = now
		}
		if format != "" {
			f.Format = format
		}
		p.forward(f)
	})
}

// runBuffer implements the paper's buffer component for the single-input
// case: incoming frames are queued and re-emitted on a fixed cadence at
// the configured output rate, so a too-fast or jittery producer is paced
// down to a smooth stream.
func (p *refProc) runBuffer(format string, rate float64) {
	interval := time.Duration(float64(time.Second) / rate * p.session.engine.scale)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	in := p.in[0]
	var queue []Frame
	for {
		select {
		case <-p.session.quit:
			return
		case f, ok := <-in.ch:
			if !ok {
				continue
			}
			p.chargeLinkLatency(in.from)
			if len(queue) == bufferQueueCap {
				queue = queue[1:]
				p.session.recordDrop()
			}
			queue = append(queue, f)
		case <-ticker.C:
			if len(queue) == 0 {
				continue
			}
			f := queue[0]
			queue = queue[1:]
			if format != "" {
				f.Format = format
			}
			p.forward(f)
		}
	}
}

// consume multiplexes all input edges with reflect.Select (component
// fan-in is small) and invokes fn per frame; inter-device edges charge the
// link latency before delivery. It records arrivals when the component is
// a sink.
func (p *refProc) consume(fn func(from graph.NodeID, f Frame)) {
	isSink := len(p.out) == 0
	cases := make([]reflect.SelectCase, 0, len(p.in)+1)
	cases = append(cases, reflect.SelectCase{
		Dir:  reflect.SelectRecv,
		Chan: reflect.ValueOf(p.session.quit),
	})
	for _, ie := range p.in {
		cases = append(cases, reflect.SelectCase{
			Dir:  reflect.SelectRecv,
			Chan: reflect.ValueOf(ie.ch),
		})
	}
	for {
		chosen, val, ok := reflect.Select(cases)
		if chosen == 0 {
			return // quit closed
		}
		if !ok {
			continue
		}
		from := p.in[chosen-1].from
		f := val.Interface().(Frame)
		p.chargeLinkLatency(from)
		if isSink {
			p.session.recordArrival(p.node.ID, from, f)
		}
		fn(from, f)
	}
}

// chargeLinkLatency sleeps the scaled one-way latency when the frame
// crossed a device boundary. Bandwidth adequacy is already guaranteed by
// the distributor's fit-into check and link reservations, so only latency
// is modeled per frame.
func (p *refProc) chargeLinkLatency(from graph.NodeID) {
	myDev := p.session.placement[p.node.ID]
	srcDev := p.session.placement[from]
	if myDev == srcDev {
		return
	}
	link, ok := p.session.engine.net.LinkBetween(string(srcDev), string(myDev))
	if !ok {
		return
	}
	delay := time.Duration(link.LatencyMs * float64(time.Millisecond) * p.session.engine.scale)
	if delay > 0 {
		time.Sleep(delay)
	}
}

// forward sends the frame down every outgoing edge without blocking;
// overflowing edges drop the frame.
func (p *refProc) forward(f Frame) {
	for _, oe := range p.out {
		select {
		case oe.ch <- f:
		default:
			p.session.recordDrop()
		}
	}
}

// refCase is one generated pipeline for TestEventLoopMatchesReference.
type refCase struct {
	g         *graph.Graph
	placement map[graph.NodeID]device.ID
	maxFrames int64
}

// genRefCase draws a DAG of 2–8 components on one or two devices: chains,
// fan-in, fan-out, transcoders and single-input buffers, with 1–6 frames
// per source. Three things keep the comparison free of timing: no
// multi-input buffer (it drops by arrival time), every fan-in component
// that forwards declares its output format (so the last format on an edge
// does not depend on which input's frame came last), and every edge
// carries at most chanBuffer frames in total (so neither runtime can drop
// one however its deliveries interleave). It reports false when the drawn
// DAG has too many paths for that.
func genRefCase(rng *rand.Rand) (refCase, bool) {
	rates := []float64{20, 25, 40, 50, 100}
	formats := []string{qos.FormatMP3, qos.FormatWAV, qos.FormatPCM, qos.FormatH261}
	n := 2 + rng.Intn(7)
	ids := make([]graph.NodeID, n)
	preds := make([][]int, n)
	for i := 1; i < n; i++ {
		if i < n-1 && rng.Intn(5) == 0 {
			continue // one more source
		}
		want := 1 + rng.Intn(3)
		for _, p := range rng.Perm(i) {
			if len(preds[i]) < want {
				preds[i] = append(preds[i], p)
			}
		}
	}
	g := graph.New()
	// paths[i] counts the source→i paths: the copies of one source frame
	// that reach i, and so travel each of its outgoing edges.
	paths := make([]int, n)
	most := 1
	for i := range ids {
		ids[i] = graph.NodeID(fmt.Sprintf("c%d", i))
		node := &graph.Node{ID: ids[i], Type: "filter", Resources: resource.MB(1, 1)}
		var out []qos.Param
		switch {
		case len(preds[i]) == 0:
			paths[i] = 1
			out = append(out, qos.P(qos.DimFrameRate, qos.Scalar(rates[rng.Intn(len(rates))])))
			if rng.Intn(2) == 0 {
				out = append(out, qos.P(qos.DimFormat, qos.Symbol(formats[rng.Intn(len(formats))])))
			}
		case len(preds[i]) > 1 || rng.Intn(3) == 0:
			node.Type = "transcoder"
			out = append(out, qos.P(qos.DimFormat, qos.Symbol(formats[rng.Intn(len(formats))])))
		case rng.Intn(2) == 0:
			node.Type = TypeBuffer
			out = append(out, qos.P(qos.DimFrameRate, qos.Scalar(rates[rng.Intn(len(rates))])))
		}
		node.Out = qos.V(out...)
		g.MustAddNode(node)
		for _, p := range preds[i] {
			g.MustAddEdge(ids[p], ids[i], 1)
			paths[i] += paths[p]
		}
		if paths[i] > most {
			most = paths[i]
		}
	}
	if most > chanBuffer {
		return refCase{}, false
	}
	c := refCase{g: g, placement: make(map[graph.NodeID]device.ID, n), maxFrames: int64(1 + rng.Intn(6))}
	if limit := int64(chanBuffer / most); c.maxFrames > limit {
		c.maxFrames = limit
	}
	devs := []device.ID{"pc", "pda"}[:1+rng.Intn(2)]
	for _, id := range ids {
		c.placement[id] = devs[rng.Intn(len(devs))]
	}
	return c, true
}

// sinkView is everything the equivalence compares, in one comparable
// rendering: frames and last format per (sink, predecessor), frames per
// (sink, origin), position and drops.
func sinkView(stats, origins map[statKey]int64, lastFormat func(sink, from graph.NodeID) string, position, dropped int64) string {
	var lines []string
	for k, n := range stats {
		lines = append(lines, fmt.Sprintf("%s<-%s: %d frames, last format %q", k.sink, k.from, n, lastFormat(k.sink, k.from)))
	}
	for k, n := range origins {
		lines = append(lines, fmt.Sprintf("%s<~%s: %d frames", k.sink, k.from, n))
	}
	sort.Strings(lines)
	return fmt.Sprintf("%s\nposition %d, dropped %d", strings.Join(lines, "\n"), position, dropped)
}

// counts flattens arrival statistics to frames per key and in total.
func counts[S any](m map[statKey]S, count func(S) int64) (map[statKey]int64, int64) {
	out, total := make(map[statKey]int64, len(m)), int64(0)
	for k, st := range m {
		out[k] = count(st)
		total += out[k]
	}
	return out, total
}

// runReference plays the case on the goroutine runtime, polling until its
// sinks have counted want frames and then as long again, in which one
// frame too many would show.
func runReference(ref *refEngine, c refCase, want int64) (string, error) {
	r, err := ref.Deploy(c.g, c.placement, refStart, c.maxFrames)
	if err == nil {
		err = r.Start()
	}
	if err != nil {
		return "", err
	}
	view := func() (string, int64) {
		r.mu.Lock()
		stats, total := counts(r.stats, func(st *refRateStat) int64 { return st.count })
		origins, _ := counts(r.originStats, func(st *refRateStat) int64 { return st.count })
		r.mu.Unlock()
		return sinkView(stats, origins, r.LastFormat, r.Position(), r.Dropped()), total
	}
	begin := time.Now()
	for _, n := view(); n < want && time.Since(begin) < 5*time.Second; _, n = view() {
		time.Sleep(200 * time.Microsecond)
	}
	time.Sleep(time.Since(begin))
	r.Stop()
	v, _ := view()
	return v, nil
}

// refStart is the stream position the equivalence cases start from.
const refStart = 7

func TestEventLoopMatchesReference(t *testing.T) {
	const cases = 240
	// The reference runs on the wall clock, 100× fast-forward. This box's
	// timers are good to about a millisecond, so a case takes a few of
	// them whatever the scale; the cases wait side by side instead.
	ref, err := newRefEngine(0.01, testNet())
	if err != nil {
		t.Fatal(err)
	}
	loop := virtualEngine(t)
	type outcome struct {
		seed      int64
		c         refCase
		got, want string
		err       error
	}
	results := make(chan outcome)
	slots := make(chan struct{}, 24) // reference sessions waiting at once
	ran := 0
	for seed := int64(1); ran < cases; seed++ {
		c, ok := genRefCase(rand.New(rand.NewSource(seed)))
		if !ok {
			continue
		}
		ran++

		// The event loop, stepped on virtual time until nothing is queued.
		s, err := loop.Deploy(c.g, c.placement, refStart, c.maxFrames)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s.Play(time.Hour); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if s.q.Pending() != 0 {
			t.Fatalf("seed %d: %d events still queued after an hour", seed, s.q.Pending())
		}
		if s.Dropped() != 0 {
			t.Fatalf("seed %d: event loop dropped %d frames", seed, s.Dropped())
		}
		stats, frames := counts(s.stats, func(st *rateStat) int64 { return st.count })
		origins, _ := counts(s.originStats, func(st *rateStat) int64 { return st.count })
		o := outcome{seed: seed, c: c, got: sinkView(stats, origins, s.LastFormat, s.Position(), 0)}
		go func() {
			slots <- struct{}{}
			o.want, o.err = runReference(ref, c, frames)
			<-slots
			results <- o
		}()
	}
	for i := 0; i < cases; i++ {
		o := <-results
		if o.err != nil {
			t.Errorf("seed %d: reference: %v", o.seed, o.err)
		} else if o.got != o.want {
			t.Errorf("seed %d (%d nodes, %d edges, %d frames per source):\nevent loop:\n%s\nreference:\n%s",
				o.seed, o.c.g.NodeCount(), o.c.g.EdgeCount(), o.c.maxFrames, o.got, o.want)
		}
	}
}
