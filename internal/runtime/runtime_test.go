package runtime

import (
	"math"
	"math/rand"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"ubiqos/internal/device"
	"ubiqos/internal/graph"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/resource"
	"ubiqos/internal/workload"
)

// testScale runs pipelines 10x faster than modeled time; on the virtual
// clock it only checks that rates are reported at full scale.
const testScale = 0.1

func testNet() *netsim.Network {
	n := netsim.MustNew(testScale)
	n.MustSetLink("pc", "pda", netsim.WLAN)
	n.MustSetLink("pc", "server-host", netsim.Ethernet)
	return n
}

// virtualClock is the test side of the package's clock seam. Time moves
// only when the test sleeps on it: sleep(d) lets the session's loop run
// every event due within the next d and returns once the loop is parked on
// a later one (or gone), so what a test reads afterwards is exact and
// repeatable.
type virtualClock struct {
	mu      sync.Mutex
	t       time.Duration // now
	horizon time.Duration // the loop may run events due up to here
	parked  bool          // the loop has seen this horizon and waits beyond it
	gone    bool          // the loop was stopped
	idle    chan struct{} // loop → sleeper: parked or gone changed
	wake    chan struct{} // sleeper → loop: the horizon moved

	// holdAt, when positive, parks the holdAt-th wait until the session is
	// stopped and closes held when it gets there: a stop in mid-burst.
	holdAt, waits int
	held          chan struct{}
}

func newVirtualClock() *virtualClock {
	return &virtualClock{idle: make(chan struct{}, 1), wake: make(chan struct{}, 1), held: make(chan struct{})}
}

func (c *virtualClock) now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

func (c *virtualClock) wait(until time.Duration, quit <-chan struct{}) bool {
	c.mu.Lock()
	c.waits++
	hold := c.waits == c.holdAt
	c.mu.Unlock()
	if hold {
		close(c.held)
		<-quit
	}
	for {
		select {
		case <-quit:
			c.mu.Lock()
			c.gone = true
			c.mu.Unlock()
			poke(c.idle)
			return false
		default:
		}
		c.mu.Lock()
		if until <= c.horizon {
			if until > c.t {
				c.t = until
			}
			c.mu.Unlock()
			return true
		}
		c.parked = true
		c.mu.Unlock()
		poke(c.idle)
		select {
		case <-quit:
		case <-c.wake:
		}
	}
}

func (c *virtualClock) sleep(d time.Duration) {
	c.mu.Lock()
	c.horizon += d
	target := c.horizon
	c.parked = false
	c.mu.Unlock()
	poke(c.wake)
	for {
		c.mu.Lock()
		settled := c.parked || c.gone
		if settled && !c.gone {
			c.t = target
		}
		c.mu.Unlock()
		if settled {
			return
		}
		<-c.idle
	}
}

// virtualEngine is an engine whose sessions run on virtual clocks.
func virtualEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(testScale, testNet())
	if err != nil {
		t.Fatal(err)
	}
	e.newClock = func() clock { return newVirtualClock() }
	return e
}

// exactly fails unless the measured rate is the expected one to within
// float rounding (source intervals are whole nanoseconds).
func exactly(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("%s = %.9f fps, want %g", what, got, want)
	}
}

// audioGraph builds server(40fps MP3) -> player, both placeable.
func audioGraph(rate float64) *graph.Graph {
	g := graph.New()
	g.MustAddNode(&graph.Node{
		ID:        "server",
		Type:      "audio-server",
		Out:       qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3)), qos.P(qos.DimFrameRate, qos.Scalar(rate))),
		Resources: resource.MB(1, 1),
	})
	g.MustAddNode(&graph.Node{
		ID:        "player",
		Type:      "audio-player",
		In:        qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3))),
		Resources: resource.MB(1, 1),
	})
	g.MustAddEdge("server", "player", 1.5)
	return g
}

var onPC = map[graph.NodeID]device.ID{"server": "pc", "player": "pc"}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(0, testNet()); err == nil {
		t.Error("zero scale should fail")
	}
	if _, err := NewEngine(1, nil); err == nil {
		t.Error("nil network should fail")
	}
}

func TestDeployValidation(t *testing.T) {
	e, err := NewEngine(testScale, testNet())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Deploy(nil, nil, 0, 0); err == nil {
		t.Error("nil graph should fail")
	}
	if _, err := e.Deploy(graph.New(), nil, 0, 0); err == nil {
		t.Error("empty graph should fail")
	}
	g := audioGraph(40)
	if _, err := e.Deploy(g, map[graph.NodeID]device.ID{"server": "pc"}, 0, 0); err == nil {
		t.Error("incomplete placement should fail")
	}
}

// TestRealTimeDriverStreams is the one test on the wall clock: the real
// timer drives the loop and frames arrive at about the configured rate.
func TestRealTimeDriverStreams(t *testing.T) {
	e, err := NewEngine(testScale, testNet())
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.Deploy(audioGraph(40), onPC, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Play(1500 * time.Millisecond); err != nil { // 150ms wall
		t.Fatal(err)
	}
	fps, frames := s.MeasuredRate("player", "server")
	if frames < 20 { // no ceiling: the sleep may overrun
		t.Fatalf("only %d frames delivered in 1.5s at 40 fps", frames)
	}
	if math.Abs(fps-40) > 12 {
		t.Errorf("measured %0.1f fps, want ≈40", fps)
	}
}

func TestMeasuredRateMatchesSourceRate(t *testing.T) {
	s, err := virtualEngine(t).Deploy(audioGraph(40), onPC, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Play(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	fps, frames := s.MeasuredRate("player", "server")
	if frames != 160 {
		t.Fatalf("%d frames delivered in 4s at 40 fps, want 160", frames)
	}
	exactly(t, "measured rate", fps, 40)
	if s.LastFormat("player", "server") != qos.FormatMP3 {
		t.Errorf("format = %q", s.LastFormat("player", "server"))
	}
}

func TestStartStopSemantics(t *testing.T) {
	e, _ := NewEngine(testScale, testNet())
	s, err := e.Deploy(audioGraph(40), onPC, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Error("double start should fail")
	}
	s.Stop()
	s.Stop() // idempotent
}

func TestMaxFramesBoundsSource(t *testing.T) {
	s, err := virtualEngine(t).Deploy(audioGraph(100), onPC, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Play(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	_, frames := s.MeasuredRate("player", "server")
	if frames != 10 {
		t.Errorf("frames = %d, want exactly 10", frames)
	}
}

func TestPositionAndResume(t *testing.T) {
	e := virtualEngine(t)
	s1, err := e.Deploy(audioGraph(50), onPC, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Play(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	pos := s1.Position()
	if pos != 100 {
		t.Fatalf("position = %d after 2s at 50fps, want 100", pos)
	}
	// Resume from the interruption point: sequence numbers continue.
	s2, err := e.Deploy(audioGraph(50), onPC, pos, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Play(time.Second); err != nil {
		t.Fatal(err)
	}
	if s2.Position() != 150 {
		t.Errorf("resumed position = %d, want 150", s2.Position())
	}
}

func TestTranscoderRewritesFormat(t *testing.T) {
	g := audioGraph(40)
	tc := &graph.Node{
		ID:        "tc",
		Type:      "transcoder",
		In:        qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3))),
		Out:       qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatWAV))),
		Resources: resource.MB(1, 1),
	}
	if err := g.InsertOnEdge("server", "player", tc, -1, -1); err != nil {
		t.Fatal(err)
	}
	placement := map[graph.NodeID]device.ID{"server": "pc", "tc": "pc", "player": "pda"}
	s, err := virtualEngine(t).Deploy(g, placement, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Play(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := s.LastFormat("player", "tc"); got != qos.FormatWAV {
		t.Errorf("delivered format = %q, want WAV after transcoding", got)
	}
	// 120 ticks in 3s; the last frame is still crossing the WLAN.
	fps, frames := s.MeasuredRate("player", "tc")
	if frames != 119 {
		t.Fatalf("frames = %d, want 119", frames)
	}
	exactly(t, "transcoded rate", fps, 40)
}

// camBufferView builds cam(100fps) -> buf(rate) -> view on one device.
func camBufferView(rate float64) (*graph.Graph, map[graph.NodeID]device.ID) {
	g := graph.New()
	g.MustAddNode(&graph.Node{
		ID:        "cam",
		Type:      "camera",
		Out:       qos.V(qos.P(qos.DimFrameRate, qos.Scalar(100))),
		Resources: resource.MB(1, 1),
	})
	g.MustAddNode(&graph.Node{
		ID:        "buf",
		Type:      TypeBuffer,
		Out:       qos.V(qos.P(qos.DimFrameRate, qos.Scalar(rate))),
		Resources: resource.MB(1, 1),
	})
	g.MustAddNode(&graph.Node{ID: "view", Type: "viewer", Resources: resource.MB(1, 1)})
	g.MustAddEdge("cam", "buf", 8)
	g.MustAddEdge("buf", "view", 2)
	return g, map[graph.NodeID]device.ID{"cam": "pc", "buf": "pc", "view": "pc"}
}

func TestBufferPacesStreamDown(t *testing.T) {
	g, placement := camBufferView(25)
	s, err := virtualEngine(t).Deploy(g, placement, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Play(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	fps, frames := s.MeasuredRate("view", "buf")
	if frames != 100 {
		t.Fatalf("frames = %d, want 100 (4s at 25 fps)", frames)
	}
	exactly(t, "paced rate", fps, 25)
	// 400 frames in, 100 out, 32 still queued: the rest were dropped as
	// the oldest of a full backlog.
	if got := s.Dropped(); got != 400-100-bufferQueueCap {
		t.Errorf("dropped = %d, want %d", got, 400-100-bufferQueueCap)
	}
}

// fanInGraph is the video-conferencing shape: video (25fps) and audio
// (6fps) recorders feeding one client through a shared sink.
func fanInGraph() *graph.Graph {
	g := graph.New()
	g.MustAddNode(&graph.Node{
		ID: "vrec", Type: "video-recorder",
		Out:       qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatH261)), qos.P(qos.DimFrameRate, qos.Scalar(25))),
		Resources: resource.MB(1, 1),
	})
	g.MustAddNode(&graph.Node{
		ID: "arec", Type: "audio-recorder",
		Out:       qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatPCM)), qos.P(qos.DimFrameRate, qos.Scalar(6))),
		Resources: resource.MB(1, 1),
	})
	g.MustAddNode(&graph.Node{ID: "client", Type: "av-player", Resources: resource.MB(1, 1)})
	g.MustAddEdge("vrec", "client", 4)
	g.MustAddEdge("arec", "client", 0.2)
	return g
}

func TestFanInTwoStreams(t *testing.T) {
	placement := map[graph.NodeID]device.ID{"vrec": "pc", "arec": "pc", "client": "pc"}
	s, err := virtualEngine(t).Deploy(fanInGraph(), placement, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Play(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	vfps, vframes := s.MeasuredRate("client", "vrec")
	afps, aframes := s.MeasuredRate("client", "arec")
	if vframes != 125 || aframes != 30 {
		t.Fatalf("frames v=%d a=%d, want 125 and 30", vframes, aframes)
	}
	exactly(t, "video rate", vfps, 25)
	exactly(t, "audio rate", afps, 6)
	rates := s.SinkRates()
	if len(rates) != 2 {
		t.Errorf("SinkRates = %v", rates)
	}
}

// firstArrival reads when the first frame from the predecessor reached
// the sink, on the session's clock.
func firstArrival(s *Session, sink, from graph.NodeID) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats[statKey{sink: sink, from: from}].first
}

func TestCrossDeviceLatencyCharged(t *testing.T) {
	// Frames to the PDA cross the WLAN: each arrives one link latency after
	// its tick, and the session still sustains the rate (latency, not
	// bandwidth, is charged per frame).
	s, err := virtualEngine(t).Deploy(audioGraph(40), map[graph.NodeID]device.ID{"server": "pc", "player": "pda"}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Play(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	tick := time.Duration(period(40, testScale))
	wlan := time.Duration(netsim.WLAN.LatencyMs * float64(time.Millisecond) * testScale)
	if got := firstArrival(s, "player", "server"); got != tick+wlan {
		t.Errorf("first frame arrived at %v, want tick %v + latency %v", got, tick, wlan)
	}
	fps, frames := s.MeasuredRate("player", "server")
	if frames != 159 {
		t.Fatalf("frames = %d, want 159 (the 160th is in flight)", frames)
	}
	exactly(t, "cross-device rate", fps, 40)
}

func TestLatencyDelaysOnlyItsOwnEdge(t *testing.T) {
	// The video crosses the WLAN, the audio does not: audio frames arrive
	// on their ticks, not behind a consumer sleeping off the video's
	// latency.
	placement := map[graph.NodeID]device.ID{"vrec": "pda", "arec": "pc", "client": "pc"}
	s, err := virtualEngine(t).Deploy(fanInGraph(), placement, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Play(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	atick := time.Duration(period(6, testScale))
	if got := firstArrival(s, "client", "arec"); got != atick {
		t.Errorf("first audio frame arrived at %v, want its tick %v", got, atick)
	}
	if j, ok := s.MeasuredJitter("client", "arec"); !ok || j != 0 {
		t.Errorf("audio jitter = %v, %v; want 0", j, ok)
	}
	vfps, _ := s.MeasuredRate("client", "vrec")
	exactly(t, "video rate", vfps, 25)
}

func TestFanInBufferDropsByArrivalTime(t *testing.T) {
	// Two 100 fps cameras into one two-input buffer declared at 50 fps: it
	// forwards a frame when 0.9 of its 20ms period has passed since the
	// last one it forwarded. Both cameras tick together, "a" first, so
	// every other frame of "a" passes and every frame of "b" is early.
	g := graph.New()
	for _, id := range []graph.NodeID{"a", "b"} {
		g.MustAddNode(&graph.Node{ID: id, Type: "camera", Out: qos.V(qos.P(qos.DimFrameRate, qos.Scalar(100))), Resources: resource.MB(1, 1)})
	}
	g.MustAddNode(&graph.Node{ID: "mix", Type: TypeBuffer, Out: qos.V(qos.P(qos.DimFrameRate, qos.Scalar(50))), Resources: resource.MB(1, 1)})
	g.MustAddNode(&graph.Node{ID: "view", Type: "viewer", Resources: resource.MB(1, 1)})
	g.MustAddEdge("a", "mix", 1)
	g.MustAddEdge("b", "mix", 1)
	g.MustAddEdge("mix", "view", 1)
	placement := map[graph.NodeID]device.ID{"a": "pc", "b": "pc", "mix": "pc", "view": "pc"}
	s, err := virtualEngine(t).Deploy(g, placement, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Play(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	fps, frames := s.MeasuredRate("view", "mix")
	if frames != 100 {
		t.Fatalf("frames = %d, want 100 (2s at 50 fps)", frames)
	}
	exactly(t, "paced rate", fps, 50)
	if _, n := s.MeasuredOriginRate("view", "a"); n != 100 {
		t.Errorf("%d frames of a, want 100", n)
	}
	if _, n := s.MeasuredOriginRate("view", "b"); n != 0 {
		t.Errorf("%d frames of b, want none", n)
	}
	if s.Dropped() != 0 {
		t.Errorf("pacing drops are not overflow: Dropped = %d", s.Dropped())
	}
}

func TestMeasuredRateUnknownPair(t *testing.T) {
	e, _ := NewEngine(testScale, testNet())
	s, err := e.Deploy(audioGraph(40), onPC, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fps, frames := s.MeasuredRate("ghost", "server"); fps != 0 || frames != 0 {
		t.Errorf("unknown pair = %g, %d", fps, frames)
	}
	s.Stop() // stopping a never-started session is a no-op
}

func TestMeasuredJitter(t *testing.T) {
	s, err := virtualEngine(t).Deploy(audioGraph(40), onPC, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.MeasuredJitter("player", "server"); ok {
		t.Error("jitter before any arrivals should report !ok")
	}
	if err := s.Play(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	j, ok := s.MeasuredJitter("player", "server")
	if !ok {
		t.Fatal("no jitter measurement after playback")
	}
	// On the wall clock this is scheduler noise, positive and well under
	// the 25ms period. On the virtual clock an arrival is stamped with the
	// time its event was due, the source's ticks are exactly one period
	// apart and a same-device edge adds nothing, so every inter-arrival
	// time is the period and their deviation is exactly zero.
	if j != 0 {
		t.Errorf("jitter = %v, want 0 on virtual time", j)
	}
	if _, ok := s.MeasuredJitter("ghost", "server"); ok {
		t.Error("unknown pair should report !ok")
	}
}

func TestBufferSmoothsJitter(t *testing.T) {
	// A fast producer through a queue-and-ticker buffer: the viewer sees
	// the buffer's fixed cadence, with frames delivered in order.
	g, placement := camBufferView(20)
	s, err := virtualEngine(t).Deploy(g, placement, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Play(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	fps, frames := s.MeasuredRate("view", "buf")
	if frames != 80 {
		t.Fatalf("frames = %d, want 80 (4s at 20 fps)", frames)
	}
	exactly(t, "buffered rate", fps, 20)
	if j, ok := s.MeasuredJitter("view", "cam"); !ok || j != 0 {
		t.Errorf("jitter through buffer = %v, %v; want the fixed cadence's 0", j, ok)
	}
}

// fig5Session deploys a Fig. 5-size random graph over three devices.
func fig5Session(t testing.TB, e *Engine, seed int64) (*graph.Graph, map[graph.NodeID]device.ID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := workload.MustRandomGraph(rng, workload.Fig5Params())
	devs := []device.ID{"desktop", "laptop", "pda"}
	placement := make(map[graph.NodeID]device.ID, g.NodeCount())
	for _, id := range g.NodeIDs() {
		placement[id] = devs[rng.Intn(len(devs))]
	}
	e.net.MustSetLink("desktop", "laptop", netsim.Ethernet)
	e.net.MustSetLink("desktop", "pda", netsim.WLAN)
	e.net.MustSetLink("laptop", "pda", netsim.WLAN)
	return g, placement
}

// goroutinesSettleAt reports whether the process's goroutine count comes
// to want; a loop that Stop has waited for may still be unwinding.
func goroutinesSettleAt(want int) (int, bool) {
	deadline := time.Now().Add(2 * time.Second)
	for goruntime.NumGoroutine() != want && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
	n := goruntime.NumGoroutine()
	return n, n == want
}

func TestDeployStartStopCostOnFig5Graph(t *testing.T) {
	// The wall clock, slowed a thousandfold: this prices the timer the
	// loop really arms, and no frame is due before Stop.
	e, err := NewEngine(1000, testNet())
	if err != nil {
		t.Fatal(err)
	}
	g, placement := fig5Session(t, e, 1)
	t.Logf("graph: %d nodes, %d edges", g.NodeCount(), g.EdgeCount())
	cycle := func(g *graph.Graph, placement map[graph.NodeID]device.ID, between func()) {
		s, err := e.Deploy(g, placement, 0, 0)
		if err == nil {
			err = s.Start()
		}
		if err != nil {
			t.Fatal(err)
		}
		between()
		s.Stop()
	}

	// A running session is one goroutine, and Stop takes it away. (The
	// baseline is read once earlier tests' loops have finished unwinding.)
	base := goruntime.NumGoroutine()
	for time.Sleep(time.Millisecond); goruntime.NumGoroutine() != base; time.Sleep(time.Millisecond) {
		base = goruntime.NumGoroutine()
	}
	for i := 0; i < 100; i++ {
		cycle(g, placement, func() {
			if n, ok := goroutinesSettleAt(base + 1); !ok {
				t.Fatalf("cycle %d: %d goroutines while running, want %d", i, n, base+1)
			}
		})
	}
	if n, ok := goroutinesSettleAt(base); !ok {
		t.Errorf("%d goroutines after 100 cycles, want the %d before them", n, base)
	}

	// The goroutine runtime paid 3 185 allocations and ≈ 770 KB here (85
	// nodes, 591 edges), 30 allocations on the two-node graph.
	cost := func(g *graph.Graph, placement map[graph.NodeID]device.ID) (allocs float64, bytes uint64) {
		const runs = 50
		var a, b goruntime.MemStats
		goruntime.ReadMemStats(&a)
		allocs = testing.AllocsPerRun(runs, func() { cycle(g, placement, func() {}) })
		goruntime.ReadMemStats(&b)
		return allocs, (b.TotalAlloc - a.TotalAlloc) / (runs + 1)
	}
	if allocs, bytes := cost(g, placement); allocs > 300 || bytes > 128<<10 {
		t.Errorf("Fig. 5 deploy+start+stop: %.0f allocations, %d bytes; ceilings 300 and %d", allocs, bytes, 128<<10)
	} else {
		t.Logf("Fig. 5 deploy+start+stop: %.0f allocations, %d bytes", allocs, bytes)
	}
	if allocs, bytes := cost(audioGraph(40), onPC); allocs > 30 {
		t.Errorf("two-node deploy+start+stop: %.0f allocations (%d bytes), ceiling 30", allocs, bytes)
	} else {
		t.Logf("two-node deploy+start+stop: %.0f allocations, %d bytes", allocs, bytes)
	}
}

func TestStopMidBurst(t *testing.T) {
	// One source frame on a Fig. 5 graph fans out into a burst of
	// deliveries all due at once. Stop, called from this goroutine while
	// the loop is 5 000 events into the burst, returns; what is still
	// queued — no more than every edge full — never runs.
	e, err := NewEngine(1, testNet())
	if err != nil {
		t.Fatal(err)
	}
	g, _ := fig5Session(t, e, 1)
	placement := make(map[graph.NodeID]device.ID, g.NodeCount())
	for _, id := range g.NodeIDs() {
		placement[id] = "desktop"
	}
	vc := newVirtualClock()
	vc.holdAt = 5000
	e.newClock = func() clock { return vc }
	s, err := e.Deploy(g, placement, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	slept := make(chan struct{})
	go func() {
		defer close(slept)
		vc.sleep(time.Second / DefaultFrameRate) // the sources' first tick
	}()
	<-vc.held
	s.Stop()
	<-slept

	ran, queued := s.q.Processed(), s.q.Pending()
	if ran != vc.holdAt-1 {
		t.Errorf("%d events ran before the stop, want %d", ran, vc.holdAt-1)
	}
	if most := chanBuffer*g.EdgeCount() + g.NodeCount(); queued == 0 || queued > most {
		t.Errorf("%d events queued at the stop, want some and at most %d (every edge full)", queued, most)
	}
	vc.sleep(time.Minute)
	if s.q.Processed() != ran || s.q.Pending() != queued {
		t.Errorf("events ran after Stop: processed %d → %d, queued %d → %d", ran, s.q.Processed(), queued, s.q.Pending())
	}
}
