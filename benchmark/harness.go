package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/distributor"
	"ubiqos/internal/domain"
	"ubiqos/internal/eventbus"
	"ubiqos/internal/experiments"
	"ubiqos/internal/graph"
	"ubiqos/internal/resource"
	"ubiqos/internal/wire"
)

// sizes fixes how much one round does. Counts, not durations: the bounded
// rings inside the program (ledger, flight recorder, trace ring, plan
// cache) then fill and evict at the same request on every commit.
type sizes struct {
	// warmup requests (churn: fail/rejoin cycles) run during set-up.
	warmup int
	// requests is the measured count of a round (churn: cycles).
	requests int
	// traced is the count of the traced pass, a fraction of requests.
	traced int
	// ladder is how many requests the layer ladder samples; scaling is the
	// configure+stop cycles of the in-process scaling probe.
	ladder  int
	scaling int
}

// workloadDef is one workload: its space, its generator and its sizes.
type workloadDef struct {
	name string
	why  string
	// clients is the number of closed-loop wire connections; 0 means the
	// workload drives the domain in process (churn).
	clients int
	placer  string
	// refusalsExpected marks the workload whose offered load exceeds the
	// space (fill): a start refused for lack of capacity is then the
	// correct answer, counted in success_ratio but not as a failed
	// operation.
	refusalsExpected bool
	// exactDevices caps the device count of the problems the exact solver
	// is priced on in the ladder; 0 skips the exact solver. Branch and
	// bound at Table 1 size (10-20 components) took at most 3.8 ms over 200
	// problems on 2 devices, Table 1's two-way cut, but 27 ms at p90 and
	// 2 s at most on 3.
	exactDevices int
	// population is the number of standing sessions (churn).
	population int
	space      func() spaceSpec
	generate   func(seed int64, n int) []request
	full       sizes
	smoke      sizes
}

var workloads = []*workloadDef{
	{
		name:    "mix4",
		why:     "four small apps, few distinct problems: plan cache hot, solver idle; wire, core, observers and composer do the work",
		clients: 2, placer: "heuristic", exactDevices: 5,
		space:    mix4Space,
		generate: genMix4,
		full:     sizes{warmup: 2000, requests: 12000, traced: 4000, ladder: 240, scaling: 2000},
		smoke:    sizes{warmup: 8, requests: 40, traced: 24, ladder: 3, scaling: 10},
	},
	{
		name:    "bigraph",
		why:     "Fig. 5-size graphs from a pool 4x the plan cache: always misses; everything that scales with V+E does the work",
		clients: 2, placer: "heuristic",
		space:    bigraphSpace,
		generate: func(seed int64, n int) []request { return genBigraph(seed, n, bigraphPool) },
		full:     sizes{warmup: 8, requests: 300, traced: 100, ladder: 32, scaling: 60},
		smoke:    sizes{warmup: 2, requests: 4, traced: 4, ladder: 1, scaling: 2},
	},
	{
		name:    "fill",
		why:     "one client replays a serial trace at 1.2x capacity: loaded devices, infeasible placements, rollback; failures and cost repeat exactly",
		clients: 1, placer: "heuristic", refusalsExpected: true, exactDevices: 2,
		space:    fillSpace,
		generate: genFill,
		full:     sizes{warmup: 50, requests: 2000, traced: 1000, ladder: 60, scaling: 400},
		smoke:    sizes{warmup: 4, requests: 40, traced: 24, ladder: 1, scaling: 6},
	},
	{
		name:    "churn",
		why:     "devices fail in turn under 24 standing sessions, optimal placer: reconfigure, warm re-solve, release-then-reserve; no wire",
		clients: 0, placer: "optimal", exactDevices: 4, population: 24,
		space:    churnSpace,
		generate: genChurn,
		full:     sizes{warmup: 3, requests: 90, traced: 30, ladder: 60, scaling: 400},
		smoke:    sizes{warmup: 1, requests: 3, traced: 3, ladder: 2, scaling: 6},
	},
}

func workloadByName(name string) *workloadDef {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// ---- environment -----------------------------------------------------------

// env is one freshly built space, served and dialed, ready to measure.
type env struct {
	wl      *workloadDef
	dom     *domain.Domain
	srv     *wire.Server
	clients []*wire.Client
	sup     *core.Supervisor
	// script is the round's generated input: warm-up first, then the
	// measured requests.
	script []request
	// standing is the churn population's session IDs, oldest first;
	// requestOf maps each to its request and next is the script's next
	// unused request.
	standing  []string
	requestOf map[string]request
	next      int
	// churnCycle continues the worker rotation from warm-up into the
	// measured phase.
	churnCycle int

	baseline   map[device.ID]resource.Vector
	goroutines int
	// place is the workload's placement algorithm, nil for the default
	// heuristic; solves wraps it in the traced pass.
	place  core.PlaceFunc
	solves *solveMeter
}

// solveMeter is the timing PlaceFunc wrapper of the traced pass: it counts
// and times every call the configurator makes to its placement algorithm.
type solveMeter struct {
	inner core.PlaceFunc
	rec   *recorder
	calls atomic.Int64
}

func (m *solveMeter) place(p *distributor.Problem) (distributor.Assignment, float64, error) {
	t0 := time.Now()
	a, c, err := m.inner(p)
	m.rec.add("distributor.solve", t0, time.Now(), 0, "")
	m.calls.Add(1)
	return a, c, err
}

// setup builds the space from the public constructors, generates the
// round's inputs from the seed, serves the space as cmd/qosconfigd does (no
// HTTP listener, no stderr sink), dials the clients and runs the warm-up.
// n is the number of measured requests to generate; clients overrides the
// workload's connection count when positive (the ladder dials one).
func setup(wl *workloadDef, seed int64, warmup, n, clients int, rec *recorder) (*env, error) {
	e := &env{wl: wl, requestOf: make(map[string]request)}
	place, err := experiments.PlaceByName(wl.placer) // as qosconfigd's -place
	if err != nil {
		return nil, err
	}
	e.place = place
	if rec != nil {
		inner := place
		if inner == nil {
			inner = distributor.Heuristic
		}
		e.solves = &solveMeter{inner: inner, rec: rec}
		place = e.solves.place
	}
	if wl.population > 0 {
		e.script = wl.generate(seed, wl.population+(warmup+n)*churnTurnover)
	} else {
		e.script = wl.generate(seed, warmup+n)
	}
	dom, err := buildSpace(wl.space(), place)
	if err != nil {
		return nil, err
	}
	e.dom = dom
	e.baseline = make(map[device.ID]resource.Vector)
	for _, d := range dom.Devices.All() {
		e.baseline[d.ID] = d.Available()
	}
	if e.srv, err = wire.NewServer(dom); err != nil {
		e.close()
		return nil, err
	}
	if clients <= 0 {
		clients = wl.clients
	}
	if clients > 0 {
		addr, err := e.srv.Listen("127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		for i := 0; i < clients; i++ {
			c, err := wire.Dial(addr)
			if err != nil {
				e.close()
				return nil, err
			}
			e.clients = append(e.clients, c)
			// One round trip makes sure the server's connection goroutine
			// exists before the goroutine baseline is taken.
			if _, err := c.Call(wire.Request{Op: wire.OpPing}); err != nil {
				e.close()
				return nil, err
			}
		}
	}
	e.goroutines = runtime.NumGoroutine()
	return e, nil
}

// startSupervisor runs the recovery supervisor as the daemon does.
func (e *env) startSupervisor() error {
	sup, err := core.NewSupervisor(e.dom.Configurator, core.SupervisorOptions{Bus: e.dom.Bus})
	if err != nil {
		return err
	}
	e.sup = sup
	e.goroutines = runtime.NumGoroutine()
	return nil
}

func (e *env) close() {
	for _, c := range e.clients {
		c.Close()
	}
	if e.sup != nil {
		e.sup.Stop()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.dom != nil {
		e.dom.Close()
	}
}

// checkDrained verifies reservation conservation once a workload has
// stopped every session it started: device availability back at its
// pre-run value, no bandwidth reserved, no session registered, and the
// goroutine count back at its baseline.
func (e *env) checkDrained() []string {
	var bad []string
	if n := e.dom.Configurator.Sessions(); n != 0 {
		bad = append(bad, fmt.Sprintf("%d sessions still registered after drain", n))
	}
	for _, d := range e.dom.Devices.All() {
		got, want := d.Available(), e.baseline[d.ID]
		for i := range got {
			// Admit and release are float subtraction and addition; the
			// round trip may leave an ulp-sized residue.
			if math.Abs(got[i]-want[i]) > 1e-6*math.Max(1, math.Abs(want[i])) {
				bad = append(bad, fmt.Sprintf("device %s availability %v after drain, was %v", d.ID, got, want))
				break
			}
		}
	}
	for _, l := range e.dom.Links.Entries() {
		if math.Abs(l.ReservedMbps) > 1e-6 {
			bad = append(bad, fmt.Sprintf("link %s-%s still has %g Mbps reserved", l.A, l.B, l.ReservedMbps))
		}
	}
	// Component goroutines exit inside Stop; anything else (a finished
	// connection handler, a timer) gets a moment to unwind.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > e.goroutines && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > e.goroutines {
		bad = append(bad, fmt.Sprintf("%d goroutines after drain, baseline %d", n, e.goroutines))
	}
	return bad
}

// ---- process counters --------------------------------------------------------

// procCounters is read once before and once after a measured phase.
type procCounters struct {
	at        time.Time
	cpu       time.Duration
	gcCPU     float64
	mutexWait float64
	allocs    uint64
	allocB    uint64
	// machineCPU and stolenCPU are the machine's total and stolen
	// processor time, in the kernel's ticks.
	machineCPU float64
	stolenCPU  float64
}

var procSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/sync/mutex/wait/total:seconds"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readProc() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	s := append([]metrics.Sample(nil), procSamples...)
	metrics.Read(s)
	machine, stolen := machineTicks()
	return procCounters{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:      s[0].Value.Float64(),
		mutexWait:  s[1].Value.Float64(),
		allocs:     s[2].Value.Uint64(),
		allocB:     s[3].Value.Uint64(),
		machineCPU: machine,
		stolenCPU:  stolen,
	}
}

// machineTicks reads the first line of /proc/stat: the processor time of
// the whole machine and the part of it the hypervisor gave to other
// guests. Zeros where there is no such file.
func machineTicks() (total, stolen float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			stolen = v
		}
	}
	return total, stolen
}

// heapLiveMB forces a collection and reads what survived it.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ---- one measured pass ---------------------------------------------------------

// passResult is what one measured pass of a workload produced.
type passResult struct {
	setupS float64
	wallS  float64
	cpuS   float64
	// configure holds the latency of every successful (re)configuration in
	// ms: the client-observed start on the wire workloads, device failure
	// to session.recovered on churn. stop holds stop latencies.
	configure []float64
	stop      []float64

	attempted int
	succeeded int
	// refused starts found no feasible placement or lost the reservation
	// race (raced); failed operations are everything else that went wrong.
	refused int
	raced   int
	failed  int
	costSum float64

	heapLiveMB    float64
	gcCPUS        float64
	mutexWaitS    float64
	machineCPU    float64
	stolenCPU     float64
	allocs        float64
	allocBytes    float64
	goroutinesEnd int

	cacheHits, cacheMisses int64
	warmSolves, coldSolves int64
	recoverAttempts        int64
	solveCalls             int

	violations []string
}

func (r *passResult) violate(format string, args ...any) {
	if len(r.violations) < 5 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// merge pools another pass's samples and adds up its counts: the clients
// of one pass, or the passes of one kind.
func (r *passResult) merge(o *passResult) {
	r.configure = append(r.configure, o.configure...)
	r.stop = append(r.stop, o.stop...)
	r.violations = append(r.violations, o.violations...)
	r.attempted += o.attempted
	r.succeeded += o.succeeded
	r.refused += o.refused
	r.raced += o.raced
	r.failed += o.failed
	r.costSum += o.costSum
	r.wallS += o.wallS
	r.cpuS += o.cpuS
	r.gcCPUS += o.gcCPUS
	r.mutexWaitS += o.mutexWaitS
	r.machineCPU += o.machineCPU
	r.stolenCPU += o.stolenCPU
	r.allocs += o.allocs
	r.allocBytes += o.allocBytes
	r.cacheHits += o.cacheHits
	r.cacheMisses += o.cacheMisses
	r.warmSolves += o.warmSolves
	r.coldSolves += o.coldSolves
	r.recoverAttempts += o.recoverAttempts
	r.solveCalls += o.solveCalls
}

// runPass builds a fresh space, measures the workload's fixed request
// count on it, checks that everything drained, and tears the space down.
// A non-nil recorder makes it the traced pass.
func runPass(wl *workloadDef, seed int64, warmup, n int, rec *recorder) (*passResult, error) {
	t0 := time.Now()
	e, err := setup(wl, seed, warmup, n, 0, rec)
	if err != nil {
		return nil, err
	}
	defer e.close()
	// The warm-up's operations are checked like any other, but only its
	// violations are kept.
	warm, res := &passResult{}, &passResult{}
	if wl.population > 0 {
		if err := e.startSupervisor(); err != nil {
			return nil, err
		}
		if err := e.startPopulation(); err != nil {
			return nil, err
		}
		e.churn(warmup, warm, nil)
	} else {
		e.drive(e.script[:warmup], "warm", warm, nil)
	}
	res.violations = warm.violations
	res.setupS = time.Since(t0).Seconds()

	statsBefore := e.stats()
	var supBefore core.SupervisorStats
	if e.sup != nil {
		supBefore = e.sup.Stats()
	}
	if e.solves != nil {
		e.solves.calls.Store(0)
	}
	before := readProc()
	if wl.population > 0 {
		e.churn(n, res, rec)
	} else {
		e.drive(e.script[warmup:], "m", res, rec)
	}
	after := readProc()
	res.goroutinesEnd = runtime.NumGoroutine()
	res.heapLiveMB = heapLiveMB()
	statsAfter := e.stats()

	res.wallS = after.at.Sub(before.at).Seconds()
	res.cpuS = (after.cpu - before.cpu).Seconds()
	res.gcCPUS = after.gcCPU - before.gcCPU
	res.mutexWaitS = after.mutexWait - before.mutexWait
	res.machineCPU = after.machineCPU - before.machineCPU
	res.stolenCPU = after.stolenCPU - before.stolenCPU
	res.allocs = float64(after.allocs - before.allocs)
	res.allocBytes = float64(after.allocB - before.allocB)
	if statsBefore.PlanCache != nil && statsAfter.PlanCache != nil {
		res.cacheHits = statsAfter.PlanCache.Hits - statsBefore.PlanCache.Hits
		res.cacheMisses = statsAfter.PlanCache.Misses - statsBefore.PlanCache.Misses
	}
	res.warmSolves = statsAfter.WarmSolves - statsBefore.WarmSolves
	res.coldSolves = statsAfter.ColdSolves - statsBefore.ColdSolves
	if e.sup != nil {
		res.recoverAttempts = e.sup.Stats().Attempts - supBefore.Attempts
	}
	if e.solves != nil {
		res.solveCalls = int(e.solves.calls.Load())
	}

	if wl.population > 0 {
		e.stopPopulation(res)
	}
	for _, v := range e.checkDrained() {
		res.violate("%s", v)
	}
	return res, nil
}

// stats reads the stats op in process: the counters are the same ones a
// wire client would get, without a socket the churn workload does not
// otherwise have.
func (e *env) stats() wire.StatsInfo {
	resp := e.srv.Handle(wire.Request{Op: wire.OpStats})
	if resp.Stats == nil {
		return wire.StatsInfo{}
	}
	return *resp.Stats
}

// ---- closed-loop wire driver --------------------------------------------------

// drive replays the script over the wire: request i goes to client
// i mod clients, each client waits for every reply before its next
// request, and a session is stopped right after its start or, with a
// holding time, when that client issues its hold-th later request. Every
// session still running when the script ends is stopped before drive
// returns.
func (e *env) drive(script []request, tag string, res *passResult, rec *recorder) {
	parts := make([]passResult, len(e.clients))
	var wg sync.WaitGroup
	for ci, c := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.driveClient(c, ci, script, tag, &parts[ci], rec)
		}()
	}
	wg.Wait()
	for i := range parts {
		res.merge(&parts[i])
	}
}

func (e *env) driveClient(c *wire.Client, ci int, script []request, tag string, res *passResult, rec *recorder) {
	due := make(map[int][]string) // step -> sessions to stop before it
	stop := func(sid string) {
		t0 := time.Now()
		_, err := c.Call(wire.Request{Op: wire.OpStop, SessionID: sid})
		t1 := time.Now()
		rec.add("wire.call.stop", t0, t1, 0, sid)
		if err != nil {
			res.failed++
			res.violate("stop %s: %v", sid, err)
			return
		}
		res.stop = append(res.stop, ms(t1.Sub(t0)))
	}
	step := 0
	for i := ci; i < len(script); i += len(e.clients) {
		for _, sid := range due[step] {
			stop(sid)
		}
		delete(due, step)
		r := script[i]
		req := r.wire
		req.SessionID = fmt.Sprintf("%s-%s-%06d", e.wl.name, tag, i)
		t0 := time.Now()
		resp, err := c.Call(req)
		t1 := time.Now()
		rec.add("wire.call.start", t0, t1, 0, req.SessionID)
		res.attempted++
		switch {
		case err == nil:
			res.succeeded++
			res.configure = append(res.configure, ms(t1.Sub(t0)))
			if verr := checkReply(r, resp.Session); verr != nil {
				res.violate("start %s: %v", req.SessionID, verr)
			} else {
				res.costSum += resp.Session.Cost
			}
			if r.hold == 0 {
				stop(req.SessionID)
			} else {
				due[step+r.hold] = append(due[step+r.hold], req.SessionID)
			}
		case isRace(err):
			res.raced++
			res.refused++
		case isRefusal(err):
			res.refused++
		default:
			res.failed++
			res.violate("start %s: %v", req.SessionID, err)
		}
		step++
	}
	// Drain in due order so the release sequence repeats too.
	for len(due) > 0 {
		for _, sid := range due[step] {
			stop(sid)
		}
		delete(due, step)
		step++
	}
}

// isRefusal reports a start the distribution tier found no feasible
// placement for; isRace one whose placement was solved on availability
// that another client's reservation had consumed by the time it reserved.
func isRefusal(err error) bool {
	return strings.Contains(err.Error(), "core: distribution:")
}

func isRace(err error) bool {
	s := err.Error()
	return strings.Contains(s, "core: admission:") || strings.Contains(s, "core: bandwidth reservation:")
}

// checkReply verifies a successful start reply: every expected node is
// placed on a device and every pin is honoured.
func checkReply(r request, info *wire.SessionInfo) error {
	if info == nil {
		return fmt.Errorf("reply carries no session")
	}
	return checkPlacement(r, func(id graph.NodeID) (device.ID, bool) {
		dev, ok := info.Placement[string(id)]
		return device.ID(dev), ok
	}, info.Cost)
}

func checkPlacement(r request, placed func(graph.NodeID) (device.ID, bool), cost float64) error {
	for id, pin := range r.expect {
		dev, ok := placed(id)
		if !ok || dev == "" {
			return fmt.Errorf("node %s not placed", id)
		}
		if pin != "" && dev != pin {
			return fmt.Errorf("node %s pinned to %s but placed on %s", id, pin, dev)
		}
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) || cost <= 0 {
		return fmt.Errorf("cost %v", cost)
	}
	return nil
}

// ---- churn driver ------------------------------------------------------------

// startPopulation starts the standing sessions in process, in script
// order.
func (e *env) startPopulation() error {
	for len(e.standing) < e.wl.population {
		if err := e.startNext(); err != nil {
			return err
		}
	}
	return nil
}

// startNext starts the script's next request as a standing session.
func (e *env) startNext() error {
	sid := fmt.Sprintf("churn-%05d", e.next)
	if _, err := e.dom.StartApp(e.script[e.next].coreRequest(sid)); err != nil {
		return fmt.Errorf("standing session %s: %w", sid, err)
	}
	e.requestOf[sid] = e.script[e.next]
	e.standing = append(e.standing, sid)
	e.next++
	return nil
}

// churnTurnover is how many of the oldest standing sessions end, and how
// many new ones start, after every fail/rejoin cycle. With a fixed
// population the 24 graphs a seed happens to draw decide its numbers:
// exact solves of graphs this size take 0.04 to 5 ms, and the summed cold
// solve time of 24 of them ranged from 9 to 19 ms over ten seeds. Turning
// the population over makes a round an average over a few hundred graphs,
// and sessions do come and go while devices fail.
const churnTurnover = 2

// turnOver replaces the oldest standing sessions with the script's next
// requests.
func (e *env) turnOver(res *passResult) {
	for i := 0; i < churnTurnover; i++ {
		oldest := e.standing[0]
		e.standing = e.standing[1:]
		delete(e.requestOf, oldest)
		if err := e.dom.StopApp(oldest); err != nil {
			res.failed++
			res.violate("stop %s: %v", oldest, err)
		}
		if err := e.startNext(); err != nil {
			res.failed++
			res.violate("%v", err)
		}
	}
}

func (e *env) stopPopulation(res *passResult) {
	for _, sid := range e.standing {
		if e.dom.Configurator.Session(sid) == nil {
			continue // lost; already counted
		}
		t0 := time.Now()
		if err := e.dom.StopApp(sid); err != nil {
			res.failed++
			res.violate("stop %s: %v", sid, err)
			continue
		}
		res.stop = append(res.stop, ms(time.Since(t0)))
	}
}

// churnTimeout bounds one cycle's wait for its recoveries; the supervisor
// gives a session up after at most a few seconds of backed-off retries.
const churnTimeout = 30 * time.Second

// churn runs fail/rejoin cycles: fail the next worker, time every broken
// session from the FailDevice call to its session.recovered (or
// user.notification) event on the public bus, wait for the supervisor to
// go idle, rejoin the worker.
func (e *env) churn(cycles int, res *passResult, rec *recorder) {
	sub, err := e.dom.Bus.SubscribeLossless(eventbus.TopicSessionRecovered, eventbus.TopicUserNotification)
	if err != nil {
		res.violate("subscribe: %v", err)
		return
	}
	defer sub.Cancel()
	for c := 0; c < cycles; c++ {
		worker := churnWorkers[e.churnCycle%len(churnWorkers)]
		e.churnCycle++
		broken := e.dom.SessionsOn(worker)
		if len(broken) == 0 {
			continue
		}
		pending := make(map[string]bool, len(broken))
		for _, sid := range broken {
			pending[sid] = true
		}
		res.attempted += len(broken)
		t0 := time.Now()
		if err := e.dom.FailDevice(worker); err != nil {
			res.violate("fail %s: %v", worker, err)
			return
		}
		cycleSpan := rec.open("domain.faildevice", 0, string(worker))
		timeout := time.NewTimer(churnTimeout)
		var recovered []string
		for len(pending) > 0 {
			select {
			case ev, ok := <-sub.C():
				if !ok {
					res.violate("event bus closed mid-cycle")
					return
				}
				switch p := ev.Payload.(type) {
				case string:
					if ev.Topic == eventbus.TopicSessionRecovered && pending[p] {
						delete(pending, p)
						recovered = append(recovered, p)
						res.configure = append(res.configure, ms(ev.Time.Sub(t0)))
						rec.add("core.recover", t0, ev.Time, cycleSpan, p)
					}
				case core.SessionLostNotice:
					if pending[p.SessionID] {
						delete(pending, p.SessionID)
						res.failed++
						res.violate("session %s lost: %s", p.SessionID, p.Reason)
					}
				}
			case <-timeout.C:
				res.failed += len(pending)
				res.violate("%d sessions neither recovered nor lost %v after %s failed", len(pending), churnTimeout, worker)
				pending = nil
			}
		}
		timeout.Stop()
		if !e.sup.AwaitIdle(churnTimeout) {
			res.violate("supervisor not idle %v after %s failed", churnTimeout, worker)
		}
		rec.close(cycleSpan, t0, time.Now())
		for _, sid := range recovered {
			active := e.dom.Configurator.Session(sid)
			if active == nil {
				res.failed++
				res.violate("session %s gone after recovery", sid)
				continue
			}
			verr := checkPlacement(e.requestOf[sid], func(id graph.NodeID) (device.ID, bool) {
				dev, ok := active.Placement[id]
				if dev == worker {
					return "", false
				}
				return dev, ok
			}, active.Cost)
			if verr != nil {
				res.violate("session %s after %s failed: %v", sid, worker, verr)
				continue
			}
			res.succeeded++
			res.costSum += active.Cost
		}
		if err := e.dom.RejoinDevice(worker); err != nil {
			res.violate("rejoin %s: %v", worker, err)
			return
		}
		e.turnOver(res)
	}
}
