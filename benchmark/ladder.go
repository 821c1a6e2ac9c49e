package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/distributor"
	"ubiqos/internal/eventbus"
	"ubiqos/internal/graph"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
	ubiruntime "ubiqos/internal/runtime"
	"ubiqos/internal/wire"
)

// costTolerance is the slack within which two cost aggregations count as
// the same value.
const costTolerance = 1e-9

// ladder prices the layers one request at a time, on one goroutine, on a
// space of its own. The entry points that nest inside each other in the
// program — Client.Call, Server.Handle, Domain.StartApp, the domain's
// Configure, a Configure with every observer nil — cannot be intercepted
// from outside, so each level is a separate execution of the same request
// (each session stopped before the next starts) and a level's self time is
// its duration minus the next level's. Below them the stages run in
// configureOnce's order through their public functions.
type ladder struct {
	*env
	hot     bool
	rec     *recorder
	bare    *core.Configurator
	engine  *ubiruntime.Engine
	place   core.PlaceFunc
	samples map[string][]float64
	bad     []string
}

func (l *ladder) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

func (l *ladder) violate(format string, args ...any) {
	if len(l.bad) < 5 {
		l.bad = append(l.bad, fmt.Sprintf(format, args...))
	}
}

// timedDiscovery wraps the composer's view of the discovery service: one
// child span and one count per lookup.
type timedDiscovery struct {
	inner   composer.Discovery
	rec     *recorder
	parent  int
	request string
	// spans are the IDs of the lookups' spans.
	spans []int
}

func (d *timedDiscovery) Best(spec registry.Spec) *registry.Instance {
	t0 := time.Now()
	in := d.inner.Best(spec)
	t1 := time.Now()
	d.spans = append(d.spans, d.rec.add("registry.best", t0, t1, d.parent, d.request))
	return in
}

// runLadder walks n requests of the workload's stream. hot tells whether
// the workload finds its plans in the cache: a hot ladder primes the cache
// with the request before timing it, a cold one flushes the cache before
// every timed level, so each level pays what the workload pays.
func runLadder(wl *workloadDef, seed int64, sz sizes, hot bool, rec *recorder) (*ladder, error) {
	e, err := setup(wl, seed, 0, sz.ladder, 1, nil)
	if err != nil {
		return nil, err
	}
	defer e.close()
	l := &ladder{env: e, hot: hot, rec: rec, samples: make(map[string][]float64)}
	l.place = e.place
	if l.place == nil {
		l.place = distributor.Heuristic
	}
	if l.engine, err = ubiruntime.NewEngine(1, e.dom.Net); err != nil {
		return nil, err
	}
	l.bare, err = core.New(core.Config{
		Composer: e.dom.Composer, Devices: e.dom.Devices, Links: e.dom.Links, Net: e.dom.Net,
		Repo: e.dom.Repo, Checkpoints: e.dom.Checkpoints, Engine: l.engine, Weights: benchWeights,
		Place: e.place, PlanCache: e.dom.PlanCache, Profiler: e.dom.Profiler,
	})
	if err != nil {
		return nil, err
	}
	// setup generated sz.ladder cycles' worth of requests for churn, more
	// than the ladder samples.
	n := min(sz.ladder, len(e.script))
	for j := 0; j < n; j++ {
		// A fixed stride samples the whole stream, not its first requests.
		r := e.script[j*len(e.script)/n]
		sid := fmt.Sprintf("ladder-%04d", j)
		t0 := time.Now()
		root := rec.open("ladder.request", 0, sid)
		l.levels(r, sid, root)
		l.stages(r, sid, root)
		rec.close(root, t0, time.Now())
	}
	l.scaling(sz.scaling)
	for _, v := range e.checkDrained() {
		l.violate("ladder: %s", v)
	}
	return l, nil
}

// prepare puts the plan cache in the state the workload finds it in.
func (l *ladder) prepare() {
	if !l.hot {
		l.dom.PlanCache.Flush()
	}
}

// timed runs f and records it as a child of parent.
func (l *ladder) timed(name string, parent int, request string, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	l.rec.add(name, t0, t1, parent, request)
	return t1.Sub(t0)
}

// fastest runs f ladderReps times and returns the shortest run.
func (l *ladder) fastest(name string, parent int, request string, f func()) time.Duration {
	best := l.timed(name, parent, request, f)
	for rep := 1; rep < ladderReps; rep++ {
		best = min(best, l.timed(name, parent, request, f))
	}
	return best
}

// ladderReps is how often each level runs per request; the fastest
// execution is kept. Adjacent levels differ by tens of microseconds, less
// than a collection or a neighbour's burst adds to one execution, and the
// minimum is what the level costs when nothing interferes.
const ladderReps = 5

// levels runs the request through each nested entry point, ladderReps
// times each, interleaved.
func (l *ladder) levels(r request, sid string, root int) {
	var err error
	if l.hot {
		if _, err = l.dom.StartApp(r.coreRequest(sid + "-prime")); err != nil {
			l.violate("ladder prime %s: %v", sid, err)
			return
		}
		if err = l.dom.StopApp(sid + "-prime"); err != nil {
			l.violate("ladder stop %s-prime: %v", sid, err)
			return
		}
	}
	ping := l.timed("wire.ping", root, sid, func() { _, err = l.clients[0].Call(wire.Request{Op: wire.OpPing}) })
	if err != nil {
		l.violate("ladder ping: %v", err)
		return
	}
	l.add("wire.ping_rtt_us", us(ping))

	var resp wire.Response
	wireReq := func(id string) wire.Request {
		w := r.wire
		w.SessionID = id
		return w
	}
	handled := func() error {
		if !resp.OK {
			return fmt.Errorf("%s", resp.Error)
		}
		return nil
	}
	levels := []struct {
		name  string
		start func(id string) error
		stop  func(id string) error
	}{
		{"wire.call", func(id string) error { resp, err = l.clients[0].Call(wireReq(id)); return err }, l.dom.StopApp},
		{"wire.handle", func(id string) error { resp = l.srv.Handle(wireReq(id)); return handled() }, l.dom.StopApp},
		{"domain.startapp", func(id string) error { _, err = l.dom.StartApp(r.coreRequest(id)); return err }, l.dom.StopApp},
		{"core.configure_full", func(id string) error { _, err = l.dom.Configurator.Configure(r.coreRequest(id)); return err }, l.dom.Configurator.Stop},
		{"core.configure_bare", func(id string) error { _, err = l.bare.Configure(r.coreRequest(id)); return err }, l.bare.Stop},
	}
	best := make([]time.Duration, len(levels))
	for rep := 0; rep < ladderReps; rep++ {
		for i, lv := range levels {
			id := fmt.Sprintf("%s-%s-%d", sid, lv.name, rep)
			var lerr error
			l.prepare()
			d := l.timed(lv.name, root, sid, func() { lerr = lv.start(id) })
			if lerr != nil {
				l.violate("ladder %s: %v", id, lerr)
				return
			}
			if i < 2 {
				if verr := checkReply(r, resp.Session); verr != nil {
					l.violate("ladder %s: %v", id, verr)
				}
			}
			if serr := lv.stop(id); serr != nil {
				l.violate("ladder stop %s: %v", id, serr)
				return
			}
			if rep == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	l.codec(wireReq(sid), resp, root, sid)
	for i, lv := range levels {
		l.add(lv.name+"_us", us(best[i]))
	}
	l.add("wire.self_us", us(best[0]-best[1]))
	l.add("wire.dispatch_self_us", us(best[1]-best[2]))
	l.add("domain.self_us", us(best[2]-best[3]))

	// What the domain does around a live session: publish its start,
	// reconfigure it, stop it.
	id := sid + "-live"
	if _, err = l.dom.Configurator.Configure(r.coreRequest(id)); err != nil {
		l.violate("ladder %s: %v", id, err)
		return
	}
	l.add("eventbus.publish_us", us(l.timed("eventbus.publish", root, sid, func() {
		l.dom.Bus.Publish(eventbus.TopicSessionStarted, id)
	})))
	l.prepare()
	rd := l.timed("core.reconfigure", root, sid, func() { _, err = l.dom.Configurator.Reconfigure(r.coreRequest(id)) })
	if err != nil {
		l.violate("ladder reconfigure %s: %v", id, err)
		return
	}
	l.add("core.reconfigure_us", us(rd))
	sd := l.timed("core.stop", root, sid, func() { err = l.dom.Configurator.Stop(id) })
	if err != nil {
		l.violate("ladder stop %s: %v", id, err)
		return
	}
	l.add("core.stop_us", us(sd))
	l.dom.Bus.Publish(eventbus.TopicSessionStopped, id)

	// Allocations of one configure, observers on and off.
	count := func(c *core.Configurator, id string) (allocs, bytes float64, ok bool) {
		l.prepare()
		allocs, bytes = allocsOf(func() { _, err = c.Configure(r.coreRequest(id)) })
		if err == nil {
			err = c.Stop(id)
		}
		if err != nil {
			l.violate("ladder %s: %v", id, err)
		}
		return allocs, bytes, err == nil
	}
	fullAllocs, _, ok := count(l.dom.Configurator, sid+"-full-allocs")
	if !ok {
		return
	}
	bareAllocs, bareBytes, ok := count(l.bare, sid+"-bare-allocs")
	if !ok {
		return
	}
	l.add("core.allocs_per_configure", bareAllocs)
	l.add("core.bytes_per_configure", bareBytes)
	l.add("observers.allocs_per_configure", fullAllocs-bareAllocs)
}

// allocsOf counts the heap objects and bytes f allocates. Other goroutines
// are idle while the ladder runs, apart from the once-a-second capacity
// sampler; the medians do not see it.
func allocsOf(f func()) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// codec prices encoding/json on the sampled start: both directions of both
// messages, as the client and the server each do one.
func (l *ladder) codec(req wire.Request, resp wire.Response, root int, sid string) {
	var reqB, respB []byte
	var err error
	d := l.timed("wire.codec", root, sid, func() {
		if reqB, err = json.Marshal(req); err != nil {
			return
		}
		var rq wire.Request
		if err = json.Unmarshal(reqB, &rq); err != nil {
			return
		}
		if respB, err = json.Marshal(resp); err != nil {
			return
		}
		var rs wire.Response
		err = json.Unmarshal(respB, &rs)
	})
	if err != nil {
		l.violate("ladder codec %s: %v", sid, err)
		return
	}
	l.add("wire.codec_us", us(d))
	l.add("wire.start_req_bytes", float64(len(reqB)+1)) // plus the newline
	l.add("wire.start_resp_bytes", float64(len(respB)+1))
}

// resolvePins is what core.resolveClientPins does to a request's graph
// before composing it; the copy it makes is part of core's self time.
func resolvePins(app *composer.AbstractGraph, client device.ID) *composer.AbstractGraph {
	out := composer.NewAbstractGraph()
	for _, n := range app.Nodes() {
		cp := *n
		if cp.Pin == core.ClientRole {
			cp.Pin = string(client)
		}
		out.MustAddNode(&cp)
	}
	for _, e := range app.Edges() {
		out.MustAddEdge(e.From, e.To, e.ThroughputMbps)
	}
	return out
}

// stageNames are the stages of one configure and its stop, in
// configureOnce's order.
var stageNames = []string{
	"composer.compose", "composer.self", "registry.best", "distributor.signature", "distributor.cache_lookup", "distributor.solve",
	"distributor.cache_store", "device.reserve", "repository.ensure", "runtime.deploy_start",
	"runtime.stop", "device.release",
}

// walk is one pass of a request through the stages.
type walk struct {
	took map[string]time.Duration
	// hit tells whether the plan cache held the problem; a hit skips the
	// solve and the store in the program.
	hit          bool
	lookups      int
	corrections  int
	explored     int64
	reservations int
	goroutines   int
	graph        *graph.Graph
	devices      []distributor.DeviceInfo
}

func (l *ladder) problem(g *graph.Graph, devs []distributor.DeviceInfo) *distributor.Problem {
	return &distributor.Problem{Graph: g, Devices: devs, Bandwidth: l.dom.Links.Available,
		Weights: benchWeights, Stats: &distributor.SearchStats{}}
}

// stages runs the request through the pipeline's stages one public
// function at a time, ladderReps times, keeping each stage's fastest
// execution as the levels do, then prices the allocations and the solvers
// on the composed problem.
func (l *ladder) stages(r request, sid string, root int) {
	var last *walk
	best := make(map[string]time.Duration)
	for rep := 0; rep < ladderReps; rep++ {
		w := l.walk(r, sid, root)
		if w == nil {
			return
		}
		for name, d := range w.took {
			if old, ok := best[name]; !ok || d < old {
				best[name] = d
			}
		}
		last = w
	}
	var sum time.Duration
	for _, name := range stageNames {
		d, ok := best[name]
		if !ok {
			continue // cache_store on a hit
		}
		if name != "distributor.cache_store" {
			l.add(name+"_us", us(d))
		}
		switch name {
		case "composer.self", "registry.best", "distributor.signature", "runtime.stop", "device.release":
			// Parts of compose and of the lookup; stop and release belong
			// to the session's end, not to its configure.
		case "distributor.solve":
			if !last.hit {
				sum += d
			}
		default:
			sum += d
		}
	}
	l.add("core.stage_sum_us", us(sum))
	l.add("registry.lookups_per_compose", float64(last.lookups))
	l.add("composer.corrections_per_compose", float64(last.corrections))
	l.add("distributor.explored_per_solve", float64(last.explored))
	l.add("device.reservations_per_configure", float64(last.reservations))
	l.add("runtime.goroutines_per_session", float64(last.goroutines))

	var err error
	creq := l.composeRequest(r)
	allocs, _ := allocsOf(func() { _, _, err = composer.New(l.dom.Registry).Compose(creq) })
	if err == nil {
		l.add("composer.allocs_per_compose", allocs)
	}
	allocs, _ = allocsOf(func() { _, _, err = l.place(l.problem(last.graph, last.devices)) })
	if err == nil {
		l.add("distributor.allocs_per_solve", allocs)
	}
	l.solvers(sid, root, last.graph, last.devices)
}

func (l *ladder) composeRequest(r request) composer.Request {
	client := device.ID(r.wire.ClientDevice)
	var clientAttrs map[string]string
	if d := l.dom.Devices.Get(client); d != nil {
		clientAttrs = d.Attrs
	}
	return composer.Request{App: resolvePins(r.wire.App, client), UserQoS: r.wire.UserQoS,
		ClientAttrs: clientAttrs, ClientDevice: string(client)}
}

// walk composes, solves, reserves, deploys, stops and releases the request
// through the public functions, checking every solver output on the way.
// It returns nil after recording a violation.
func (l *ladder) walk(r request, sid string, root int) *walk {
	w := &walk{took: make(map[string]time.Duration)}
	var err error
	stage := func(name string, f func()) {
		w.took[name] = l.timed(name, root, sid, f)
	}

	// composer.compose, with registry.best children.
	creq := l.composeRequest(r)
	disc := &timedDiscovery{inner: l.dom.Registry, rec: l.rec, request: sid}
	comp := composer.New(disc)
	var rep *composer.Report
	disc.parent = l.rec.open("composer.compose", root, sid)
	t0 := time.Now()
	w.graph, rep, err = comp.Compose(creq)
	t1 := time.Now()
	l.rec.close(disc.parent, t0, t1)
	if err != nil {
		l.violate("ladder compose %s: %v", sid, err)
		return nil
	}
	w.took["composer.compose"] = t1.Sub(t0)
	// The composer's self time is its span minus what its lookups cover.
	lookups := make([]span, len(disc.spans))
	var looked time.Duration
	for i, id := range disc.spans {
		lookups[i] = l.rec.span(id)
		looked += lookups[i].duration()
	}
	w.took["composer.self"] = selfTime(l.rec.span(disc.parent), lookups)
	if len(lookups) > 0 {
		w.took["registry.best"] = looked / time.Duration(len(lookups))
	}
	w.lookups = len(lookups)
	w.corrections = len(rep.Adjustments) + len(rep.Transcoders) + len(rep.Buffers)

	g := w.graph
	for _, n := range g.Nodes() {
		if n.Instance != "" {
			n.Resources = l.dom.Profiler.EstimateOr(n.Instance, n.Resources)
		}
	}
	up := l.dom.Devices.UpDevices()
	w.devices = make([]distributor.DeviceInfo, len(up))
	for i, d := range up {
		w.devices[i] = distributor.DeviceInfo{ID: d.ID, Avail: d.Available()}
	}
	prob := l.problem(g, w.devices)

	// distributor.signature, cache_lookup, solve, cache_store.
	l.prepare()
	stage("distributor.signature", func() { _, err = distributor.Signature(prob) })
	if err != nil {
		l.violate("ladder signature %s: %v", sid, err)
		return nil
	}
	var cached, asg distributor.Assignment
	var cachedCost, cost float64
	stage("distributor.cache_lookup", func() { cached, cachedCost, w.hit = l.dom.PlanCache.Lookup(prob) })
	stage("distributor.solve", func() { asg, cost, err = l.place(prob) })
	if err != nil {
		l.violate("ladder solve %s: %v", sid, err)
		return nil
	}
	w.explored = prob.Stats.Explored
	l.checkSolution("placer", sid, prob, asg, cost)
	if w.hit {
		if math.Abs(cachedCost-cost) > costTolerance || prob.FitInto(cached) != nil {
			l.violate("ladder %s: cached plan (cost %v) differs from a fresh solve (cost %v)", sid, cachedCost, cost)
		}
	} else {
		stage("distributor.cache_store", func() { l.dom.PlanCache.Store(prob, asg, cost) })
	}

	// device.reserve.
	var loads []resource.Vector
	var demands map[[2]device.ID]float64
	stage("device.reserve", func() {
		loads = prob.DeviceLoads(asg)
		for i, d := range up {
			if loads[i].IsZero() {
				continue
			}
			if err = d.Admit(loads[i]); err != nil {
				return
			}
			w.reservations++
		}
		demands = prob.LinkDemands(asg)
		for pair, mbps := range demands {
			if err = l.dom.Links.Reserve(pair[0], pair[1], mbps); err != nil {
				return
			}
			w.reservations++
		}
	})
	if err != nil {
		// Single goroutine on an empty space: a solved placement always
		// reserves. Nothing is rolled back; the drain check will show it.
		l.violate("ladder reserve %s: %v", sid, err)
		return nil
	}
	release := func() {
		stage("device.release", func() {
			for i, d := range up {
				if !loads[i].IsZero() {
					d.Release(loads[i])
				}
			}
			for pair, mbps := range demands {
				l.dom.Links.ReleaseBandwidth(pair[0], pair[1], mbps)
			}
		})
	}

	// repository.ensure.
	placement := make(map[graph.NodeID]device.ID, len(asg))
	for id, di := range asg {
		placement[id] = w.devices[di].ID
	}
	stage("repository.ensure", func() {
		for _, n := range g.Nodes() {
			if n.Instance == "" {
				continue
			}
			if _, err = l.dom.Repo.Ensure(string(placement[n.ID]), n.Instance); err != nil {
				return
			}
		}
	})
	if err != nil {
		l.violate("ladder ensure %s: %v", sid, err)
		release()
		return nil
	}

	// runtime.deploy_start, runtime.stop.
	before := runtime.NumGoroutine()
	var sess *ubiruntime.Session
	stage("runtime.deploy_start", func() {
		if sess, err = l.engine.Deploy(g, placement, 0, r.wire.MaxFrames); err == nil {
			err = sess.Start()
		}
	})
	if err != nil {
		l.violate("ladder deploy %s: %v", sid, err)
		release()
		return nil
	}
	w.goroutines = runtime.NumGoroutine() - before
	stage("runtime.stop", sess.Stop)
	release()
	return w
}

// checkSolution verifies a solver's output: it fits (Def. 3.4) and its
// reported cost is the cost aggregation of its assignment (Def. 3.5).
func (l *ladder) checkSolution(solver, sid string, p *distributor.Problem, a distributor.Assignment, cost float64) {
	if err := p.FitInto(a); err != nil {
		l.violate("ladder %s: %s output does not fit: %v", sid, solver, err)
	}
	if ca := p.CostAggregation(a); math.Abs(ca-cost) > costTolerance {
		l.violate("ladder %s: %s reports cost %v, CostAggregation is %v", sid, solver, cost, ca)
	}
}

// solvers prices each placement algorithm on the composed problem. The
// exact solvers run only on workloads that set exactDevices, and on at
// most that many devices.
func (l *ladder) solvers(sid string, root int, g *graph.Graph, devs []distributor.DeviceInfo) {
	newProblem := func(devs []distributor.DeviceInfo) *distributor.Problem { return l.problem(g, devs) }
	var err error
	var hCost float64
	var hAsg distributor.Assignment
	p := newProblem(devs)
	d := l.fastest("distributor.heuristic", root, sid, func() { hAsg, hCost, err = distributor.Heuristic(p) })
	if err == nil {
		l.add("distributor.heuristic_us", us(d))
		l.checkSolution("heuristic", sid, p, hAsg, hCost)
	}
	if l.wl.exactDevices == 0 {
		return
	}
	if len(devs) > l.wl.exactDevices {
		devs = reduceDevices(p, l.wl.exactDevices)
		p = newProblem(devs)
		if hAsg, hCost, err = distributor.Heuristic(p); err == nil {
			l.checkSolution("heuristic", sid, p, hAsg, hCost)
		}
	}
	hErr := err
	var oCost, wCost float64
	var oAsg, wAsg distributor.Assignment
	p = newProblem(devs)
	d = l.fastest("distributor.optimal", root, sid, func() { oAsg, oCost, err = distributor.Optimal(p) })
	if err != nil {
		if hErr == nil {
			l.violate("ladder %s: heuristic placed what optimal calls infeasible: %v", sid, err)
		}
		return
	}
	l.add("distributor.optimal_us", us(d))
	l.checkSolution("optimal", sid, p, oAsg, oCost)
	if hErr == nil {
		if oCost > hCost+costTolerance {
			l.violate("ladder %s: optimal cost %v above heuristic cost %v", sid, oCost, hCost)
		}
		l.add("distributor.cost_ratio_vs_optimal", hCost/oCost)
	}
	inc := &distributor.Incumbent{Placement: make(map[graph.NodeID]device.ID, len(oAsg)), Cost: oCost}
	for id, di := range oAsg {
		inc.Placement[id] = devs[di].ID
	}
	p = newProblem(devs)
	d = l.fastest("distributor.warm", root, sid, func() { wAsg, wCost, err = distributor.OptimalWarm(p, inc) })
	if err != nil {
		l.violate("ladder %s: warm solve failed on a problem optimal solved: %v", sid, err)
		return
	}
	l.add("distributor.warm_us", us(d))
	l.checkSolution("optimal-warm", sid, p, wAsg, wCost)
	if math.Abs(wCost-oCost) > costTolerance {
		l.violate("ladder %s: warm cost %v differs from optimal cost %v", sid, wCost, oCost)
	}
}

// reduceDevices keeps the devices the graph is pinned to and fills up to
// limit with the devices of largest weighted availability.
func reduceDevices(p *distributor.Problem, limit int) []distributor.DeviceInfo {
	pinned := make(map[device.ID]bool)
	for _, n := range p.Graph.Nodes() {
		if n.Pin != "" {
			pinned[device.ID(n.Pin)] = true
		}
	}
	devs := append([]distributor.DeviceInfo(nil), p.Devices...)
	sort.SliceStable(devs, func(i, j int) bool {
		if pinned[devs[i].ID] != pinned[devs[j].ID] {
			return pinned[devs[i].ID]
		}
		return devs[i].Avail.WeightedSum(p.Weights.EndSystem()) > devs[j].Avail.WeightedSum(p.Weights.EndSystem())
	})
	return devs[:min(limit, len(devs))]
}

// scaling compares in-process Configure+Stop throughput on two goroutines
// with one. With GOMAXPROCS below 2 the two goroutines share a processor
// and the ratio says nothing about the locks; the probe then refuses
// instead of reporting about 1.0.
func (l *ladder) scaling(cycles int) {
	if runtime.GOMAXPROCS(0) < 2 {
		return
	}
	// Both runs must do the same work a cycle. A workload that finds its
	// plans in the cache gets them stored first; one that does not has
	// the cache flushed before every configure.
	if l.hot {
		for i, r := range l.script {
			sid := fmt.Sprintf("scaling-prime-%06d", i)
			if _, err := l.dom.Configurator.Configure(r.coreRequest(sid)); err == nil {
				_ = l.dom.Configurator.Stop(sid) // just configured; cannot be unknown
			}
		}
	}
	run := func(workers int, tag string) float64 {
		var done int64
		var mu sync.Mutex
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ok := 0
				for i := w; i < cycles; i += workers {
					sid := fmt.Sprintf("scaling-%s-%06d", tag, i)
					l.prepare()
					if _, err := l.dom.Configurator.Configure(l.script[i%len(l.script)].coreRequest(sid)); err != nil {
						continue // two goroutines may race for the same capacity
					}
					if l.dom.Configurator.Stop(sid) == nil {
						ok++
					}
				}
				mu.Lock()
				done += int64(ok)
				mu.Unlock()
			}()
		}
		wg.Wait()
		return float64(done) / time.Since(t0).Seconds()
	}
	// One goroutine before and after the two, the faster counting: whatever
	// runs first also grows the heap and warms the caches for the rest.
	one := run(1, "1a")
	two := run(2, "2")
	one = max(one, run(1, "1b"))
	if one > 0 {
		l.add("core.scaling_2c", two/one)
	}
}
