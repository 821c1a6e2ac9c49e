package main

import (
	"fmt"
	"math"
	"math/rand"

	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/device"
	"ubiqos/internal/graph"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
	"ubiqos/internal/wire"
	"ubiqos/internal/workload"
)

// request is one generated start request together with what a correct
// reply to it must contain. The seed is the only input of a generator;
// the program under test sees nothing but the wire requests.
type request struct {
	wire wire.Request
	// hold is the number of later requests after which the session is
	// stopped (fill); 0 stops it as soon as the reply arrives.
	hold int
	// expect lists every node a successful reply must place; a non-empty
	// value is the device the node's pin demands.
	expect map[graph.NodeID]device.ID
}

// coreRequest is the in-process form of the request, as wire.Server.start
// builds it.
func (r request) coreRequest(sessionID string) core.Request {
	return core.Request{
		SessionID:    sessionID,
		Class:        r.wire.Class,
		App:          r.wire.App,
		UserQoS:      r.wire.UserQoS,
		ClientDevice: device.ID(r.wire.ClientDevice),
		MaxFrames:    r.wire.MaxFrames,
	}
}

// newRequest fills in what every workload shares: one frame per source, so
// no session spends its life streaming, and the expected placement derived
// from the abstract graph (optional nodes of unregistered types are
// skipped by the composer and must not be expected; a graph without
// optional nodes needs no registered set).
func newRequest(class string, app *composer.AbstractGraph, userQoS qos.Vector, client device.ID, registered map[string]bool) request {
	expect := make(map[graph.NodeID]device.ID)
	for _, n := range app.Nodes() {
		if n.Optional && !registered[n.Spec.Type] {
			continue
		}
		pin := device.ID(n.Pin)
		if n.Pin == core.ClientRole {
			pin = client
		}
		expect[n.ID] = pin
	}
	return request{
		wire: wire.Request{
			Op:           wire.OpStart,
			Class:        class,
			App:          app,
			UserQoS:      userQoS,
			ClientDevice: string(client),
			MaxFrames:    1,
		},
		expect: expect,
	}
}

// subSeed derives an independent stream per purpose, so adding a draw to
// one generator does not shift the others.
func subSeed(seed int64, purpose int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(purpose)))
}

const (
	purposeCatalogue = iota + 1
	purposeTrace
	// purposePool+k is the stream of the k-th pool graph.
	purposePool
)

// catalogueTypes is the size of the service-type catalogue the random
// graphs are drawn over.
const catalogueTypes = 64

// streamQoS is the QoS every catalogue component offers and accepts: the
// Ordered Coordination check has real vectors to compare on every edge,
// and finds them consistent.
var (
	streamOut = qos.V(qos.P(qos.DimFormat, qos.Symbol("RAW")), qos.P(qos.DimFrameRate, qos.Scalar(30)))
	streamIn  = qos.V(qos.P(qos.DimFrameRate, qos.Range(10, 60)))
	streamReq = qos.V(qos.P(qos.DimFrameRate, qos.Range(20, 40)))
)

// catalogue draws one instance per service type with requirement vectors
// uniform in (0, mem] x (0, cpu], the distribution workload.RandomGraph
// uses per component. The catalogue is the same for every seed: it belongs
// to the space, and 64 draws decide the mean session size, which would
// otherwise move fill's success ratio by several percent from seed to
// seed. The seed draws the graphs and the traces.
func catalogue(memMB, cpuPct float64) []*registry.Instance {
	rng := subSeed(0, purposeCatalogue)
	out := make([]*registry.Instance, catalogueTypes)
	for i := range out {
		out[i] = &registry.Instance{
			Name:      fmt.Sprintf("svc%02d-1", i),
			Type:      fmt.Sprintf("svc%02d", i),
			Input:     streamIn,
			Output:    streamOut,
			Resources: resource.MB((1-rng.Float64())*memMB, (1-rng.Float64())*cpuPct),
		}
	}
	return out
}

// randomApp turns a workload.RandomGraph into an abstract graph over the
// catalogue: the structure and edge throughputs are the random graph's,
// each node asks for a random catalogue type, and the last node (the only
// sink: edges run forward) is pinned to the client.
func randomApp(rng *rand.Rand, p workload.GraphParams) *composer.AbstractGraph {
	g := workload.MustRandomGraph(rng, p)
	ag := composer.NewAbstractGraph()
	nodes := g.Nodes()
	for i, n := range nodes {
		an := &composer.AbstractNode{
			ID:   n.ID,
			Spec: registry.Spec{Type: fmt.Sprintf("svc%02d", rng.Intn(catalogueTypes))},
		}
		if i == len(nodes)-1 {
			an.Pin = core.ClientRole
		}
		ag.MustAddNode(an)
	}
	for _, e := range g.Edges() {
		ag.MustAddEdge(e.From, e.To, e.ThroughputMbps)
	}
	return ag
}

func registeredTypes(instances []*registry.Instance) map[string]bool {
	out := make(map[string]bool, len(instances))
	for _, in := range instances {
		out[in.Type] = true
	}
	return out
}

// ---- mix4 ----------------------------------------------------------------

// mix4 class weights, after the four access categories of SNIPPETS 1-2.
var mix4Classes = []struct {
	name   string
	weight int
}{{"voice", 4}, {"video", 2}, {"best-effort", 3}, {"background", 1}}

// mix4's devices: desktop1 hosts the conference's recorders, the other
// desktops are the portals users sit at, and the PDA plays the background
// class.
var (
	mix4Desktops = []device.ID{"desktop1", "desktop2", "desktop3", "desktop4"}
	mix4Portals  = mix4Desktops[1:]
)

const mix4PDA device.ID = "pda"

// mix4Instances is the component set of the four applications. Every
// requirement and throughput is a dyadic rational, so an admit followed by
// a release restores a device's availability bit for bit and the plan
// cache's signatures repeat.
func mix4Instances() []*registry.Instance {
	pc := map[string]string{"platform": "pc"}
	pda := map[string]string{"platform": "pda"}
	mux := qos.V(
		qos.P("video-format", qos.Symbol(qos.FormatH261)), qos.P("video-fps", qos.Scalar(25)),
		qos.P("audio-format", qos.Symbol(qos.FormatPCM)), qos.P("audio-fps", qos.Scalar(6)),
	)
	return []*registry.Instance{
		// voice: the server's default rate is outside the player's window,
		// and adjustable, so Ordered Coordination corrects by adjustment.
		{Name: "voice-server-1", Type: "voice-server",
			Output:        qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatPCM)), qos.P(qos.DimFrameRate, qos.Scalar(50))),
			OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(5, 60))),
			Adjustable:    map[string]bool{qos.DimFrameRate: true},
			Resources:     resource.MB(16, 10)},
		{Name: "voice-player-pc", Type: "voice-player", Attrs: pc,
			Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatPCM)), qos.P(qos.DimFrameRate, qos.Range(10, 30))),
			Resources: resource.MB(8, 5)},
		// video: the non-linear conferencing graph of the prototype.
		{Name: "video-recorder-1", Type: "video-recorder",
			Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatH261)), qos.P(qos.DimFrameRate, qos.Scalar(25))),
			Resources: resource.MB(32, 60)},
		{Name: "audio-recorder-1", Type: "audio-recorder",
			Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatPCM)), qos.P(qos.DimFrameRate, qos.Scalar(6))),
			Resources: resource.MB(8, 15)},
		{Name: "gateway-1", Type: "gateway", Output: mux, Resources: resource.MB(24, 40)},
		{Name: "lipsync-1", Type: "lip-synchronizer", Output: mux, Resources: resource.MB(16, 30)},
		{Name: "video-player-pc", Type: "video-player", Attrs: pc,
			Input:     qos.V(qos.P("video-format", qos.Symbol(qos.FormatH261)), qos.P("video-fps", qos.Range(20, 30))),
			Resources: resource.MB(32, 50)},
		{Name: "conference-audio-player-pc", Type: "conference-audio-player", Attrs: pc,
			Input:     qos.V(qos.P("audio-format", qos.Symbol(qos.FormatPCM)), qos.P("audio-fps", qos.Range(5, 8))),
			Resources: resource.MB(8, 10)},
		// best-effort: its optional "ad-filter" has no instance.
		{Name: "web-cache-1", Type: "web-cache",
			Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol("HTML"))),
			Resources: resource.MB(32, 20)},
		{Name: "browser-pc", Type: "browser", Attrs: pc,
			Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol("HTML"))),
			Resources: resource.MB(24, 15)},
		// background: a fixed-rate MPEG archive feeding the PDA's WAV
		// player needs a transcoder and then a buffer.
		{Name: "archive-server-1", Type: "archive-server",
			Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol("MPEG")), qos.P(qos.DimFrameRate, qos.Scalar(40))),
			Resources: resource.MB(64, 25)},
		{Name: "wav-player-pda", Type: "wav-player", Attrs: pda,
			Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol("WAV")), qos.P(qos.DimFrameRate, qos.Range(10, 20))),
			Resources: resource.MB(8, 8)},
		{Name: "mpeg2wav-1", Type: composer.TypeTranscoder,
			Attrs:       map[string]string{"from": "MPEG", "to": "WAV"},
			Input:       qos.V(qos.P(qos.DimFormat, qos.Symbol("MPEG"))),
			Output:      qos.V(qos.P(qos.DimFormat, qos.Symbol("WAV"))),
			PassThrough: map[string]bool{qos.DimFrameRate: true},
			Resources:   resource.MB(12, 10)},
		{Name: "buffer-1", Type: composer.TypeBuffer, Resources: resource.MB(4, 2)},
	}
}

func voiceApp() *composer.AbstractGraph {
	ag := composer.NewAbstractGraph()
	ag.MustAddNode(&composer.AbstractNode{ID: "server", Spec: registry.Spec{Type: "voice-server"}})
	ag.MustAddNode(&composer.AbstractNode{ID: "player", Spec: registry.Spec{Type: "voice-player"}, Pin: core.ClientRole})
	ag.MustAddEdge("server", "player", 0.125)
	return ag
}

func videoApp() *composer.AbstractGraph {
	ag := composer.NewAbstractGraph()
	ag.MustAddNode(&composer.AbstractNode{ID: "vrec", Spec: registry.Spec{Type: "video-recorder"}, Pin: "desktop1"})
	ag.MustAddNode(&composer.AbstractNode{ID: "arec", Spec: registry.Spec{Type: "audio-recorder"}, Pin: "desktop1"})
	ag.MustAddNode(&composer.AbstractNode{ID: "gateway", Spec: registry.Spec{Type: "gateway"}})
	ag.MustAddNode(&composer.AbstractNode{ID: "lipsync", Spec: registry.Spec{Type: "lip-synchronizer"}})
	ag.MustAddNode(&composer.AbstractNode{ID: "vplayer", Spec: registry.Spec{Type: "video-player"}, Pin: core.ClientRole})
	ag.MustAddNode(&composer.AbstractNode{ID: "aplayer", Spec: registry.Spec{Type: "conference-audio-player"}, Pin: core.ClientRole})
	ag.MustAddEdge("vrec", "gateway", 4)
	ag.MustAddEdge("arec", "gateway", 0.25)
	ag.MustAddEdge("gateway", "lipsync", 4.25)
	ag.MustAddEdge("lipsync", "vplayer", 4)
	ag.MustAddEdge("lipsync", "aplayer", 0.25)
	return ag
}

func bestEffortApp() *composer.AbstractGraph {
	ag := composer.NewAbstractGraph()
	ag.MustAddNode(&composer.AbstractNode{ID: "cache", Spec: registry.Spec{Type: "web-cache"}})
	ag.MustAddNode(&composer.AbstractNode{ID: "filter", Spec: registry.Spec{Type: "ad-filter"}, Optional: true})
	ag.MustAddNode(&composer.AbstractNode{ID: "browser", Spec: registry.Spec{Type: "browser"}, Pin: core.ClientRole})
	ag.MustAddEdge("cache", "filter", 1)
	ag.MustAddEdge("filter", "browser", 1)
	return ag
}

func backgroundApp() *composer.AbstractGraph {
	ag := composer.NewAbstractGraph()
	ag.MustAddNode(&composer.AbstractNode{ID: "archive", Spec: registry.Spec{Type: "archive-server"}})
	ag.MustAddNode(&composer.AbstractNode{ID: "player", Spec: registry.Spec{Type: "wav-player"}, Pin: core.ClientRole})
	ag.MustAddEdge("archive", "player", 1)
	return ag
}

// genMix4 draws n requests: the class by weight, the portal among the
// portal desktops (the background class always plays on the PDA).
func genMix4(seed int64, n int) []request {
	rng := subSeed(seed, purposeTrace)
	registered := registeredTypes(mix4Instances())
	apps := map[string]*composer.AbstractGraph{
		"voice": voiceApp(), "video": videoApp(), "best-effort": bestEffortApp(), "background": backgroundApp(),
	}
	userQoS := map[string]qos.Vector{
		"voice": qos.V(qos.P(qos.DimFrameRate, qos.Range(20, 25))),
		"video": qos.V(qos.P("video-fps", qos.Range(20, 30)), qos.P("audio-fps", qos.Range(5, 8))),
	}
	total := 0
	for _, c := range mix4Classes {
		total += c.weight
	}
	out := make([]request, n)
	for i := range out {
		pick := rng.Intn(total)
		class := ""
		for _, c := range mix4Classes {
			if pick < c.weight {
				class = c.name
				break
			}
			pick -= c.weight
		}
		client := mix4Portals[rng.Intn(len(mix4Portals))]
		if class == "background" {
			client = mix4PDA
		}
		out[i] = newRequest(class, apps[class], userQoS[class], client, registered)
	}
	return out
}

// ---- bigraph ---------------------------------------------------------------

var bigraphDevices = []device.ID{"desktopA", "desktopB", "laptopA", "laptopB", "pdaA", "pdaB"}

// bigraphPool is the number of distinct graphs: four times the plan
// cache's 256 entries, so a graph's plan is evicted before the permutation
// comes round to it again.
const bigraphPool = 1024

// genBigraph issues the pool's Fig. 5-size graphs in a seeded permutation
// (wrapping round when n exceeds the pool), each from a random portal.
// Graph k of the pool has its own stream, so only the graphs a round
// issues are built.
func genBigraph(seed int64, n, pool int) []request {
	apps := make(map[int]*composer.AbstractGraph)
	trace := subSeed(seed, purposeTrace)
	perm := trace.Perm(pool)
	out := make([]request, n)
	for i := range out {
		k := perm[i%pool]
		if apps[k] == nil {
			apps[k] = randomApp(subSeed(seed, purposePool+k), workload.Fig5Params())
		}
		client := bigraphDevices[trace.Intn(len(bigraphDevices))]
		out[i] = newRequest("bigraph", apps[k], streamReq, client, nil)
	}
	return out
}

// ---- fill ------------------------------------------------------------------

// fill's space: Table 1's PC and PDA classes, several of each.
const (
	fillPCs  = 4
	fillPDAs = 4
	// fillPool graphs are drawn once; every request picks one.
	fillPool = 512
	// Holding times, in requests: exponential with this mean, clamped.
	// With the mean Table 1 graph asking for (135 MB, 210 %) of the space's
	// (1152 MB, 1600 %), a mean of fillHoldMean resident sessions offers
	// about 1.2 times what fits.
	fillHoldMean = 7.0
	fillHoldMin  = 2
	fillHoldMax  = 36
)

func fillDevices() []device.ID {
	var out []device.ID
	for i := 1; i <= fillPCs; i++ {
		out = append(out, device.ID(fmt.Sprintf("pc%d", i)))
	}
	for i := 1; i <= fillPDAs; i++ {
		out = append(out, device.ID(fmt.Sprintf("pda%d", i)))
	}
	return out
}

// genFill draws the serial trace: request i starts a session on a random
// portal that is stopped when request i+hold is issued.
func genFill(seed int64, n int) []request {
	apps := make(map[int]*composer.AbstractGraph)
	trace := subSeed(seed, purposeTrace)
	devs := fillDevices()
	out := make([]request, n)
	for i := range out {
		client := devs[trace.Intn(len(devs))]
		k := trace.Intn(fillPool)
		if apps[k] == nil {
			apps[k] = randomApp(subSeed(seed, purposePool+k), workload.Table1Params())
		}
		out[i] = newRequest("fill", apps[k], streamReq, client, nil)
		hold := int(math.Round(trace.ExpFloat64() * fillHoldMean))
		out[i].hold = min(max(hold, fillHoldMin), fillHoldMax)
	}
	return out
}

// ---- churn -----------------------------------------------------------------

var churnWorkers = []device.ID{"worker1", "worker2", "worker3"}

const churnPortal device.ID = "portal"

// churnParams sizes the standing sessions so that an exact solve on four
// devices stays short: over 400 graphs of 8-9 components a cold solve took
// 0.25 ms at the median and 4.1 ms at most, a warm re-solve after a device
// loss 0.07 ms and 0.4 ms. At 10 components one warm re-solve in 400 took
// 14.5 ms, three cycles' worth of recoveries, and a seed that drew such a
// graph read twice the p95 of one that did not; at 12 a cold solve reached
// 56 ms.
func churnParams() workload.GraphParams {
	return workload.GraphParams{
		MinNodes: 8, MaxNodes: 9,
		MinOutDegree: 1, MaxOutDegree: 3,
		MemMB: 4, CPUPct: 6, EdgeMbps: 0.25,
	}
}

// genChurn draws the standing population; every session's sink plays on
// the protected portal.
func genChurn(seed int64, n int) []request {
	rng := subSeed(seed, purposePool)
	out := make([]request, n)
	for i := range out {
		out[i] = newRequest("churn", randomApp(rng, churnParams()), streamReq, churnPortal, nil)
	}
	return out
}
