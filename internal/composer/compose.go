package composer

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ubiqos/internal/explain"
	"ubiqos/internal/graph"
	"ubiqos/internal/obslog"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/trace"
)

// MaxRecursionDepth bounds the recursive composition of replacement
// sub-graphs for missing services: "we limit the depth of recursion to 2 in
// the practical implementation" (paper §3.2, footnote 1).
const MaxRecursionDepth = 2

// ClientRole is the pin that names whichever device the user's client is:
// a service of the application's own graph pinned to it is pinned to
// Request.ClientDevice.
const ClientRole = "client"

// Request is one composition request handed to the service composer.
type Request struct {
	// App is the abstract service graph describing the application.
	App *AbstractGraph
	// UserQoS carries the user's QoS requirements; the composer merges it
	// into the desired output of the sink (client-facing) services before
	// discovery and enforces it as their input requirement during the
	// consistency check.
	UserQoS qos.Vector
	// ClientAttrs are properties of the client device (screen size,
	// computing capability, ...); they are merged into the discovery specs
	// of services pinned to ClientDevice.
	ClientAttrs map[string]string
	// ClientDevice names the device whose pinned services receive
	// ClientAttrs (matched against AbstractNode.Pin). The application's
	// services pinned to ClientRole are pinned to it, when it is set; a
	// decomposition's pins are taken as written.
	ClientDevice string
	// Span, when non-nil, receives child spans for every discovery attempt
	// (with recursion depth) and every Ordered Coordination correction.
	// Observability only; it never affects composition.
	Span *trace.Span
	// Log, when non-nil, receives structured records about the composition
	// outcome (missing services, correction counts). Observability only.
	Log *obslog.Logger
	// Explain, when non-nil, collects decision provenance into the
	// record: the candidate set behind every discovery binding and every
	// Ordered Coordination correction with its before/after QoS vectors.
	// Observability only.
	Explain *explain.Record
}

// MissingServiceError reports mandatory services the discovery service
// could not find and that no recursive composition could replace; the
// domain "sends a notification to the user", who may download and install
// an instance or quit the application.
type MissingServiceError struct {
	// Types lists the missing abstract service types, sorted.
	Types []string
}

// Error lists the missing service types.
func (e *MissingServiceError) Error() string {
	return fmt.Sprintf("composer: no instance discovered for mandatory service(s): %s",
		strings.Join(e.Types, ", "))
}

// Discovery is the slice of the service discovery service the composer
// needs: resolve an abstract spec to the closest concrete instance, or nil
// when discovery fails. *registry.Registry implements it.
type Discovery interface {
	Best(spec registry.Spec) *registry.Instance
}

// candidateExplainer is optionally implemented by discovery services
// that can enumerate the full ranked candidate set behind a Best
// decision, with per-candidate rejection reasons, along with Best's
// answer. *registry.Registry implements it.
type candidateExplainer interface {
	Candidates(spec registry.Spec) (*registry.Instance, []registry.Candidate)
}

// Composer is the service composition tier. It is configured with the
// discovery service and optional task decompositions, then used for any
// number of Compose calls. The zero Composer is unusable; use New.
type Composer struct {
	reg Discovery
	// decompositions maps a service type to an abstract graph that
	// "performs the same task as the missing service does".
	decompositions map[string]*AbstractGraph
	// checkOrder is the consistency-check direction (see SetCheckOrder).
	checkOrder CheckOrder
}

// New returns a composer bound to the given discovery service.
func New(reg Discovery) *Composer {
	return &Composer{reg: reg, decompositions: make(map[string]*AbstractGraph)}
}

// RegisterDecomposition teaches the composer that the given service type
// can be realized by composing the given abstract sub-graph, enabling
// recursive composition when discovery fails for the type.
func (c *Composer) RegisterDecomposition(serviceType string, ag *AbstractGraph) error {
	if serviceType == "" {
		return fmt.Errorf("composer: empty service type")
	}
	if err := ag.Validate(); err != nil {
		return err
	}
	c.decompositions[serviceType] = ag
	return nil
}

// Compose runs the four protocol steps of the service composer: acquire
// the abstract graph, discover instances, check and correct QoS
// consistencies (the Ordered Coordination algorithm), and return the QoS
// consistent service graph for the service distribution tier.
func (c *Composer) Compose(req Request) (*graph.Graph, *Report, error) {
	if req.App == nil {
		return nil, nil, fmt.Errorf("composer: nil abstract service graph")
	}
	adj := req.App.adjacency()
	if err := req.App.validate(adj); err != nil {
		return nil, nil, err
	}
	if err := req.UserQoS.Validate(); err != nil {
		return nil, nil, fmt.Errorf("composer: user QoS: %w", err)
	}

	// Size what the pass fills for the application's own nodes and edges;
	// only a recomposition or an OC splice adds more.
	n := req.App.NodeCount()
	report := newReport(n)
	g := graph.NewSized(n, len(req.App.tp))
	inst := &instantiation{
		c:      c,
		req:    req,
		g:      g,
		report: report,
		nodes:  make([]*graph.Node, 0, n),
	}
	if req.Explain != nil {
		req.Explain.Discoveries = slices.Grow(req.Explain.Discoveries, n)
		inst.explainer, _ = c.reg.(candidateExplainer)
	}
	if _, err := inst.run(req.App, adj, "", 0, req.Span); err != nil {
		return nil, nil, err
	}
	if len(inst.missing) > 0 {
		types := make([]string, 0, len(inst.missing))
		for t := range inst.missing {
			types = append(types, t)
		}
		sort.Strings(types)
		req.Log.Warn("mandatory services missing",
			obslog.String("types", strings.Join(types, ", ")))
		return nil, nil, &MissingServiceError{Types: types}
	}
	if g.NodeCount() == 0 {
		return nil, nil, fmt.Errorf("composer: all services optional and none discovered")
	}

	// Enforce the user's QoS requirements as input requirements of the
	// client-facing (sink) services so the Ordered Coordination algorithm
	// preserves them. A user demand is intersected with the sink's own
	// capability window: demanding more than the discovered client service
	// can render is an unsatisfiable request, not a correctable mismatch.
	for _, id := range g.Sinks() {
		n := g.Node(id)
		merged, err := intersectRequirements(n.In, req.UserQoS)
		if err != nil {
			return nil, nil, fmt.Errorf("composer: user QoS vs %s (%s): %w", n.ID, n.Instance, err)
		}
		n.In = merged
	}

	ocsp := req.Span.Child("ordered-coordination")
	if err := c.coordinate(g, report, ocsp, req.Explain); err != nil {
		ocsp.SetErr(err)
		ocsp.End()
		return nil, nil, err
	}
	ocsp.Set(trace.Int("checks", int64(report.Checks)),
		trace.Int("adjustments", int64(len(report.Adjustments))),
		trace.Int("transcoders", int64(len(report.Transcoders))),
		trace.Int("buffers", int64(len(report.Buffers))))
	ocsp.End()
	if err := g.Validate(); err != nil {
		return nil, nil, fmt.Errorf("composer: produced invalid graph: %w", err)
	}
	req.Log.Debug("composition complete",
		obslog.Int("components", int64(g.NodeCount())),
		obslog.Int("checks", int64(report.Checks)),
		obslog.Int("adjustments", int64(len(report.Adjustments))),
		obslog.Int("transcoders", int64(len(report.Transcoders))),
		obslog.Int("buffers", int64(len(report.Buffers))))
	return g, report, nil
}

// intersectRequirements narrows the base requirement vector by the
// demanded one: dimensions present in both must intersect (empty
// intersections are unsatisfiable), dimensions only in the demand are
// added verbatim.
func intersectRequirements(base, demand qos.Vector) (qos.Vector, error) {
	out := base.Clone()
	for _, p := range demand {
		existing, ok := out.Get(p.Name)
		if !ok {
			out = out.With(p.Name, p.Value)
			continue
		}
		narrowed, ok := existing.Intersect(p.Value)
		if !ok {
			return nil, fmt.Errorf("composer: demanded %s=%s conflicts with accepted %s", p.Name, p.Value, existing)
		}
		out = out.With(p.Name, narrowed)
	}
	return out, nil
}

// instantiation carries the state of one discovery/instantiation pass
// over the application's graph and the decompositions it recurses into.
type instantiation struct {
	c       *Composer
	req     Request
	g       *graph.Graph
	report  *Report
	missing map[string]bool
	// nodes holds g's nodes by position: the pass adds every one of them.
	nodes []*graph.Node
	// explainer is the discovery service's candidate listing when the
	// request collects provenance and the service can list, else nil.
	explainer candidateExplainer
}

// miss records a mandatory service type that could not be instantiated.
func (in *instantiation) miss(serviceType string) {
	if in.missing == nil {
		in.missing = make(map[string]bool)
	}
	in.missing[serviceType] = true
}

// splice is what one instantiated abstract graph leaves behind for wiring
// edges: for each abstract node, by position, the positions in the
// concrete graph of the nodes at its upstream (entries) and downstream
// (exits) boundary. A discovered node is its own boundary and a recomposed
// one has its decomposition's; a nil boundary (skipped optional, missing,
// or a decomposition that came out empty) resolves through the node's
// abstract neighbours, the bypass.
type splice struct {
	adj            adjacency
	entries, exits [][]int32
}

func qualify(prefix string, id graph.NodeID) graph.NodeID {
	return graph.NodeID(prefix + string(id))
}

// run instantiates one abstract graph (the application's, or a
// decomposition's at depth > 0) into the shared concrete graph. Discovery
// spans are parented to parent; a recursive re-composition's spans nest
// under the discover span of the node that triggered it, so the span tree
// shows the recursion depth structurally.
func (in *instantiation) run(ag *AbstractGraph, adj adjacency, prefix string, depth int, parent *trace.Span) (*splice, error) {
	n := len(ag.nodes)
	sides := make([][]int32, 2*n)
	sp := &splice{adj: adj, entries: sides[:n:n], exits: sides[n:]}
	own := make([]int32, n) // own[i:i+1] is discovered node i's boundary on both sides
	for i, an := range ag.nodes {
		qid := qualify(prefix, an.ID)
		spec := an.Spec
		sink := depth == 0 && len(adj.succs[i]) == 0
		if sink && len(in.req.UserQoS) > 0 {
			spec.Output = spec.Output.Merge(in.req.UserQoS)
		}
		pin := an.Pin
		if depth == 0 && pin == ClientRole && in.req.ClientDevice != "" {
			pin = in.req.ClientDevice
		}
		if pin != "" && pin == in.req.ClientDevice && len(in.req.ClientAttrs) > 0 {
			merged := make(map[string]string, len(spec.Attrs)+len(in.req.ClientAttrs))
			for k, v := range in.req.ClientAttrs {
				merged[k] = v
			}
			for k, v := range spec.Attrs {
				merged[k] = v
			}
			spec.Attrs = merged
		}

		// The discover span gets its attributes once the outcome is known
		// (decide), in one Set.
		dsp := parent.Child("discover")
		in.report.DiscoveryAttempts++
		// With provenance on, the winner and its candidate set come out of
		// one ranked pass.
		var best *registry.Instance
		var cands []registry.Candidate
		if in.explainer != nil {
			best, cands = in.explainer.Candidates(spec)
		} else {
			best = in.c.reg.Best(spec)
		}
		switch {
		case best != nil:
			node := nodeFromInstance(qid, pin, best)
			if err := in.g.AddNode(node); err != nil {
				dsp.Set(trace.String("node", string(qid)), trace.String("type", spec.Type),
					trace.Int("depth", int64(depth)), trace.String("error", err.Error()))
				dsp.End()
				return nil, err
			}
			own[i] = int32(len(in.nodes))
			in.nodes = append(in.nodes, node)
			in.g.Grow(int(own[i]), len(adj.succs[i]), len(adj.preds[i]))
			sp.entries[i] = own[i : i+1 : i+1]
			sp.exits[i] = sp.entries[i]
			in.report.Discovered[qid] = best.Name
			in.decide(dsp, qid, spec, depth, "found", best.Name, cands)

		case an.Optional:
			// "If the service that cannot be discovered is optional, then
			// the service composer may simply neglect it."
			in.report.Skipped = append(in.report.Skipped, qid)
			in.report.DiscoveryFailures++
			in.decide(dsp, qid, spec, depth, "skipped-optional", "", cands)

		case depth < MaxRecursionDepth:
			in.report.DiscoveryFailures++
			sub, ok := in.c.decompositions[an.Spec.Type]
			if !ok {
				in.miss(an.Spec.Type)
				in.decide(dsp, qid, spec, depth, "missing", "", cands)
				dsp.End()
				continue
			}
			// Recursively apply the composition algorithm to find a
			// service graph that performs the same task as the missing
			// service.
			in.decide(dsp, qid, spec, depth, "recompose", "", cands)
			inner, err := in.run(sub, sub.adjacency(), string(qid)+"/", depth+1, dsp)
			if err != nil {
				dsp.End()
				return nil, err
			}
			sp.entries[i] = inner.boundary(true)
			sp.exits[i] = inner.boundary(false)
			in.report.Expanded[qid] = an.Spec.Type
			// Propagate the pin to boundary nodes so e.g. a decomposed
			// player still lands on the client device.
			if pin != "" {
				for _, at := range sp.exits[i] {
					if n := in.nodes[at]; n.Pin == "" {
						n.Pin = pin
					}
				}
			}

		default:
			in.report.DiscoveryFailures++
			in.miss(an.Spec.Type)
			in.decide(dsp, qid, spec, depth, "missing", "", cands)
		}
		dsp.End()
	}

	// Wire the edges. An edge between two instantiated services connects
	// their boundaries as they stand; only an endpoint without one (a
	// skipped optional service, mostly) goes looking through its
	// neighbours.
	for k, tp := range ag.tp {
		from, to := ag.ends[2*k], ag.ends[2*k+1]
		srcs, dsts := sp.exits[from], sp.entries[to]
		if srcs == nil {
			srcs = resolve(from, sp.exits, adj.preds, make([]bool, n))
		}
		if dsts == nil {
			dsts = resolve(to, sp.entries, adj.succs, make([]bool, n))
		}
		for _, s := range srcs {
			for _, d := range dsts {
				if s != d {
					// A bypass may produce an edge that already exists;
					// the first declaration stays.
					_ = in.g.AddEdgeAt(int(s), int(d), tp)
				}
			}
		}
	}
	return sp, nil
}

// decide records one discovery decision: on the discover span, the node,
// its type and depth, the outcome and the instance chosen, if any, in one
// Set, so that the span allocates its list once; and, when the request
// collects provenance, in the record, with the ranked candidate set when
// the discovery service lists one. The spec passed in is the final
// (sink-output- and client-attr-merged) spec the binding was made over.
func (in *instantiation) decide(dsp *trace.Span, qid graph.NodeID, spec registry.Spec, depth int, outcome, chosen string, cands []registry.Candidate) {
	node, typ, dep, out := trace.String("node", string(qid)), trace.String("type", spec.Type),
		trace.Int("depth", int64(depth)), trace.String("outcome", outcome)
	if chosen != "" {
		dsp.Set(node, typ, dep, out, trace.String("instance", chosen))
	} else {
		dsp.Set(node, typ, dep, out)
	}
	if in.req.Explain == nil {
		return
	}
	in.req.Explain.AddDiscovery(explain.Discovery{
		Node: string(qid), Type: spec.Type, Depth: depth,
		Outcome: outcome, Chosen: chosen, Candidates: cands,
	})
}

// boundary returns the concrete sources (entry) or sinks of an
// instantiated decomposition: the boundaries of its abstract nodes that
// have no predecessor (entry) or no successor. Skipped optional nodes
// inside the decomposition resolve through to their neighbours.
func (sp *splice) boundary(entry bool) []int32 {
	side, outward, inward := sp.exits, sp.adj.succs, sp.adj.preds
	if entry {
		side, outward, inward = sp.entries, sp.adj.preds, sp.adj.succs
	}
	var out []int32
	seen := make(map[int32]bool)
	for i := range side {
		if len(outward[i]) != 0 {
			continue
		}
		for _, at := range resolve(int32(i), side, inward, make([]bool, len(side))) {
			if !seen[at] {
				seen[at] = true
				out = append(out, at)
			}
		}
	}
	return out
}

// resolve returns the concrete nodes that act as abstract node i's boundary
// on one side. With side = exits and next = preds it is the downstream
// boundary, and a node without one resolves to the exits of its abstract
// predecessors (the bypass); with entries and succs it is the upstream
// analogue.
func resolve(i int32, side [][]int32, next [][]int32, visiting []bool) []int32 {
	if visiting[i] {
		return nil
	}
	visiting[i] = true
	if b := side[i]; b != nil {
		return b
	}
	var out []int32
	for _, j := range next[i] {
		out = append(out, resolve(j, side, next, visiting)...)
	}
	return dedupe(out)
}

func dedupe(at []int32) []int32 {
	seen := make(map[int32]bool, len(at))
	out := at[:0]
	for _, a := range at {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// nodeFromInstance builds a concrete graph node from a discovered instance.
// The node shares the instance's vectors and maps: the registry never
// changes an instance, and a node's are only ever replaced (qos.Vector.With),
// never written through.
func nodeFromInstance(id graph.NodeID, pin string, inst *registry.Instance) *graph.Node {
	return &graph.Node{
		ID:            id,
		Type:          inst.Type,
		Instance:      inst.Name,
		In:            inst.Input,
		Out:           inst.Output,
		OutCapability: inst.OutCapability,
		Adjustable:    inst.Adjustable,
		PassThrough:   inst.PassThrough,
		Resources:     inst.Resources,
		Pin:           pin,
		SizeMB:        inst.SizeMB,
	}
}
