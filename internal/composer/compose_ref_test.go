package composer

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ubiqos/internal/explain"
	"ubiqos/internal/graph"
	"ubiqos/internal/obslog"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
	"ubiqos/internal/trace"
)

// What follows, down to refCompose, is the instantiation pass as this
// package shipped it before adjacency lists were built once per graph:
// splice maps keyed by qualified node ID, a visiting map per resolved edge
// endpoint, and preds/succs that scan every edge per call (with the
// Validate that made O(V·E)). It is kept verbatim, renamed only, as the
// oracle TestComposeMatchesReference compares the rewrite against. Its
// requests arrive with their ClientRole pins resolved by
// refResolveClientPins, as the configurator's requests once did; its
// dedupe is refDedupe.

// instantiation carries the state of one discovery/instantiation pass,
// including the splice maps for skipped optional services and recursively
// composed replacements.
type refInstantiation struct {
	c      *Composer
	req    Request
	g      *graph.Graph
	report *Report
	// entries/exits map an abstract node (qualified by prefix) to the
	// concrete nodes that represent its upstream/downstream boundary.
	// A skipped optional node has empty entries and exits.
	entries map[graph.NodeID][]graph.NodeID
	exits   map[graph.NodeID][]graph.NodeID
	missing map[string]bool
}

// run instantiates one abstract graph (the application's, or a
// decomposition's at depth > 0) into the shared concrete graph. Discovery
// spans are parented to parent; a recursive re-composition's spans nest
// under the discover span of the node that triggered it, so the span tree
// shows the recursion depth structurally.
func (in *refInstantiation) run(ag *AbstractGraph, prefix string, depth int, parent *trace.Span) error {
	sinkSet := make(map[graph.NodeID]bool)
	if depth == 0 {
		for _, id := range ag.Sinks() {
			sinkSet[id] = true
		}
	}
	for _, an := range ag.Nodes() {
		qid := qualify(prefix, an.ID)
		spec := an.Spec
		if sinkSet[an.ID] && len(in.req.UserQoS) > 0 {
			spec.Output = spec.Output.Merge(in.req.UserQoS)
		}
		if an.Pin != "" && an.Pin == in.req.ClientDevice && len(in.req.ClientAttrs) > 0 {
			merged := make(map[string]string, len(spec.Attrs)+len(in.req.ClientAttrs))
			for k, v := range in.req.ClientAttrs {
				merged[k] = v
			}
			for k, v := range spec.Attrs {
				merged[k] = v
			}
			spec.Attrs = merged
		}

		dsp := parent.Child("discover",
			trace.String("node", string(qid)),
			trace.String("type", spec.Type),
			trace.Int("depth", int64(depth)))
		in.report.DiscoveryAttempts++
		best := in.c.reg.Best(spec)
		switch {
		case best != nil:
			node := nodeFromInstance(qid, an.Pin, best)
			if err := in.g.AddNode(node); err != nil {
				dsp.SetErr(err)
				dsp.End()
				return err
			}
			in.entries[qid] = []graph.NodeID{qid}
			in.exits[qid] = []graph.NodeID{qid}
			in.report.Discovered[qid] = best.Name
			dsp.Set(trace.String("outcome", "found"), trace.String("instance", best.Name))
			in.explainDiscovery(qid, spec, depth, "found", best.Name)

		case an.Optional:
			// "If the service that cannot be discovered is optional, then
			// the service composer may simply neglect it."
			in.entries[qid] = nil
			in.exits[qid] = nil
			in.report.Skipped = append(in.report.Skipped, qid)
			in.report.DiscoveryFailures++
			dsp.Set(trace.String("outcome", "skipped-optional"))
			in.explainDiscovery(qid, spec, depth, "skipped-optional", "")

		case depth < MaxRecursionDepth:
			in.report.DiscoveryFailures++
			sub, ok := in.c.decompositions[an.Spec.Type]
			if !ok {
				in.missing[an.Spec.Type] = true
				dsp.Set(trace.String("outcome", "missing"))
				in.explainDiscovery(qid, spec, depth, "missing", "")
				dsp.End()
				continue
			}
			// Recursively apply the composition algorithm to find a
			// service graph that performs the same task as the missing
			// service.
			dsp.Set(trace.String("outcome", "recompose"))
			in.explainDiscovery(qid, spec, depth, "recompose", "")
			subPrefix := string(qid) + "/"
			if err := in.run(sub, subPrefix, depth+1, dsp); err != nil {
				dsp.End()
				return err
			}
			in.entries[qid] = in.subBoundary(sub, subPrefix, true)
			in.exits[qid] = in.subBoundary(sub, subPrefix, false)
			in.report.Expanded[qid] = an.Spec.Type
			// Propagate the pin to boundary nodes so e.g. a decomposed
			// player still lands on the client device.
			if an.Pin != "" {
				for _, id := range in.exits[qid] {
					if n := in.g.Node(id); n != nil && n.Pin == "" {
						n.Pin = an.Pin
					}
				}
			}

		default:
			in.report.DiscoveryFailures++
			in.missing[an.Spec.Type] = true
			dsp.Set(trace.String("outcome", "missing"))
			in.explainDiscovery(qid, spec, depth, "missing", "")
		}
		dsp.End()
	}

	// Wire the edges, bypassing skipped optional services.
	for _, e := range ag.Edges() {
		srcs := in.resolveExits(ag, prefix, e.From, make(map[graph.NodeID]bool))
		dsts := in.resolveEntries(ag, prefix, e.To, make(map[graph.NodeID]bool))
		for _, s := range srcs {
			for _, d := range dsts {
				if s == d {
					continue
				}
				if err := in.g.AddEdge(s, d, e.ThroughputMbps); err != nil {
					// A bypass may produce an edge that already exists;
					// keep the first declaration.
					continue
				}
			}
		}
	}
	return nil
}

func (in *refInstantiation) explainDiscovery(qid graph.NodeID, spec registry.Spec, depth int, outcome, chosen string) {
	if in.req.Explain == nil {
		return
	}
	d := explain.Discovery{
		Node: string(qid), Type: spec.Type, Depth: depth,
		Outcome: outcome, Chosen: chosen,
	}
	if ce, ok := in.c.reg.(candidateExplainer); ok {
		_, d.Candidates = ce.Candidates(spec)
	}
	in.req.Explain.AddDiscovery(d)
}

// subBoundary returns the concrete sources (entry=true) or sinks of an
// instantiated decomposition. Skipped optional nodes inside the
// decomposition resolve through to their neighbors.
func (in *refInstantiation) subBoundary(sub *AbstractGraph, prefix string, entry bool) []graph.NodeID {
	var out []graph.NodeID
	seen := make(map[graph.NodeID]bool)
	for _, an := range sub.Nodes() {
		boundary := false
		if entry {
			boundary = len(sub.refPreds(an.ID)) == 0
		} else {
			boundary = len(sub.refSuccs(an.ID)) == 0
		}
		if !boundary {
			continue
		}
		var ids []graph.NodeID
		if entry {
			ids = in.resolveEntries(sub, prefix, an.ID, make(map[graph.NodeID]bool))
		} else {
			ids = in.resolveExits(sub, prefix, an.ID, make(map[graph.NodeID]bool))
		}
		for _, id := range ids {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// resolveExits returns the concrete nodes that act as the downstream
// boundary of abstract node id; a skipped node resolves to the exits of its
// abstract predecessors (the bypass).
func (in *refInstantiation) resolveExits(ag *AbstractGraph, prefix string, id graph.NodeID, visiting map[graph.NodeID]bool) []graph.NodeID {
	qid := qualify(prefix, id)
	if visiting[qid] {
		return nil
	}
	visiting[qid] = true
	if ex, ok := in.exits[qid]; ok && ex != nil {
		return ex
	}
	var out []graph.NodeID
	for _, p := range ag.refPreds(id) {
		out = append(out, in.resolveExits(ag, prefix, p, visiting)...)
	}
	return refDedupe(out)
}

// resolveEntries is the upstream analogue of resolveExits: a skipped node
// resolves to the entries of its abstract successors.
func (in *refInstantiation) resolveEntries(ag *AbstractGraph, prefix string, id graph.NodeID, visiting map[graph.NodeID]bool) []graph.NodeID {
	qid := qualify(prefix, id)
	if visiting[qid] {
		return nil
	}
	visiting[qid] = true
	if en, ok := in.entries[qid]; ok && en != nil {
		return en
	}
	var out []graph.NodeID
	for _, s := range ag.refSuccs(id) {
		out = append(out, in.resolveEntries(ag, prefix, s, visiting)...)
	}
	return refDedupe(out)
}

func refDedupe(ids []graph.NodeID) []graph.NodeID {
	seen := make(map[graph.NodeID]bool, len(ids))
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// refResolveClientPins rewrites the ClientRole pin to the concrete client
// device, returning a copy when rewriting is needed: what the configurator
// did to every request's graph before the composer resolved the pin
// itself, and so the reference's half of that resolution.
func refResolveClientPins(app *AbstractGraph, client string) *AbstractGraph {
	if app == nil || client == "" {
		return app
	}
	needs := false
	for _, n := range app.Nodes() {
		if n.Pin == ClientRole {
			needs = true
			break
		}
	}
	if !needs {
		return app
	}
	out := NewAbstractGraph()
	for _, n := range app.Nodes() {
		cp := *n
		if cp.Pin == ClientRole {
			cp.Pin = client
		}
		out.MustAddNode(&cp)
	}
	for _, e := range app.Edges() {
		out.MustAddEdge(e.From, e.To, e.ThroughputMbps)
	}
	return out
}

// preds returns the abstract predecessors of id in edge order.
func (ag *AbstractGraph) refPreds(id graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, e := range ag.Edges() {
		if e.To == id {
			out = append(out, e.From)
		}
	}
	return out
}

// succs returns the abstract successors of id in edge order.
func (ag *AbstractGraph) refSuccs(id graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for _, e := range ag.Edges() {
		if e.From == id {
			out = append(out, e.To)
		}
	}
	return out
}

// Validate checks the abstract graph is a non-empty DAG.
func (ag *AbstractGraph) refValidate() error {
	if len(ag.nodes) == 0 {
		return fmt.Errorf("composer: empty abstract service graph")
	}
	// Kahn's algorithm for cycle detection.
	indeg := make(map[graph.NodeID]int, len(ag.nodes))
	for _, e := range ag.Edges() {
		indeg[e.To]++
	}
	var ready []graph.NodeID
	for _, n := range ag.nodes {
		if id := n.ID; indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	seen := 0
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		seen++
		for _, s := range ag.refSuccs(id) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if seen != len(ag.nodes) {
		return fmt.Errorf("composer: abstract service graph has a cycle")
	}
	return nil
}
func (c *Composer) refCompose(req Request) (*graph.Graph, *Report, error) {
	if req.App == nil {
		return nil, nil, fmt.Errorf("composer: nil abstract service graph")
	}
	if err := req.App.refValidate(); err != nil {
		return nil, nil, err
	}
	if err := req.UserQoS.Validate(); err != nil {
		return nil, nil, fmt.Errorf("composer: user QoS: %w", err)
	}

	report := newReport(0)
	g := graph.New()
	inst := &refInstantiation{
		c:       c,
		req:     req,
		g:       g,
		report:  report,
		entries: make(map[graph.NodeID][]graph.NodeID),
		exits:   make(map[graph.NodeID][]graph.NodeID),
		missing: make(map[string]bool),
	}
	if err := inst.run(req.App, "", 0, req.Span); err != nil {
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

// composeCase is one generated composition: a composer with its own
// decompositions, and a request.
type composeCase struct {
	c   *Composer
	req Request
}

// randomAbstract draws an abstract graph of n nodes over the given type
// pools. Edges run forward along the node order, with a chain edge between
// most neighbours so that runs of optional nodes of unregistered types —
// which discovery skips — sit in series and their bypasses nest; cyclic
// asks for one back edge.
func randomAbstract(rng *rand.Rand, n int, registered, unregistered, decomposed []string, cyclic bool) *AbstractGraph {
	ag := NewAbstractGraph()
	pick := func(pool []string) string { return pool[rng.Intn(len(pool))] }
	id := func(i int) graph.NodeID { return graph.NodeID(fmt.Sprintf("n%d", i)) }
	for i := 0; i < n; i++ {
		an := &AbstractNode{ID: id(i), Spec: registry.Spec{Type: pick(registered)}}
		switch r := rng.Float64(); {
		case r < 0.35:
			an.Spec.Type, an.Optional = pick(unregistered), true
		case r < 0.42:
			an.Optional = true
		case r < 0.54 && len(decomposed) > 0:
			an.Spec.Type = pick(decomposed)
			an.Optional = rng.Intn(8) == 0
		case r < 0.545:
			an.Spec.Type = pick(unregistered) // mandatory and missing
		}
		switch r := rng.Float64(); {
		case r < 0.15:
			an.Pin = "client"
		case r < 0.25:
			an.Pin = "dev" + fmt.Sprint(rng.Intn(3))
		}
		if rng.Intn(20) == 0 {
			an.Spec.Attrs = map[string]string{"platform": pick([]string{"pc", "pda"})}
		}
		ag.MustAddNode(an)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if (j == i+1 && rng.Float64() < 0.75) || rng.Float64() < 1.2/float64(n) {
				ag.MustAddEdge(id(i), id(j), float64(1+rng.Intn(20))/4)
			}
		}
	}
	if cyclic && n > 1 {
		j := 1 + rng.Intn(n-1)
		// A back edge closes a cycle only if a forward path exists; the
		// chain edges make that likely, and an acyclic outcome is a case too.
		_ = ag.AddEdge(id(j), id(rng.Intn(j)), 1)
	}
	return ag
}

func randomComposeCase(rng *rand.Rand) composeCase {
	r := registry.New()
	registered := []string{"t0", "t1", "t2", "t3", "t4"}
	for i, typ := range registered {
		for k := 0; k <= i%3; k++ {
			in := &registry.Instance{
				Name:      fmt.Sprintf("%s-%d", typ, k),
				Type:      typ,
				Output:    qos.V(qos.P(qos.DimFrameRate, qos.Scalar(30))),
				Resources: resource.MB(float64(1+rng.Intn(16)), float64(1+rng.Intn(20))),
				SizeMB:    float64(rng.Intn(4)),
			}
			if k > 0 {
				in.Attrs = map[string]string{"platform": []string{"pc", "pda"}[k%2]}
			}
			if typ == "t4" {
				in.Input = qos.V(qos.P(qos.DimFrameRate, qos.Range(10, 50)))
			}
			r.MustRegister(in)
		}
	}
	unregistered := []string{"u0", "u1", "u2"}
	c := New(r)
	// Depth-2 decompositions are made of plain services; depth-1 ones may
	// use those, so recursion reaches depth 2, and "dd" nests one level
	// too deep to be recomposed. "hollow" is all optional and undiscoverable:
	// a decomposition that instantiates to nothing.
	mustDecompose := func(typ string, ag *AbstractGraph) {
		if err := c.RegisterDecomposition(typ, ag); err != nil {
			panic(err)
		}
	}
	mustDecompose("d2a", randomAbstract(rng, 1+rng.Intn(4), registered, unregistered, nil, false))
	mustDecompose("d2b", randomAbstract(rng, 2+rng.Intn(4), registered, unregistered, nil, false))
	hollow := NewAbstractGraph()
	hollow.MustAddNode(&AbstractNode{ID: "h0", Optional: true, Spec: registry.Spec{Type: "u0"}})
	hollow.MustAddNode(&AbstractNode{ID: "h1", Optional: true, Spec: registry.Spec{Type: "u1"}})
	hollow.MustAddEdge("h0", "h1", 1)
	mustDecompose("hollow", hollow)
	level2 := []string{"d2a", "d2b", "hollow"}
	mustDecompose("d1a", randomAbstract(rng, 2+rng.Intn(5), registered, unregistered, level2, false))
	mustDecompose("d1b", randomAbstract(rng, 1+rng.Intn(3), registered, unregistered, level2, false))
	mustDecompose("dd", randomAbstract(rng, 2+rng.Intn(3), registered, unregistered, []string{"d1a", "d1b"}, false))
	decomposed := []string{"d1a", "d1b", "d2a", "d2b", "hollow"}
	if rng.Intn(10) == 0 {
		decomposed = append(decomposed, "dd")
	}

	req := Request{
		App:          randomAbstract(rng, 1+rng.Intn(14), registered, unregistered, decomposed, rng.Intn(8) == 0),
		ClientDevice: "client",
	}
	if rng.Intn(3) == 0 {
		req.ClientAttrs = map[string]string{"platform": []string{"pc", "pda"}[rng.Intn(2)]}
	}
	switch rng.Intn(3) {
	case 0:
		req.ClientDevice = "dev1" // a device pinned by name too
	case 1:
		req.ClientDevice = "" // no client: the ClientRole pin stays
	}
	switch rng.Intn(8) {
	case 0:
		req.UserQoS = qos.V(qos.P(qos.DimFrameRate, qos.Range(20, 30)))
	case 1:
		req.UserQoS = qos.V(qos.P(qos.DimFrameRate, qos.Range(60, 70))) // no t4 player renders it
	}
	return composeCase{c: c, req: req}
}

// composeOutcome is everything a Compose call produces or leaves in the
// request's observability sinks, times aside.
type composeOutcome struct {
	nodes       []graph.Node
	edges       []graph.Edge
	report      *Report
	err         string
	discoveries []explain.Discovery
	corrections []explain.Correction
	spans       []trace.SpanData
}

func outcomeOf(req Request, compose func(Request) (*graph.Graph, *Report, error)) composeOutcome {
	tc := trace.NewTracer(1)
	tr := tc.Start("compose", "s")
	var ex explain.Record
	req.Span, req.Explain = tr.Root(), &ex
	g, rep, err := compose(req)
	tr.Finish()
	out := composeOutcome{report: rep, discoveries: ex.Discoveries, corrections: ex.Corrections}
	if err != nil {
		out.err = err.Error()
	}
	if g != nil {
		for _, n := range g.Nodes() {
			out.nodes = append(out.nodes, *n)
		}
		out.edges = g.Edges()
	}
	for _, sp := range tc.Latest().Spans {
		sp.OffsetMs, sp.DurMs = 0, 0
		out.spans = append(out.spans, sp)
	}
	return out
}

// TestComposeMatchesReference holds Compose to the reference on generated
// requests — optional services of unregistered types in chains, registered
// decompositions at depth 1 and 2 (one hollow, one nested too deep), client
// pins and attributes (the ClientRole pin resolved to a client device
// named "client", to one other services name, or to none), user QoS, a
// share of cyclic graphs: the identical
// concrete graph in node and edge order, the identical report, error,
// explain records and span tree.
func TestComposeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var composed, failed, cyclic, skipped, expanded int
	for i := 0; i < 600; i++ {
		tc := randomComposeCase(rng)
		got := outcomeOf(tc.req, tc.c.Compose)
		want := outcomeOf(tc.req, func(req Request) (*graph.Graph, *Report, error) {
			req.App = refResolveClientPins(req.App, req.ClientDevice)
			return tc.c.refCompose(req)
		})
		if !reflect.DeepEqual(got, want) {
			app, _ := tc.req.App.MarshalJSON()
			t.Fatalf("case %d: Compose and the reference disagree\napp: %s\n got: %+v\nwant: %+v", i, app, got, want)
		}
		if got.err != "" {
			failed++
			if strings.HasSuffix(got.err, "has a cycle") {
				cyclic++
			}
			continue
		}
		composed++
		if len(got.report.Skipped) > 1 {
			skipped++
		}
		if len(got.report.Expanded) > 0 {
			expanded++
		}
	}
	t.Logf("%d composed (%d with several skipped services, %d with recomposed ones), %d failed (%d on a cycle)",
		composed, skipped, expanded, failed, cyclic)
	if composed < 300 || skipped < 100 || expanded < 100 || failed < 50 || cyclic < 20 {
		t.Error("the generator lost its coverage")
	}

	// Validate alone, on graphs with and without a cycle.
	for i := 0; i < 300; i++ {
		ag := randomAbstract(rng, rng.Intn(12), []string{"t"}, []string{"u"}, nil, i%2 == 0)
		got, want := ag.Validate(), ag.refValidate()
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("Validate says %v, the reference %v", got, want)
		}
	}
}

// TestComposeAllocationCeiling: composing a Fig. 5-size graph (62 nodes,
// 452 edges) took 1 625 allocations with the reference's per-edge maps,
// 1 095 with adjacency lists and 701 wired by position; with nodes that
// share their instance's vectors, one ranked discovery pass, the graph,
// its edge lists and the report sized up front and span attributes that
// do not escape an untraced compose, it takes 104, the ceiling (the race
// detector's build counts the same).
func TestComposeAllocationCeiling(t *testing.T) {
	r := registry.New()
	r.MustRegister(&registry.Instance{Name: "svc-1", Type: "svc", Resources: resource.MB(1, 1)})
	c := New(r)
	req := Request{App: fig5App(5), ClientDevice: "client"}
	var err error
	allocs := testing.AllocsPerRun(20, func() { _, _, err = c.Compose(req) })
	if err != nil {
		t.Fatal(err)
	}
	reference := testing.AllocsPerRun(20, func() { _, _, err = c.refCompose(req) })
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 104
	if allocs > ceiling || allocs > reference {
		t.Errorf("%.0f allocations a compose, ceiling %d, reference %.0f", allocs, ceiling, reference)
	}
}
