package composer

import (
	"encoding/json"
	"fmt"

	"ubiqos/internal/graph"
)

// What follows is the abstract graph as this package shipped it before
// nodes were kept by position: a NodeID-keyed node map, edges as
// AbstractEdge values that AddEdge scans in full for a duplicate, and
// FromPlain's own duplicate set. It is kept verbatim, renamed only, as the
// oracle TestAbstractGraphMatchesReference and FuzzAbstractGraphDecode
// compare the rewrite against.

// refAbstractGraph is the developer-supplied high-level application
// description: a DAG of abstract services and their interactions.
type refAbstractGraph struct {
	nodes map[graph.NodeID]*AbstractNode
	order []graph.NodeID
	edges []AbstractEdge
}

// refNewAbstractGraph returns an empty abstract service graph.
func refNewAbstractGraph() *refAbstractGraph {
	return &refAbstractGraph{nodes: make(map[graph.NodeID]*AbstractNode)}
}

// AddNode inserts an abstract service; duplicate or empty IDs fail.
func (ag *refAbstractGraph) AddNode(n *AbstractNode) error {
	if n == nil || n.ID == "" {
		return fmt.Errorf("composer: abstract node must have a non-empty ID")
	}
	if _, ok := ag.nodes[n.ID]; ok {
		return fmt.Errorf("composer: duplicate abstract node %q", n.ID)
	}
	if n.Spec.Type == "" {
		return fmt.Errorf("composer: abstract node %q has no service type", n.ID)
	}
	ag.nodes[n.ID] = n
	ag.order = append(ag.order, n.ID)
	return nil
}

// MustAddNode is AddNode that panics on error.
func (ag *refAbstractGraph) MustAddNode(n *AbstractNode) {
	if err := ag.AddNode(n); err != nil {
		panic(err)
	}
}

// AddEdge declares that service `from` feeds service `to` at the given
// throughput.
func (ag *refAbstractGraph) AddEdge(from, to graph.NodeID, throughputMbps float64) error {
	if err := ag.refCheckEdge(from, to, throughputMbps); err != nil {
		return err
	}
	for _, e := range ag.edges {
		if e.From == from && e.To == to {
			return refErrDuplicateEdge(from, to)
		}
	}
	ag.edges = append(ag.edges, AbstractEdge{From: from, To: to, ThroughputMbps: throughputMbps})
	return nil
}

// refCheckEdge applies every AddEdge rejection that concerns the edge alone;
// whether it duplicates an earlier edge is for the caller to decide.
func (ag *refAbstractGraph) refCheckEdge(from, to graph.NodeID, throughputMbps float64) error {
	if _, ok := ag.nodes[from]; !ok {
		return fmt.Errorf("composer: abstract edge source %q does not exist", from)
	}
	if _, ok := ag.nodes[to]; !ok {
		return fmt.Errorf("composer: abstract edge target %q does not exist", to)
	}
	if from == to {
		return fmt.Errorf("composer: self-loop on %q", from)
	}
	if throughputMbps < 0 {
		return fmt.Errorf("composer: negative throughput on %s->%s", from, to)
	}
	return nil
}

func refErrDuplicateEdge(from, to graph.NodeID) error {
	return fmt.Errorf("composer: duplicate abstract edge %s->%s", from, to)
}

// MustAddEdge is AddEdge that panics on error.
func (ag *refAbstractGraph) MustAddEdge(from, to graph.NodeID, throughputMbps float64) {
	if err := ag.AddEdge(from, to, throughputMbps); err != nil {
		panic(err)
	}
}

// Node returns the abstract node with the given ID, or nil.
func (ag *refAbstractGraph) Node(id graph.NodeID) *AbstractNode { return ag.nodes[id] }

// Nodes returns all abstract nodes in insertion order.
func (ag *refAbstractGraph) Nodes() []*AbstractNode {
	out := make([]*AbstractNode, 0, len(ag.order))
	for _, id := range ag.order {
		out = append(out, ag.nodes[id])
	}
	return out
}

// Edges returns all abstract edges in insertion order.
func (ag *refAbstractGraph) Edges() []AbstractEdge {
	return append([]AbstractEdge(nil), ag.edges...)
}

// NodeCount returns the number of abstract services.
func (ag *refAbstractGraph) NodeCount() int { return len(ag.nodes) }

// refAdjacency is the predecessor and successor lists of one abstract graph:
// nodes are named by their position in insertion order, and each list is
// in edge order. It is built in one pass over the edges by whoever needs
// it (Validate, one instantiation pass of Compose) and dropped afterwards:
// nothing is retained on the graph, which callers keep resident by the
// thousand.
type refAdjacency struct {
	preds, succs [][]int
	// ends[2k] and ends[2k+1] are the source and target of edge k.
	ends []int
}

func (ag *refAbstractGraph) refAdjacency() refAdjacency {
	n := len(ag.order)
	index := make(map[graph.NodeID]int, n)
	for i, id := range ag.order {
		index[id] = i
	}
	// Resolve the endpoints and count the degrees first, so that every
	// list is a window of one backing array.
	ends := make([]int, 2*len(ag.edges))
	deg := make([]int, 2*n)
	indeg, outdeg := deg[:n], deg[n:]
	for k, e := range ag.edges {
		from, to := index[e.From], index[e.To]
		ends[2*k], ends[2*k+1] = from, to
		outdeg[from]++
		indeg[to]++
	}
	adj := refAdjacency{preds: make([][]int, n), succs: make([][]int, n), ends: ends}
	backing := make([]int, 2*len(ag.edges))
	for i := 0; i < n; i++ {
		adj.preds[i], backing = backing[:0:indeg[i]], backing[indeg[i]:]
		adj.succs[i], backing = backing[:0:outdeg[i]], backing[outdeg[i]:]
	}
	for k := range ag.edges {
		from, to := ends[2*k], ends[2*k+1]
		adj.succs[from] = append(adj.succs[from], to)
		adj.preds[to] = append(adj.preds[to], from)
	}
	return adj
}

// Sinks returns the abstract nodes with no outgoing edges; these usually
// correspond to client-facing services carrying the user's QoS
// requirements.
func (ag *refAbstractGraph) Sinks() []graph.NodeID {
	hasOut := make(map[graph.NodeID]bool)
	for _, e := range ag.edges {
		hasOut[e.From] = true
	}
	var out []graph.NodeID
	for _, id := range ag.order {
		if !hasOut[id] {
			out = append(out, id)
		}
	}
	return out
}

// Validate checks the abstract graph is a non-empty DAG.
func (ag *refAbstractGraph) Validate() error { return ag.validate(ag.refAdjacency()) }

// validate is Validate over refAdjacency lists the caller has already built.
func (ag *refAbstractGraph) validate(adj refAdjacency) error {
	if len(ag.nodes) == 0 {
		return fmt.Errorf("composer: empty abstract service graph")
	}
	// Kahn's algorithm for cycle detection.
	indeg := make([]int, len(ag.order))
	ready := make([]int, 0, len(ag.order))
	for i, preds := range adj.preds {
		indeg[i] = len(preds)
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	seen := 0
	for len(ready) > 0 {
		i := ready[0]
		ready = ready[1:]
		seen++
		for _, s := range adj.succs[i] {
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

// refFromPlain builds the abstract graph a decoded document describes,
// applying every AddNode and AddEdge rejection. Edges are checked in one
// pass, with duplicates found through a set that lives only for the call,
// so a graph of E edges costs O(E) rather than AddEdge's O(E²). The graph
// takes over the document's nodes and edge slice.
func refFromPlain(p PlainGraph) (*refAbstractGraph, error) {
	ag := &refAbstractGraph{
		nodes: make(map[graph.NodeID]*AbstractNode, len(p.Nodes)),
		order: make([]graph.NodeID, 0, len(p.Nodes)),
	}
	for _, n := range p.Nodes {
		if err := ag.AddNode(n); err != nil {
			return nil, err
		}
	}
	seen := make(map[[2]graph.NodeID]struct{}, len(p.Edges))
	for _, e := range p.Edges {
		if err := ag.refCheckEdge(e.From, e.To, e.ThroughputMbps); err != nil {
			return nil, err
		}
		key := [2]graph.NodeID{e.From, e.To}
		if _, dup := seen[key]; dup {
			return nil, refErrDuplicateEdge(e.From, e.To)
		}
		seen[key] = struct{}{}
	}
	ag.edges = p.Edges
	return ag, nil
}

// MarshalJSON encodes the abstract graph with deterministic ordering.
func (ag *refAbstractGraph) MarshalJSON() ([]byte, error) {
	return json.Marshal(PlainGraph{Nodes: ag.Nodes(), Edges: ag.Edges()})
}

// UnmarshalJSON decodes an abstract graph, re-validating all constraints
// through refFromPlain.
func (ag *refAbstractGraph) UnmarshalJSON(data []byte) error {
	var p PlainGraph
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("composer: decode abstract graph: %w", err)
	}
	decoded, err := refFromPlain(p)
	if err != nil {
		return err
	}
	*ag = *decoded
	return nil
}
