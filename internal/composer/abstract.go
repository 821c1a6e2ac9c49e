// Package composer implements the service composition tier of the dynamic
// QoS-aware service configuration model (Gu & Nahrstedt, ICDCS 2002, §3.2):
// it turns an abstract service graph — the developer's high-level
// description of an application — into a QoS-consistent concrete service
// graph by (1) discovering concrete service instances, (2) handling failed
// discoveries (skipping optional services, recursively composing
// replacements for mandatory ones, or notifying the user), and (3) running
// the Ordered Coordination algorithm to check and automatically correct
// QoS inconsistencies between interacting components.
package composer

import (
	"fmt"

	"ubiqos/internal/graph"
	"ubiqos/internal/registry"
)

// AbstractNode is one abstractly-specified service in an abstract service
// graph. Services are "not explicitly named, but rather specified in an
// abstract manner" (§3.1).
type AbstractNode struct {
	// ID is unique within the abstract graph; concrete nodes inherit it.
	ID graph.NodeID `json:"id"`
	// Spec is the abstract service description handed to the discovery
	// service.
	Spec registry.Spec `json:"spec"`
	// Optional services, "if present at runtime, enhance the application";
	// when discovery fails for an optional service the composer simply
	// neglects it.
	Optional bool `json:"optional,omitempty"`
	// Pin names the device the service must be instantiated on (e.g. the
	// player on the client device); empty means the distributor chooses.
	Pin string `json:"pin,omitempty"`
}

// AbstractEdge is a dependency between two abstract services with the
// expected communication throughput.
type AbstractEdge struct {
	From           graph.NodeID `json:"from"`
	To             graph.NodeID `json:"to"`
	ThroughputMbps float64      `json:"throughputMbps"`
}

// AbstractGraph is the developer-supplied high-level application
// description: a DAG of abstract services and their interactions.
type AbstractGraph struct {
	nodes map[graph.NodeID]*AbstractNode
	order []graph.NodeID
	edges []AbstractEdge
}

// NewAbstractGraph returns an empty abstract service graph.
func NewAbstractGraph() *AbstractGraph {
	return &AbstractGraph{nodes: make(map[graph.NodeID]*AbstractNode)}
}

// AddNode inserts an abstract service; duplicate or empty IDs fail.
func (ag *AbstractGraph) AddNode(n *AbstractNode) error {
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
func (ag *AbstractGraph) MustAddNode(n *AbstractNode) {
	if err := ag.AddNode(n); err != nil {
		panic(err)
	}
}

// AddEdge declares that service `from` feeds service `to` at the given
// throughput.
func (ag *AbstractGraph) AddEdge(from, to graph.NodeID, throughputMbps float64) error {
	if err := ag.checkEdge(from, to, throughputMbps); err != nil {
		return err
	}
	for _, e := range ag.edges {
		if e.From == from && e.To == to {
			return errDuplicateEdge(from, to)
		}
	}
	ag.edges = append(ag.edges, AbstractEdge{From: from, To: to, ThroughputMbps: throughputMbps})
	return nil
}

// checkEdge applies every AddEdge rejection that concerns the edge alone;
// whether it duplicates an earlier edge is for the caller to decide.
func (ag *AbstractGraph) checkEdge(from, to graph.NodeID, throughputMbps float64) error {
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

func errDuplicateEdge(from, to graph.NodeID) error {
	return fmt.Errorf("composer: duplicate abstract edge %s->%s", from, to)
}

// MustAddEdge is AddEdge that panics on error.
func (ag *AbstractGraph) MustAddEdge(from, to graph.NodeID, throughputMbps float64) {
	if err := ag.AddEdge(from, to, throughputMbps); err != nil {
		panic(err)
	}
}

// Node returns the abstract node with the given ID, or nil.
func (ag *AbstractGraph) Node(id graph.NodeID) *AbstractNode { return ag.nodes[id] }

// Nodes returns all abstract nodes in insertion order.
func (ag *AbstractGraph) Nodes() []*AbstractNode {
	out := make([]*AbstractNode, 0, len(ag.order))
	for _, id := range ag.order {
		out = append(out, ag.nodes[id])
	}
	return out
}

// Edges returns all abstract edges in insertion order.
func (ag *AbstractGraph) Edges() []AbstractEdge {
	return append([]AbstractEdge(nil), ag.edges...)
}

// NodeCount returns the number of abstract services.
func (ag *AbstractGraph) NodeCount() int { return len(ag.nodes) }

// Clone returns a copy of the graph with the same node and edge order.
// The nodes are copied, so the clone's pins can be rewritten without
// touching the original; what AddNode and AddEdge validated on the way in
// is not checked again.
func (ag *AbstractGraph) Clone() *AbstractGraph {
	c := &AbstractGraph{
		nodes: make(map[graph.NodeID]*AbstractNode, len(ag.nodes)),
		order: append([]graph.NodeID(nil), ag.order...),
		edges: append([]AbstractEdge(nil), ag.edges...),
	}
	for id, n := range ag.nodes {
		cp := *n
		c.nodes[id] = &cp
	}
	return c
}

// adjacency is the predecessor and successor lists of one abstract graph:
// nodes are named by their position in insertion order, and each list is
// in edge order. It is built in one pass over the edges by whoever needs
// it (Validate, one instantiation pass of Compose) and dropped afterwards:
// nothing is retained on the graph, which callers keep resident by the
// thousand.
type adjacency struct {
	preds, succs [][]int
	// ends[2k] and ends[2k+1] are the source and target of edge k.
	ends []int
}

func (ag *AbstractGraph) adjacency() adjacency {
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
	adj := adjacency{preds: make([][]int, n), succs: make([][]int, n), ends: ends}
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
func (ag *AbstractGraph) Sinks() []graph.NodeID {
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
func (ag *AbstractGraph) Validate() error { return ag.validate(ag.adjacency()) }

// validate is Validate over adjacency lists the caller has already built.
func (ag *AbstractGraph) validate(adj adjacency) error {
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
