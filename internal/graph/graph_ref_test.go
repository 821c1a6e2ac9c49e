package graph

import (
	"encoding/json"
	"fmt"
	"sort"
)

// What follows is the service graph as this package shipped it before
// nodes were kept by position: NodeID-keyed maps of edge lists and a fresh
// topological sort on every call. It is kept verbatim, renamed only, as
// the oracle TestGraphMatchesReference compares the rewrite against.

// refGraph is a mutable service graph. Node and edge iteration order is the
// insertion order, so all algorithms over a graph are deterministic.
type refGraph struct {
	nodes map[NodeID]*Node
	order []NodeID
	out   map[NodeID][]Edge
	in    map[NodeID][]Edge
	edges int
}

// New returns an empty service graph.
func refNew() *refGraph {
	return &refGraph{
		nodes: make(map[NodeID]*Node),
		out:   make(map[NodeID][]Edge),
		in:    make(map[NodeID][]Edge),
	}
}

// AddNode inserts the node. It fails on duplicate or empty IDs.
func (g *refGraph) AddNode(n *Node) error {
	if n == nil || n.ID == "" {
		return fmt.Errorf("graph: node must have a non-empty ID")
	}
	if _, ok := g.nodes[n.ID]; ok {
		return fmt.Errorf("graph: duplicate node %q", n.ID)
	}
	g.nodes[n.ID] = n
	g.order = append(g.order, n.ID)
	return nil
}

// MustAddNode is AddNode that panics on error, for literals in tests and
// examples.
func (g *refGraph) MustAddNode(n *Node) {
	if err := g.AddNode(n); err != nil {
		panic(err)
	}
}

// AddEdge inserts the directed edge from→to with the given throughput. Both
// endpoints must exist, self-loops and duplicate edges are rejected, and
// the throughput must be nonnegative.
func (g *refGraph) AddEdge(from, to NodeID, throughputMbps float64) error {
	if _, ok := g.nodes[from]; !ok {
		return fmt.Errorf("graph: edge source %q does not exist", from)
	}
	if _, ok := g.nodes[to]; !ok {
		return fmt.Errorf("graph: edge target %q does not exist", to)
	}
	if from == to {
		return fmt.Errorf("graph: self-loop on %q", from)
	}
	if throughputMbps < 0 {
		return fmt.Errorf("graph: negative throughput on %s->%s", from, to)
	}
	for _, e := range g.out[from] {
		if e.To == to {
			return fmt.Errorf("graph: duplicate edge %s->%s", from, to)
		}
	}
	e := Edge{From: from, To: to, ThroughputMbps: throughputMbps}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	g.edges++
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (g *refGraph) MustAddEdge(from, to NodeID, throughputMbps float64) {
	if err := g.AddEdge(from, to, throughputMbps); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the edge from→to if present and reports whether it
// existed.
func (g *refGraph) RemoveEdge(from, to NodeID) bool {
	removed := false
	g.out[from] = refFilterEdges(g.out[from], func(e Edge) bool { return e.To != to })
	g.in[to] = refFilterEdges(g.in[to], func(e Edge) bool {
		if e.From == from {
			removed = true
			return false
		}
		return true
	})
	if removed {
		g.edges--
	}
	return removed
}

func refFilterEdges(es []Edge, keep func(Edge) bool) []Edge {
	out := es[:0]
	for _, e := range es {
		if keep(e) {
			out = append(out, e)
		}
	}
	return out
}

// InsertOnEdge replaces the edge from→to with from→n→to, giving both new
// edges the original edge's throughput unless overridden (≥0 overrides).
// It is how the composer splices transcoder and buffer components into an
// inconsistent interaction.
func (g *refGraph) InsertOnEdge(from, to NodeID, n *Node, inMbps, outMbps float64) error {
	var orig *Edge
	for i := range g.out[from] {
		if g.out[from][i].To == to {
			orig = &g.out[from][i]
			break
		}
	}
	if orig == nil {
		return fmt.Errorf("graph: no edge %s->%s to insert on", from, to)
	}
	if err := g.AddNode(n); err != nil {
		return err
	}
	tp := orig.ThroughputMbps
	g.RemoveEdge(from, to)
	if inMbps < 0 {
		inMbps = tp
	}
	if outMbps < 0 {
		outMbps = tp
	}
	if err := g.AddEdge(from, n.ID, inMbps); err != nil {
		return err
	}
	return g.AddEdge(n.ID, to, outMbps)
}

// Node returns the node with the given ID, or nil.
func (g *refGraph) Node(id NodeID) *Node { return g.nodes[id] }

// Nodes returns all nodes in insertion order.
func (g *refGraph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.nodes[id])
	}
	return out
}

// NodeIDs returns all node IDs in insertion order.
func (g *refGraph) NodeIDs() []NodeID {
	return append([]NodeID(nil), g.order...)
}

// Edges returns all edges, ordered by source insertion order then by
// target insertion order within a source.
func (g *refGraph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for _, id := range g.order {
		out = append(out, g.out[id]...)
	}
	return out
}

// Out returns the outgoing edges of id.
func (g *refGraph) Out(id NodeID) []Edge { return append([]Edge(nil), g.out[id]...) }

// In returns the incoming edges of id.
func (g *refGraph) In(id NodeID) []Edge { return append([]Edge(nil), g.in[id]...) }

// OutDegree returns the number of outgoing edges of id.
func (g *refGraph) OutDegree(id NodeID) int { return len(g.out[id]) }

// InDegree returns the number of incoming edges of id.
func (g *refGraph) InDegree(id NodeID) int { return len(g.in[id]) }

// NodeCount returns the number of nodes V.
func (g *refGraph) NodeCount() int { return len(g.nodes) }

// EdgeCount returns the number of edges E.
func (g *refGraph) EdgeCount() int { return g.edges }

// Sources returns the nodes with no incoming edges, in insertion order.
func (g *refGraph) Sources() []NodeID {
	var out []NodeID
	for _, id := range g.order {
		if len(g.in[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// Sinks returns the nodes with no outgoing edges, in insertion order. In a
// service graph the sinks are usually the client-facing services whose QoS
// corresponds to the user's requirements.
func (g *refGraph) Sinks() []NodeID {
	var out []NodeID
	for _, id := range g.order {
		if len(g.out[id]) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// TopoSort returns a topological order of the graph, or an error naming a
// node on a cycle. The order is deterministic: among ready nodes, insertion
// order wins (Kahn's algorithm with a stable ready queue).
func (g *refGraph) TopoSort() ([]NodeID, error) {
	indeg := make(map[NodeID]int, len(g.nodes))
	for _, id := range g.order {
		indeg[id] = len(g.in[id])
	}
	var ready []NodeID
	for _, id := range g.order {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	out := make([]NodeID, 0, len(g.nodes))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		out = append(out, id)
		for _, e := range g.out[id] {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	if len(out) != len(g.nodes) {
		// Find one offending node for the error message.
		var stuck []string
		for _, id := range g.order {
			if indeg[id] > 0 {
				stuck = append(stuck, string(id))
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("graph: cycle detected involving %v", stuck)
	}
	return out, nil
}

// Clone returns a deep copy of the graph; nodes are cloned.
func (g *refGraph) Clone() *refGraph {
	c := refNew()
	for _, id := range g.order {
		c.MustAddNode(g.nodes[id].Clone())
	}
	for _, e := range g.Edges() {
		c.MustAddEdge(e.From, e.To, e.ThroughputMbps)
	}
	return c
}

// Validate checks structural well-formedness: the graph is a DAG, has at
// least one node, and every node carries valid QoS vectors and resource
// requirements.
func (g *refGraph) Validate() error {
	if len(g.nodes) == 0 {
		return fmt.Errorf("graph: empty service graph")
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	for _, id := range g.order {
		n := g.nodes[id]
		if err := n.In.Validate(); err != nil {
			return fmt.Errorf("graph: node %q input QoS: %w", id, err)
		}
		if err := n.Out.Validate(); err != nil {
			return fmt.Errorf("graph: node %q output QoS: %w", id, err)
		}
		if err := n.Resources.Validate(); err != nil {
			return fmt.Errorf("graph: node %q resources: %w", id, err)
		}
		if n.SizeMB < 0 {
			return fmt.Errorf("graph: node %q has negative size", id)
		}
	}
	return nil
}

// MarshalJSON encodes the graph as {"nodes": [...], "edges": [...]} with
// deterministic ordering.
func (g *refGraph) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonGraph{Nodes: g.Nodes(), Edges: g.Edges()})
}

// UnmarshalJSON decodes a graph previously encoded with MarshalJSON,
// re-validating node and edge constraints.
func (g *refGraph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("graph: decode: %w", err)
	}
	*g = *refNew()
	for _, n := range jg.Nodes {
		if err := g.AddNode(n); err != nil {
			return err
		}
	}
	for _, e := range jg.Edges {
		if err := g.AddEdge(e.From, e.To, e.ThroughputMbps); err != nil {
			return err
		}
	}
	return nil
}
