// Package graph implements the service graph of the application service
// model (Gu & Nahrstedt, ICDCS 2002, §2): a directed acyclic graph whose
// nodes are autonomous service components annotated with input/output QoS
// vectors and end-system resource requirements, and whose edges carry the
// communication throughput c(u,v) between interacting components.
//
// The same structure represents both the instantiated ("concrete") service
// graph produced by the service composition tier and the graphs manipulated
// by the service distribution tier.
package graph

import (
	"fmt"
	"sort"

	"ubiqos/internal/qos"
	"ubiqos/internal/resource"
)

// NodeID identifies a node within one service graph.
type NodeID string

// Node is one service component in a service graph.
type Node struct {
	// ID is the graph-unique node identifier.
	ID NodeID `json:"id"`
	// Type is the abstract service type this component realizes
	// (e.g. "audio-player", "transcoder").
	Type string `json:"type"`
	// Instance names the concrete discovered component; empty while the
	// node is only abstractly specified.
	Instance string `json:"instance,omitempty"`
	// In is the input QoS requirement vector Qin.
	In qos.Vector `json:"in,omitempty"`
	// Out is the (current) output QoS vector Qout.
	Out qos.Vector `json:"out,omitempty"`
	// OutCapability is the full output capability of the component: for
	// each adjustable dimension, the range/set of values the component can
	// be configured to produce. Out must always be contained in it.
	OutCapability qos.Vector `json:"outCapability,omitempty"`
	// Adjustable marks the output dimensions whose value can be
	// re-configured at composition time (used by the Ordered Coordination
	// algorithm's automatic corrections).
	Adjustable map[string]bool `json:"adjustable,omitempty"`
	// PassThrough marks dimensions for which the component forwards its
	// input unchanged (e.g. a filter's frame rate): narrowing the output
	// also narrows the input requirement of the same dimension.
	PassThrough map[string]bool `json:"passThrough,omitempty"`
	// Resources is the end-system resource requirement vector R,
	// normalized to the benchmark machine.
	Resources resource.Vector `json:"resources,omitempty"`
	// Pin names the device the component must be instantiated on
	// (e.g. the display service on the client device); empty means the
	// distributor may place it anywhere.
	Pin string `json:"pin,omitempty"`
	// SizeMB is the component package size, used to model dynamic
	// downloading from the component repository.
	SizeMB float64 `json:"sizeMB,omitempty"`
}

// Clone returns a deep copy of the node.
func (n *Node) Clone() *Node {
	c := *n
	c.In = n.In.Clone()
	c.Out = n.Out.Clone()
	c.OutCapability = n.OutCapability.Clone()
	c.Resources = n.Resources.Clone()
	c.Adjustable = cloneBoolMap(n.Adjustable)
	c.PassThrough = cloneBoolMap(n.PassThrough)
	return &c
}

func cloneBoolMap(m map[string]bool) map[string]bool {
	if m == nil {
		return nil
	}
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Edge is a directed connection between two communicating components with
// the required communication throughput c(u,v) in Mbps.
type Edge struct {
	From           NodeID  `json:"from"`
	To             NodeID  `json:"to"`
	ThroughputMbps float64 `json:"throughputMbps"`
}

// Graph is a mutable service graph. Node and edge iteration order is the
// insertion order, so all algorithms over a graph are deterministic.
type Graph struct {
	nodes map[NodeID]*Node
	order []NodeID
	out   map[NodeID][]Edge
	in    map[NodeID][]Edge
	edges int
}

// New returns an empty service graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[NodeID]*Node),
		out:   make(map[NodeID][]Edge),
		in:    make(map[NodeID][]Edge),
	}
}

// AddNode inserts the node. It fails on duplicate or empty IDs.
func (g *Graph) AddNode(n *Node) error {
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
func (g *Graph) MustAddNode(n *Node) {
	if err := g.AddNode(n); err != nil {
		panic(err)
	}
}

// AddEdge inserts the directed edge from→to with the given throughput. Both
// endpoints must exist, self-loops and duplicate edges are rejected, and
// the throughput must be nonnegative.
func (g *Graph) AddEdge(from, to NodeID, throughputMbps float64) error {
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
func (g *Graph) MustAddEdge(from, to NodeID, throughputMbps float64) {
	if err := g.AddEdge(from, to, throughputMbps); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the edge from→to if present and reports whether it
// existed.
func (g *Graph) RemoveEdge(from, to NodeID) bool {
	removed := false
	g.out[from] = filterEdges(g.out[from], func(e Edge) bool { return e.To != to })
	g.in[to] = filterEdges(g.in[to], func(e Edge) bool {
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

func filterEdges(es []Edge, keep func(Edge) bool) []Edge {
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
func (g *Graph) InsertOnEdge(from, to NodeID, n *Node, inMbps, outMbps float64) error {
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
func (g *Graph) Node(id NodeID) *Node { return g.nodes[id] }

// Has reports whether the node exists.
func (g *Graph) Has(id NodeID) bool { return g.nodes[id] != nil }

// Nodes returns all nodes in insertion order.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.nodes[id])
	}
	return out
}

// NodeIDs returns all node IDs in insertion order.
func (g *Graph) NodeIDs() []NodeID {
	return append([]NodeID(nil), g.order...)
}

// Edges returns all edges, ordered by source insertion order then by
// target insertion order within a source.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for _, id := range g.order {
		out = append(out, g.out[id]...)
	}
	return out
}

// Out returns the outgoing edges of id.
func (g *Graph) Out(id NodeID) []Edge { return append([]Edge(nil), g.out[id]...) }

// In returns the incoming edges of id.
func (g *Graph) In(id NodeID) []Edge { return append([]Edge(nil), g.in[id]...) }

// OutDegree returns the number of outgoing edges of id.
func (g *Graph) OutDegree(id NodeID) int { return len(g.out[id]) }

// InDegree returns the number of incoming edges of id.
func (g *Graph) InDegree(id NodeID) int { return len(g.in[id]) }

// NodeCount returns the number of nodes V.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// EdgeCount returns the number of edges E.
func (g *Graph) EdgeCount() int { return g.edges }

// Sources returns the nodes with no incoming edges, in insertion order.
func (g *Graph) Sources() []NodeID {
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
func (g *Graph) Sinks() []NodeID {
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
func (g *Graph) TopoSort() ([]NodeID, error) {
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

// IsDAG reports whether the graph is acyclic.
func (g *Graph) IsDAG() bool {
	_, err := g.TopoSort()
	return err == nil
}

// Clone returns a deep copy of the graph; nodes are cloned.
func (g *Graph) Clone() *Graph {
	c := New()
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
func (g *Graph) Validate() error {
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

// TotalResources returns the component-wise sum of all node requirement
// vectors, assuming dimension m (nodes with empty vectors count as zero).
func (g *Graph) TotalResources(m int) resource.Vector {
	total := resource.New(m)
	for _, id := range g.order {
		if r := g.nodes[id].Resources; len(r) == m {
			total.AddInPlace(r)
		}
	}
	return total
}
