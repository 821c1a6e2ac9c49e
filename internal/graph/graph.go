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
	"slices"
	"sort"
	"sync/atomic"

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
//
// Nodes live by position: index resolves an ID to its position once, and
// every per-node slice (ids, nodes, out, in) is indexed by it. An edge is
// stored twice, as a half-edge naming the position at its other end in the
// source's out list and the target's in list, each list in the order its
// edges were added.
type Graph struct {
	index map[NodeID]int32
	ids   []NodeID
	nodes []*Node
	out   [][]halfEdge
	in    [][]halfEdge
	edges int
	// spare is room for half-edges that NewSized made and Grow has not yet
	// cut into lists.
	spare []halfEdge
	// topo is the result of the last sort, dropped by every structural
	// change, so that a composed graph is sorted once however many stages
	// validate it. Atomic because graphs are read from several goroutines.
	topo atomic.Pointer[topoResult]
}

// halfEdge is one entry of an out or in list.
type halfEdge struct {
	other int32
	tp    float64
}

// topoResult is one computed topological order, or the cycle that
// prevents it. It is never modified once stored.
type topoResult struct {
	order []NodeID
	err   error
}

// topoSorts counts the topological sorts actually computed, for tests.
var topoSorts atomic.Int64

// New returns an empty service graph.
func New() *Graph {
	return &Graph{index: make(map[NodeID]int32)}
}

// NewSized returns an empty service graph with room for nodes nodes and
// edges edges, so that a caller that knows how many it adds grows no
// per-node structure, and Grow cuts the edge lists out of one array.
func NewSized(nodes, edges int) *Graph {
	lists := make([][]halfEdge, 0, 2*nodes)
	return &Graph{
		index: make(map[NodeID]int32, nodes),
		ids:   make([]NodeID, 0, nodes),
		nodes: make([]*Node, 0, nodes),
		out:   lists[:0:nodes],
		in:    lists[nodes:nodes],
		spare: make([]halfEdge, 0, 2*edges),
	}
}

// AddNode inserts the node. It fails on duplicate or empty IDs.
func (g *Graph) AddNode(n *Node) error {
	if n == nil || n.ID == "" {
		return fmt.Errorf("graph: node must have a non-empty ID")
	}
	if _, ok := g.index[n.ID]; ok {
		return fmt.Errorf("graph: duplicate node %q", n.ID)
	}
	g.index[n.ID] = int32(len(g.nodes))
	g.ids = append(g.ids, n.ID)
	g.nodes = append(g.nodes, n)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.changed()
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
	fi, ok := g.index[from]
	if !ok {
		return fmt.Errorf("graph: edge source %q does not exist", from)
	}
	ti, ok := g.index[to]
	if !ok {
		return fmt.Errorf("graph: edge target %q does not exist", to)
	}
	return g.AddEdgeAt(int(fi), int(ti), throughputMbps)
}

// AddEdgeAt is AddEdge between the nodes at positions from and to, which
// must exist: it applies AddEdge's other checks, in its words, and looks
// no ID up.
func (g *Graph) AddEdgeAt(from, to int, throughputMbps float64) error {
	if from == to {
		return fmt.Errorf("graph: self-loop on %q", g.ids[from])
	}
	if throughputMbps < 0 {
		return fmt.Errorf("graph: negative throughput on %s->%s", g.ids[from], g.ids[to])
	}
	if indexOf(g.out[from], int32(to)) >= 0 {
		return fmt.Errorf("graph: duplicate edge %s->%s", g.ids[from], g.ids[to])
	}
	g.out[from] = append(g.out[from], halfEdge{other: int32(to), tp: throughputMbps})
	g.in[to] = append(g.in[to], halfEdge{other: int32(from), tp: throughputMbps})
	g.edges++
	g.changed()
	return nil
}

// Grow makes room in the lists of the node at position i for out more
// outgoing and in more incoming edges, so that a caller that knows a
// node's degrees adds its edges without growing a list again.
func (g *Graph) Grow(i, out, in int) {
	g.out[i] = g.grow(g.out[i], out)
	g.in[i] = g.grow(g.in[i], in)
}

// grow returns list with room for n more half-edges: an empty list is cut
// from the room NewSized made while it lasts, its capacity capped so that
// an append past it moves the list out rather than into the next one;
// otherwise it takes one allocation (slices.Grow appends a make, which the
// race detector's build allocates twice).
func (g *Graph) grow(list []halfEdge, n int) []halfEdge {
	if cap(list)-len(list) >= n {
		return list
	}
	if at := len(g.spare); len(list) == 0 && cap(g.spare)-at >= n {
		g.spare = g.spare[:at+n]
		return g.spare[at : at : at+n]
	}
	return append(make([]halfEdge, 0, len(list)+n), list...)
}

// indexOf returns the position in list of the half-edge to other, or -1.
func indexOf(list []halfEdge, other int32) int {
	for k, e := range list {
		if e.other == other {
			return k
		}
	}
	return -1
}

// changed drops the stored order after a structural change; the load
// first keeps a run of additions from writing the shared word each time.
func (g *Graph) changed() {
	if g.topo.Load() != nil {
		g.topo.Store(nil)
	}
}

// MustAddEdge is AddEdge that panics on error.
func (g *Graph) MustAddEdge(from, to NodeID, throughputMbps float64) {
	if err := g.AddEdge(from, to, throughputMbps); err != nil {
		panic(err)
	}
}

// removeEdge deletes the edge from→to if present and reports whether it
// existed.
func (g *Graph) removeEdge(from, to NodeID) bool {
	fi, fok := g.index[from]
	ti, tok := g.index[to]
	if !fok || !tok {
		return false
	}
	k := indexOf(g.out[fi], ti)
	if k < 0 {
		return false
	}
	g.out[fi] = slices.Delete(g.out[fi], k, k+1)
	k = indexOf(g.in[ti], fi)
	g.in[ti] = slices.Delete(g.in[ti], k, k+1)
	g.edges--
	g.changed()
	return true
}

// InsertOnEdge replaces the edge from→to with from→n→to, giving both new
// edges the original edge's throughput unless overridden (≥0 overrides).
// It is how the composer splices transcoder and buffer components into an
// inconsistent interaction.
func (g *Graph) InsertOnEdge(from, to NodeID, n *Node, inMbps, outMbps float64) error {
	fi, fok := g.index[from]
	ti, tok := g.index[to]
	k := -1
	if fok && tok {
		k = indexOf(g.out[fi], ti)
	}
	if k < 0 {
		return fmt.Errorf("graph: no edge %s->%s to insert on", from, to)
	}
	if err := g.AddNode(n); err != nil {
		return err
	}
	tp := g.out[fi][k].tp
	g.removeEdge(from, to)
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
func (g *Graph) Node(id NodeID) *Node {
	if i, ok := g.index[id]; ok {
		return g.nodes[i]
	}
	return nil
}

// Position returns the position of the node in insertion order: the index
// of its entry in Nodes and NodeIDs, and what EachEdge reports for it.
func (g *Graph) Position(id NodeID) (int, bool) {
	i, ok := g.index[id]
	return int(i), ok
}

// Nodes returns all nodes in insertion order. The slice is the graph's
// own: read it, but do not reorder or write it (clone it first). Its
// capacity is cut to its length, so an append copies instead of writing
// into the room NewSized keeps for later nodes.
func (g *Graph) Nodes() []*Node {
	n := len(g.nodes)
	if n == 0 {
		return []*Node{} // empty, not nil: it encodes as []
	}
	return g.nodes[:n:n]
}

// NodeIDs returns all node IDs in insertion order.
func (g *Graph) NodeIDs() []NodeID {
	return append([]NodeID(nil), g.ids...)
}

// Edges returns all edges, ordered by source insertion order, then by
// edge insertion order within a source.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for i, list := range g.out {
		for _, e := range list {
			out = append(out, Edge{From: g.ids[i], To: g.ids[e.other], ThroughputMbps: e.tp})
		}
	}
	return out
}

// EachEdge calls f for every edge, in Edges order, with the positions of
// its endpoints and its throughput. Unlike Edges it allocates nothing and
// resolves no NodeID, for the walks that index per-node slices by
// position.
func (g *Graph) EachEdge(f func(from, to int, tp float64)) {
	for i, list := range g.out {
		for _, e := range list {
			f(i, int(e.other), e.tp)
		}
	}
}

// Out returns the outgoing edges of id.
func (g *Graph) Out(id NodeID) []Edge {
	i, ok := g.index[id]
	if !ok || len(g.out[i]) == 0 {
		return nil
	}
	out := make([]Edge, len(g.out[i]))
	for k, e := range g.out[i] {
		out[k] = Edge{From: id, To: g.ids[e.other], ThroughputMbps: e.tp}
	}
	return out
}

// In returns the incoming edges of id.
func (g *Graph) In(id NodeID) []Edge {
	i, ok := g.index[id]
	if !ok || len(g.in[i]) == 0 {
		return nil
	}
	return g.AppendIn(make([]Edge, 0, len(g.in[i])), int(i))
}

// AppendIn appends the incoming edges of the node at position i to dst, in
// In's order, and returns the extended slice: a snapshot of the list that
// a caller changing the graph can walk from one reused buffer.
func (g *Graph) AppendIn(dst []Edge, i int) []Edge {
	for _, e := range g.in[i] {
		dst = append(dst, Edge{From: g.ids[e.other], To: g.ids[i], ThroughputMbps: e.tp})
	}
	return dst
}

// NodeCount returns the number of nodes V.
func (g *Graph) NodeCount() int { return len(g.nodes) }

// EdgeCount returns the number of edges E.
func (g *Graph) EdgeCount() int { return g.edges }

// Sources returns the nodes with no incoming edges, in insertion order.
func (g *Graph) Sources() []NodeID { return g.without(g.in) }

// Sinks returns the nodes with no outgoing edges, in insertion order. In a
// service graph the sinks are usually the client-facing services whose QoS
// corresponds to the user's requirements.
func (g *Graph) Sinks() []NodeID { return g.without(g.out) }

// without returns, in insertion order, the nodes whose list is empty.
func (g *Graph) without(lists [][]halfEdge) []NodeID {
	var out []NodeID
	for i, list := range lists {
		if len(list) == 0 {
			out = append(out, g.ids[i])
		}
	}
	return out
}

// TopoSort returns a topological order of the graph, or an error naming a
// node on a cycle. The order is deterministic: among ready nodes, insertion
// order wins (Kahn's algorithm with a stable ready queue).
func (g *Graph) TopoSort() ([]NodeID, error) {
	t := g.sorted()
	if t.err != nil {
		return nil, t.err
	}
	return append(make([]NodeID, 0, len(t.order)), t.order...), nil
}

// sorted returns the graph's topological order, computing it only if no
// structural change has happened since it was last computed.
func (g *Graph) sorted() *topoResult {
	if t := g.topo.Load(); t != nil {
		return t
	}
	topoSorts.Add(1)
	n := len(g.nodes)
	indeg := make([]int32, n)
	// ready is the FIFO queue of positions whose predecessors have all been
	// emitted; nothing leaves it, so it ends as the order.
	ready := make([]int32, 0, n)
	for i, list := range g.in {
		if indeg[i] = int32(len(list)); indeg[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	for head := 0; head < len(ready); head++ {
		for _, e := range g.out[ready[head]] {
			if indeg[e.other]--; indeg[e.other] == 0 {
				ready = append(ready, e.other)
			}
		}
	}
	t := &topoResult{}
	if len(ready) != n {
		// Name the nodes left on or behind a cycle.
		var stuck []string
		for i, d := range indeg {
			if d > 0 {
				stuck = append(stuck, string(g.ids[i]))
			}
		}
		sort.Strings(stuck)
		t.err = fmt.Errorf("graph: cycle detected involving %v", stuck)
	} else {
		t.order = make([]NodeID, n)
		for k, i := range ready {
			t.order[k] = g.ids[i]
		}
	}
	g.topo.Store(t)
	return t
}

// Clone returns a deep copy of the graph; nodes are cloned. The copy's
// edges are added in Edges order, and it keeps the original's sort, which
// depends only on node order and out lists.
func (g *Graph) Clone() *Graph {
	n := len(g.nodes)
	c := &Graph{
		index: make(map[NodeID]int32, n),
		ids:   append([]NodeID(nil), g.ids...),
		nodes: make([]*Node, n),
		out:   make([][]halfEdge, n),
		in:    make([][]halfEdge, n),
		edges: g.edges,
	}
	for i, id := range g.ids {
		c.index[id] = int32(i)
		c.nodes[i] = g.nodes[i].Clone()
		c.out[i] = append([]halfEdge(nil), g.out[i]...)
	}
	for i, list := range g.out {
		for _, e := range list {
			c.in[e.other] = append(c.in[e.other], halfEdge{other: int32(i), tp: e.tp})
		}
	}
	c.topo.Store(g.topo.Load())
	return c
}

// Validate checks structural well-formedness: the graph is a DAG, has at
// least one node, and every node carries valid QoS vectors and resource
// requirements.
func (g *Graph) Validate() error {
	if len(g.nodes) == 0 {
		return fmt.Errorf("graph: empty service graph")
	}
	if t := g.sorted(); t.err != nil {
		return t.err
	}
	for i, n := range g.nodes {
		id := g.ids[i]
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
