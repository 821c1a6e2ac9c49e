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
	"strings"

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
//
// Nodes live by position: index resolves an ID once, and nodes and head
// are indexed by it. Edge k, in insertion order, runs from position
// ends[2k] to position ends[2k+1] at throughput tp[k]. Each source chains
// its own edges, newest first (head[i], then next[k] until -1), so a
// duplicate is found by scanning only the source's edges. Callers keep
// these graphs resident by the thousand, so nothing else is stored.
type AbstractGraph struct {
	index map[graph.NodeID]int32
	nodes []*AbstractNode
	ends  []int32
	tp    []float64
	head  []int32
	next  []int32
}

// NewAbstractGraph returns an empty abstract service graph.
func NewAbstractGraph() *AbstractGraph {
	return &AbstractGraph{index: make(map[graph.NodeID]int32)}
}

// AddNode inserts an abstract service; duplicate or empty IDs fail.
func (ag *AbstractGraph) AddNode(n *AbstractNode) error {
	if n == nil || n.ID == "" {
		return fmt.Errorf("composer: abstract node must have a non-empty ID")
	}
	if _, ok := ag.index[n.ID]; ok {
		return fmt.Errorf("composer: duplicate abstract node %q", n.ID)
	}
	if n.Spec.Type == "" {
		return fmt.Errorf("composer: abstract node %q has no service type", n.ID)
	}
	ag.index[n.ID] = int32(len(ag.nodes))
	ag.nodes = append(ag.nodes, n)
	ag.head = append(ag.head, -1)
	return nil
}

// MustAddNode is AddNode that panics on error.
func (ag *AbstractGraph) MustAddNode(n *AbstractNode) {
	if err := ag.AddNode(n); err != nil {
		panic(err)
	}
}

// AddEdge declares that service `from` feeds service `to` at the given
// throughput. It keeps neither ID (the graph holds positions), so a caller
// may pass IDs converted from bytes it reuses.
func (ag *AbstractGraph) AddEdge(from, to graph.NodeID, throughputMbps float64) error {
	fi, ok := ag.index[from]
	if !ok {
		return fmt.Errorf("composer: abstract edge source %q does not exist", strings.Clone(string(from)))
	}
	ti, ok := ag.index[to]
	if !ok {
		return fmt.Errorf("composer: abstract edge target %q does not exist", strings.Clone(string(to)))
	}
	if fi == ti {
		return fmt.Errorf("composer: self-loop on %q", ag.nodes[fi].ID)
	}
	if throughputMbps < 0 {
		return fmt.Errorf("composer: negative throughput on %s->%s", ag.nodes[fi].ID, ag.nodes[ti].ID)
	}
	for k := ag.head[fi]; k >= 0; k = ag.next[k] {
		if ag.ends[2*k+1] == ti {
			return fmt.Errorf("composer: duplicate abstract edge %s->%s", ag.nodes[fi].ID, ag.nodes[ti].ID)
		}
	}
	ag.ends = append(ag.ends, fi, ti)
	ag.tp = append(ag.tp, throughputMbps)
	ag.next = append(ag.next, ag.head[fi])
	ag.head[fi] = int32(len(ag.tp) - 1)
	return nil
}

// GrowEdges makes room for n more edges, so that a caller that knows how
// many it adds grows no edge array while adding them.
func (ag *AbstractGraph) GrowEdges(n int) {
	ag.ends = grow(ag.ends, 2*n)
	ag.tp = grow(ag.tp, n)
	ag.next = grow(ag.next, n)
}

// grow returns s with room for n more elements, in one allocation (see
// graph.Graph.Grow on slices.Grow under the race detector).
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// MustAddEdge is AddEdge that panics on error.
func (ag *AbstractGraph) MustAddEdge(from, to graph.NodeID, throughputMbps float64) {
	if err := ag.AddEdge(from, to, throughputMbps); err != nil {
		panic(err)
	}
}

// Node returns the abstract node with the given ID, or nil.
func (ag *AbstractGraph) Node(id graph.NodeID) *AbstractNode {
	if i, ok := ag.index[id]; ok {
		return ag.nodes[i]
	}
	return nil
}

// Nodes returns all abstract nodes in insertion order.
func (ag *AbstractGraph) Nodes() []*AbstractNode {
	return append(make([]*AbstractNode, 0, len(ag.nodes)), ag.nodes...)
}

// Edges returns all abstract edges in insertion order.
func (ag *AbstractGraph) Edges() []AbstractEdge {
	if len(ag.tp) == 0 {
		return nil
	}
	out := make([]AbstractEdge, len(ag.tp))
	for k, tp := range ag.tp {
		out[k] = AbstractEdge{From: ag.nodes[ag.ends[2*k]].ID, To: ag.nodes[ag.ends[2*k+1]].ID, ThroughputMbps: tp}
	}
	return out
}

// NodeCount returns the number of abstract services.
func (ag *AbstractGraph) NodeCount() int { return len(ag.nodes) }

// NodeAt returns the abstract node at position i in insertion order.
func (ag *AbstractGraph) NodeAt(i int) *AbstractNode { return ag.nodes[i] }

// EachEdge calls f for every edge, in Edges order, with the positions of
// its endpoints and its throughput: Edges without the copy.
func (ag *AbstractGraph) EachEdge(f func(from, to int, tp float64)) {
	for k, tp := range ag.tp {
		f(int(ag.ends[2*k]), int(ag.ends[2*k+1]), tp)
	}
}

// adjacency is the predecessor and successor lists of one abstract graph,
// by position, each list in edge order. It is built in one pass over the
// edges by whoever needs it (Validate, one instantiation pass of Compose)
// and dropped afterwards: nothing is retained on the graph.
type adjacency struct {
	preds, succs [][]int32
}

func (ag *AbstractGraph) adjacency() adjacency {
	n := len(ag.nodes)
	// Count the degrees first, so that every list is a window of one
	// backing array.
	deg := make([]int, 2*n)
	indeg, outdeg := deg[:n], deg[n:]
	for k := 0; k < len(ag.ends); k += 2 {
		outdeg[ag.ends[k]]++
		indeg[ag.ends[k+1]]++
	}
	adj := adjacency{preds: make([][]int32, n), succs: make([][]int32, n)}
	backing := make([]int32, len(ag.ends))
	for i := 0; i < n; i++ {
		adj.preds[i], backing = backing[:0:indeg[i]], backing[indeg[i]:]
		adj.succs[i], backing = backing[:0:outdeg[i]], backing[outdeg[i]:]
	}
	for k := 0; k < len(ag.ends); k += 2 {
		from, to := ag.ends[k], ag.ends[k+1]
		adj.succs[from] = append(adj.succs[from], to)
		adj.preds[to] = append(adj.preds[to], from)
	}
	return adj
}

// Sinks returns the abstract nodes with no outgoing edges; these usually
// correspond to client-facing services carrying the user's QoS
// requirements.
func (ag *AbstractGraph) Sinks() []graph.NodeID {
	var out []graph.NodeID
	for i, h := range ag.head {
		if h < 0 {
			out = append(out, ag.nodes[i].ID)
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
	indeg := make([]int, len(ag.nodes))
	ready := make([]int32, 0, len(ag.nodes))
	for i, preds := range adj.preds {
		indeg[i] = len(preds)
		if indeg[i] == 0 {
			ready = append(ready, int32(i))
		}
	}
	for head := 0; head < len(ready); head++ {
		for _, s := range adj.succs[ready[head]] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(ready) != len(ag.nodes) {
		return fmt.Errorf("composer: abstract service graph has a cycle")
	}
	return nil
}
