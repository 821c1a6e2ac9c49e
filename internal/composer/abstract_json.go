package composer

import (
	"encoding/json"
	"fmt"

	"ubiqos/internal/graph"
)

// PlainGraph is an abstract graph's JSON document as plain data: nodes and
// edges in insertion order, nothing checked. A struct that carries a graph
// inside a larger document (a wire request) holds this form rather than an
// *AbstractGraph, so encoding/json walks the graph's bytes in the same
// scan as the rest of the document instead of delimiting them for a nested
// Unmarshaler and scanning them again; FromPlain then turns it into a
// graph.
type PlainGraph struct {
	Nodes []*AbstractNode `json:"nodes"`
	Edges []AbstractEdge  `json:"edges"`
}

// FromPlain builds the abstract graph a decoded document describes,
// applying every AddNode and AddEdge rejection. Edges are checked in one
// pass, with duplicates found through a set that lives only for the call,
// so a graph of E edges costs O(E) rather than AddEdge's O(E²). The graph
// takes over the document's nodes and edge slice.
func FromPlain(p PlainGraph) (*AbstractGraph, error) {
	ag := &AbstractGraph{
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
		if err := ag.checkEdge(e.From, e.To, e.ThroughputMbps); err != nil {
			return nil, err
		}
		key := [2]graph.NodeID{e.From, e.To}
		if _, dup := seen[key]; dup {
			return nil, errDuplicateEdge(e.From, e.To)
		}
		seen[key] = struct{}{}
	}
	ag.edges = p.Edges
	return ag, nil
}

// MarshalJSON encodes the abstract graph with deterministic ordering.
func (ag *AbstractGraph) MarshalJSON() ([]byte, error) {
	return json.Marshal(PlainGraph{Nodes: ag.Nodes(), Edges: ag.Edges()})
}

// UnmarshalJSON decodes an abstract graph, re-validating all constraints
// through FromPlain.
func (ag *AbstractGraph) UnmarshalJSON(data []byte) error {
	var p PlainGraph
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("composer: decode abstract graph: %w", err)
	}
	decoded, err := FromPlain(p)
	if err != nil {
		return err
	}
	*ag = *decoded
	return nil
}
