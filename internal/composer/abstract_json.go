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
// through AddNode and AddEdge, so it applies every rejection they apply
// and finds a duplicate edge by scanning only its source's edges. The
// graph takes over the document's nodes.
func FromPlain(p PlainGraph) (*AbstractGraph, error) {
	ag := &AbstractGraph{
		index: make(map[graph.NodeID]int32, len(p.Nodes)),
		nodes: make([]*AbstractNode, 0, len(p.Nodes)),
		ends:  make([]int32, 0, 2*len(p.Edges)),
		tp:    make([]float64, 0, len(p.Edges)),
		head:  make([]int32, 0, len(p.Nodes)),
		next:  make([]int32, 0, len(p.Edges)),
	}
	for _, n := range p.Nodes {
		if err := ag.AddNode(n); err != nil {
			return nil, err
		}
	}
	for _, e := range p.Edges {
		if err := ag.AddEdge(e.From, e.To, e.ThroughputMbps); err != nil {
			return nil, err
		}
	}
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
