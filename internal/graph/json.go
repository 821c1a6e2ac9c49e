package graph

import (
	"encoding/json"
	"fmt"
)

// jsonGraph is the wire representation of a Graph.
type jsonGraph struct {
	Nodes []*Node `json:"nodes"`
	Edges []Edge  `json:"edges"`
}

// MarshalJSON encodes the graph as {"nodes": [...], "edges": [...]} with
// deterministic ordering.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonGraph{Nodes: g.Nodes(), Edges: g.Edges()})
}

// UnmarshalJSON decodes a graph previously encoded with MarshalJSON,
// re-validating node and edge constraints. The graph is built fresh and
// replaces the receiver only if every node and edge is accepted; on error
// the receiver is left as it was.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("graph: decode: %w", err)
	}
	fresh := New()
	for _, n := range jg.Nodes {
		if err := fresh.AddNode(n); err != nil {
			return err
		}
	}
	for _, e := range jg.Edges {
		if err := fresh.AddEdge(e.From, e.To, e.ThroughputMbps); err != nil {
			return err
		}
	}
	// Field by field: the stored order is atomic, and a Graph is not copied.
	g.index, g.ids, g.nodes, g.out, g.in, g.edges = fresh.index, fresh.ids, fresh.nodes, fresh.out, fresh.in, fresh.edges
	g.changed()
	return nil
}
