package composer

import (
	"encoding/json"
	"fmt"

	"ubiqos/internal/graph"
)

type jsonAbstractGraph struct {
	Nodes []*AbstractNode `json:"nodes"`
	Edges []AbstractEdge  `json:"edges"`
}

// MarshalJSON encodes the abstract graph with deterministic ordering.
func (ag *AbstractGraph) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonAbstractGraph{Nodes: ag.Nodes(), Edges: ag.Edges()})
}

// UnmarshalJSON decodes an abstract graph, re-validating all constraints.
// Edges are checked in one pass — AddEdge's rejections, with duplicates
// found through a set that lives only for the decode — so a graph of E
// edges costs O(E) rather than AddEdge's O(E²).
func (ag *AbstractGraph) UnmarshalJSON(data []byte) error {
	var jg jsonAbstractGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("composer: decode abstract graph: %w", err)
	}
	*ag = *NewAbstractGraph()
	for _, n := range jg.Nodes {
		if err := ag.AddNode(n); err != nil {
			return err
		}
	}
	seen := make(map[[2]graph.NodeID]struct{}, len(jg.Edges))
	for _, e := range jg.Edges {
		if err := ag.checkEdge(e.From, e.To, e.ThroughputMbps); err != nil {
			return err
		}
		key := [2]graph.NodeID{e.From, e.To}
		if _, dup := seen[key]; dup {
			return errDuplicateEdge(e.From, e.To)
		}
		seen[key] = struct{}{}
	}
	ag.edges = jg.Edges
	return nil
}
