package composer

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"ubiqos/internal/registry"
	"ubiqos/internal/workload"
)

// fig5App turns a Fig. 5-size random service graph into an abstract graph
// with the same structure, its last node pinned.
func fig5App(seed int64) *AbstractGraph {
	g := workload.MustRandomGraph(rand.New(rand.NewSource(seed)), workload.Fig5Params())
	ag := NewAbstractGraph()
	for _, n := range g.Nodes() {
		ag.MustAddNode(&AbstractNode{ID: n.ID, Spec: registry.Spec{Type: "svc"}})
	}
	ag.Node(g.Sinks()[0]).Pin = "client"
	for _, e := range g.Edges() {
		ag.MustAddEdge(e.From, e.To, e.ThroughputMbps)
	}
	return ag
}

// TestUnmarshalRejectsWhatAddEdgeRejects: the one-pass decoder refuses the
// same five edges as AddEdge, in the same words.
func TestUnmarshalRejectsWhatAddEdgeRejects(t *testing.T) {
	const nodes = `"nodes":[{"id":"a","spec":{"type":"t"}},{"id":"b","spec":{"type":"t"}}]`
	cases := []struct {
		name  string
		edges string // decoded after nodes a and b
		bad   AbstractEdge
	}{
		{"unknown source", `[{"from":"zz","to":"b","throughputMbps":1}]`, AbstractEdge{"zz", "b", 1}},
		{"unknown target", `[{"from":"a","to":"zz","throughputMbps":1}]`, AbstractEdge{"a", "zz", 1}},
		{"self-loop", `[{"from":"a","to":"a","throughputMbps":1}]`, AbstractEdge{"a", "a", 1}},
		{"negative throughput", `[{"from":"a","to":"b","throughputMbps":-1}]`, AbstractEdge{"a", "b", -1}},
		{"duplicate edge", `[{"from":"a","to":"b","throughputMbps":1},{"from":"a","to":"b","throughputMbps":2}]`, AbstractEdge{"a", "b", 2}},
	}
	for _, tc := range cases {
		// What AddEdge says about the offending edge, the edges before it
		// already in place.
		ref := NewAbstractGraph()
		ref.MustAddNode(&AbstractNode{ID: "a", Spec: registry.Spec{Type: "t"}})
		ref.MustAddNode(&AbstractNode{ID: "b", Spec: registry.Spec{Type: "t"}})
		if tc.name == "duplicate edge" {
			ref.MustAddEdge("a", "b", 1)
		}
		want := ref.AddEdge(tc.bad.From, tc.bad.To, tc.bad.ThroughputMbps)
		if want == nil {
			t.Fatalf("%s: AddEdge accepted the edge", tc.name)
		}
		var ag AbstractGraph
		err := json.Unmarshal([]byte(`{`+nodes+`,"edges":`+tc.edges+`}`), &ag)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: decode error %v, AddEdge says %v", tc.name, err, want)
		}
	}
}

func TestAbstractGraphJSONStableOnFig5(t *testing.T) {
	ag := fig5App(5)
	first, err := json.Marshal(ag)
	if err != nil {
		t.Fatal(err)
	}
	var back AbstractGraph
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("marshal → unmarshal → marshal changed the encoding")
	}
	if !reflect.DeepEqual(back.Edges(), ag.Edges()) {
		t.Error("edge order changed")
	}
	// A decoded graph is still a graph: AddEdge finds its duplicates.
	e := back.Edges()[0]
	if err := back.AddEdge(e.From, e.To, 1); err == nil {
		t.Error("AddEdge on a decoded graph accepted a duplicate")
	}
}
