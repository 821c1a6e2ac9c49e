package composer

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ubiqos/internal/graph"
	"ubiqos/internal/registry"
)

var oracleSeed = flag.Int64("oracle.seed", 0, "replay only the operation sequence with this seed")

// oracleIDs is the ID alphabet of the generated sequences: few enough that
// duplicates and cycles are common, plus the empty ID and one that is
// never added.
var oracleIDs = []graph.NodeID{"", "a", "b", "c", "d", "e", "f", "never"}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// abstractDiff returns the first observable difference between the graph
// and the reference graph, or "".
func abstractDiff(ag *AbstractGraph, r *refAbstractGraph) string {
	type view struct {
		name     string
		got, ref any
	}
	// The adjacency lists are what Compose walks: compare them as ints.
	adj, radj := ag.adjacency(), r.refAdjacency()
	widen := func(lists [][]int32) [][]int {
		out := make([][]int, len(lists))
		for i, l := range lists {
			out[i] = make([]int, len(l))
			for k, v := range l {
				out[i][k] = int(v)
			}
		}
		return out
	}
	views := []view{
		{"Nodes", ag.Nodes(), r.Nodes()},
		{"Edges", ag.Edges(), r.Edges()},
		{"NodeAt", nodesAt(ag), r.Nodes()},
		{"EachEdge", walkedEdges(ag), r.Edges()},
		{"NodeCount", ag.NodeCount(), r.NodeCount()},
		{"Sinks", ag.Sinks(), r.Sinks()},
		{"Validate", errText(ag.Validate()), errText(r.Validate())},
		{"preds", widen(adj.preds), radj.preds},
		{"succs", widen(adj.succs), radj.succs},
	}
	for _, id := range oracleIDs {
		views = append(views, view{fmt.Sprintf("Node(%q)", id), ag.Node(id), r.Node(id)})
	}
	for _, v := range views {
		if !reflect.DeepEqual(v.got, v.ref) {
			return fmt.Sprintf("%s: got %v, reference %v", v.name, v.got, v.ref)
		}
	}
	return ""
}

// nodesAt lists the nodes through NodeAt.
func nodesAt(ag *AbstractGraph) []*AbstractNode {
	out := []*AbstractNode{}
	for i := 0; i < ag.NodeCount(); i++ {
		out = append(out, ag.NodeAt(i))
	}
	return out
}

// walkedEdges rebuilds Edges from what EachEdge reports by position.
func walkedEdges(ag *AbstractGraph) []AbstractEdge {
	var out []AbstractEdge
	ag.EachEdge(func(from, to int, tp float64) {
		out = append(out, AbstractEdge{From: ag.NodeAt(from).ID, To: ag.NodeAt(to).ID, ThroughputMbps: tp})
	})
	return out
}

// runAbstractSequence applies one generated operation sequence to both
// graphs and returns the first divergence, naming the step.
func runAbstractSequence(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	ag, r := NewAbstractGraph(), refNewAbstractGraph()
	pick := func() graph.NodeID { return oracleIDs[rng.Intn(len(oracleIDs))] }
	steps := 5 + rng.Intn(40)
	for step := 0; step < steps; step++ {
		var op, gotErr, refErr string
		switch k := rng.Intn(20); {
		case k < 6:
			var n *AbstractNode
			if rng.Intn(20) > 0 {
				n = &AbstractNode{ID: pick(), Spec: registry.Spec{Type: "svc"}, Optional: rng.Intn(2) == 0}
				if rng.Intn(10) == 0 {
					n.Spec.Type = ""
				}
			}
			op = fmt.Sprintf("AddNode(%v)", n)
			gotErr, refErr = errText(ag.AddNode(n)), errText(r.AddNode(n))
		case k < 17:
			from, to, tp := pick(), pick(), []float64{-1, 0, 1.5, 3}[rng.Intn(4)]
			op = fmt.Sprintf("AddEdge(%q, %q, %v)", from, to, tp)
			gotErr, refErr = errText(ag.AddEdge(from, to, tp)), errText(r.AddEdge(from, to, tp))
		case k < 18:
			// IDs converted from a buffer that is then overwritten: the
			// graph must keep neither.
			from, to := pick(), pick()
			op = fmt.Sprintf("AddEdge(%q, %q, 2) from bytes", from, to)
			buf := []byte(string(from) + string(to))
			gotErr = errText(ag.AddEdge(graph.NodeID(buf[:len(from)]), graph.NodeID(buf[len(from):]), 2))
			refErr = errText(r.AddEdge(from, to, 2))
			for i := range buf {
				buf[i] = '#'
			}
		default:
			op = "JSON round trip"
			gb, gerr := json.Marshal(ag)
			rb, rerr := json.Marshal(r)
			if string(gb) != string(rb) || errText(gerr) != errText(rerr) {
				return fmt.Sprintf("step %d %s: encodings differ:\n%s\n%s", step, op, gb, rb)
			}
			ag, r = new(AbstractGraph), new(refAbstractGraph)
			gotErr, refErr = errText(json.Unmarshal(gb, ag)), errText(json.Unmarshal(rb, r))
		}
		if gotErr != refErr {
			return fmt.Sprintf("step %d %s: got %s, reference %s", step, op, gotErr, refErr)
		}
		if d := abstractDiff(ag, r); d != "" {
			return fmt.Sprintf("step %d %s: %s", step, op, d)
		}
	}
	return ""
}

// TestAbstractGraphMatchesReference holds the position-based abstract
// graph to the one it replaced on generated operation sequences: node
// additions with duplicate, empty, untyped and nil nodes; edge additions
// with duplicates, self-loops, unknown endpoints and negative throughputs,
// some with IDs converted from bytes overwritten afterwards; and JSON round
// trips (FromPlain). After every step each returns
// the same error and the same view through every read method and the
// adjacency lists Compose walks. A failure names the seed; -oracle.seed
// replays it alone.
func TestAbstractGraphMatchesReference(t *testing.T) {
	seeds := make([]int64, 600)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if *oracleSeed != 0 {
		seeds = []int64{*oracleSeed}
	}
	for _, seed := range seeds {
		if d := runAbstractSequence(seed); d != "" {
			t.Fatalf("seed %d (replay with -oracle.seed %d): %s", seed, seed, d)
		}
	}
}

// FuzzAbstractGraphDecode decodes arbitrary documents as abstract graphs.
// Decoding never panics and fails exactly when the reference decoder does,
// in the same words; a decoded graph reads as the reference's does, and
// encoding it and decoding the encoding gives the same graph back.
func FuzzAbstractGraphDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ag AbstractGraph
		var r refAbstractGraph
		err, rerr := json.Unmarshal(data, &ag), json.Unmarshal(data, &r)
		if errText(err) != errText(rerr) {
			t.Fatalf("decode error %s, reference %s\ndocument %s", errText(err), errText(rerr), data)
		}
		if err != nil {
			return
		}
		if d := abstractDiff(&ag, &r); d != "" {
			t.Fatalf("%s\ndocument %s", d, data)
		}
		first, err := json.Marshal(&ag)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		var again AbstractGraph
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatalf("the encoding does not decode: %v\n%s", err, first)
		}
		if !reflect.DeepEqual(again.Nodes(), ag.Nodes()) || !reflect.DeepEqual(again.Edges(), ag.Edges()) {
			t.Fatalf("decode∘encode moved the graph\n%s", first)
		}
		if second, err := json.Marshal(&again); err != nil || string(second) != string(first) {
			t.Fatalf("encode∘decode moved the encoding (%v)\n%s\n%s", err, first, second)
		}
	})
}
