package graph

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ubiqos/internal/resource"
)

var oracleSeed = flag.Int64("oracle.seed", 0, "replay only the operation sequence with this seed")

// oracleIDs is the ID alphabet of the generated sequences: few enough that
// duplicates, cycles and repeated removals are common, plus the empty ID
// and one that is never added.
var oracleIDs = []NodeID{"", "a", "b", "c", "d", "e", "f", "never"}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// graphDiff returns the first observable difference between the graph and
// the reference graph, or "".
func graphDiff(g *Graph, r *refGraph) string {
	type view struct {
		name     string
		got, ref any
	}
	gOrder, gErr := g.TopoSort()
	rOrder, rErr := r.TopoSort()
	views := []view{
		{"Nodes", g.Nodes(), r.Nodes()},
		{"NodeIDs", g.NodeIDs(), r.NodeIDs()},
		{"Edges", g.Edges(), r.Edges()},
		{"EachEdge", walkedEdges(g), r.Edges()},
		{"NodeCount", g.NodeCount(), r.NodeCount()},
		{"EdgeCount", g.EdgeCount(), r.EdgeCount()},
		{"Sources", g.Sources(), r.Sources()},
		{"Sinks", g.Sinks(), r.Sinks()},
		{"TopoSort", gOrder, rOrder},
		{"TopoSort error", errText(gErr), errText(rErr)},
		{"Validate", errText(g.Validate()), errText(r.Validate())},
	}
	for _, id := range oracleIDs {
		views = append(views,
			view{fmt.Sprintf("Out(%q)", id), g.Out(id), r.Out(id)},
			view{fmt.Sprintf("In(%q)", id), g.In(id), r.In(id)},
			view{fmt.Sprintf("AppendIn(%q)", id), appendedIn(g, id), append([]Edge{{From: "x"}}, r.In(id)...)},
			view{fmt.Sprintf("OutDegree(%q)", id), len(g.Out(id)), r.OutDegree(id)},
			view{fmt.Sprintf("InDegree(%q)", id), len(g.In(id)), r.InDegree(id)},
			view{fmt.Sprintf("Position(%q)", id), position(g, id), slices.Index(r.NodeIDs(), id)},
			view{fmt.Sprintf("Node(%q)", id), g.Node(id), r.Node(id)})
	}
	for _, v := range views {
		if !reflect.DeepEqual(v.got, v.ref) {
			return fmt.Sprintf("%s: got %v, reference %v", v.name, v.got, v.ref)
		}
	}
	return ""
}

// position is Position as an index into NodeIDs, -1 when id is absent.
func position(g *Graph, id NodeID) int {
	if i, ok := g.Position(id); ok {
		return i
	}
	return -1
}

// appendedIn is AppendIn of id's position onto a one-edge prefix, which
// must survive; an absent id appends nothing.
func appendedIn(g *Graph, id NodeID) []Edge {
	out := []Edge{{From: "x"}}
	if i, ok := g.Position(id); ok {
		out = g.AppendIn(out, i)
	}
	return out
}

// walkedEdges rebuilds Edges from what EachEdge reports by position.
func walkedEdges(g *Graph) []Edge {
	ids, out := g.NodeIDs(), []Edge{}
	g.EachEdge(func(from, to int, tp float64) {
		out = append(out, Edge{From: ids[from], To: ids[to], ThroughputMbps: tp})
	})
	return out
}

// runGraphSequence applies one generated operation sequence to both graphs
// and returns the first divergence, naming the step.
func runGraphSequence(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	g, r := New(), refNew()
	if seed%2 == 0 {
		// Room made ahead, which Grow cuts into lists, changes nothing a
		// reader sees either.
		g = NewSized(rng.Intn(4), rng.Intn(6))
	}
	pick := func() NodeID { return oracleIDs[rng.Intn(len(oracleIDs))] }
	node := func(id NodeID) *Node {
		n := &Node{ID: id, Type: "svc", Resources: resource.MB(float64(rng.Intn(8)), float64(rng.Intn(8)))}
		if rng.Intn(10) == 0 {
			n.SizeMB = -1 // Validate must name it
		}
		return n
	}
	throughput := func() float64 { return []float64{-1, 0, 1.5, 3}[rng.Intn(4)] }
	spliced := 0
	steps := 5 + rng.Intn(40)
	for step := 0; step < steps; step++ {
		var op, gotErr, refErr string
		switch k := rng.Intn(20); {
		case k < 5:
			var n *Node
			if rng.Intn(20) > 0 {
				n = node(pick())
			}
			op = fmt.Sprintf("AddNode(%v)", n)
			gotErr, refErr = errText(g.AddNode(n)), errText(r.AddNode(n))
		case k < 13:
			from, to, tp := pick(), pick(), throughput()
			op = fmt.Sprintf("AddEdge(%q, %q, %v)", from, to, tp)
			if step%3 == 0 {
				// Room reserved ahead changes nothing a reader sees.
				op = "Grow, then " + op
				for _, id := range []NodeID{from, to} {
					if i, ok := g.Position(id); ok {
						g.Grow(i, rng.Intn(3), rng.Intn(3))
					}
				}
			}
			gotErr, refErr = errText(g.AddEdge(from, to, tp)), errText(r.AddEdge(from, to, tp))
		case k < 15:
			from, to := pick(), pick()
			op = fmt.Sprintf("removeEdge(%q, %q)", from, to)
			gotErr, refErr = fmt.Sprint(g.removeEdge(from, to)), fmt.Sprint(r.RemoveEdge(from, to))
		case k < 18:
			from, to := pick(), pick()
			id := pick()
			if rng.Intn(2) == 0 {
				id = NodeID(fmt.Sprintf("t%d", spliced))
				spliced++
			}
			n := node(id)
			in, out := []float64{-1, 2}[rng.Intn(2)], []float64{-1, 4}[rng.Intn(2)]
			op = fmt.Sprintf("InsertOnEdge(%q, %q, %q, %v, %v)", from, to, id, in, out)
			gotErr, refErr = errText(g.InsertOnEdge(from, to, n, in, out)), errText(r.InsertOnEdge(from, to, n, in, out))
		case k < 19:
			op = "Clone"
			g, r = g.Clone(), r.Clone()
		default:
			op = "JSON round trip"
			gb, gerr := json.Marshal(g)
			rb, rerr := json.Marshal(r)
			if string(gb) != string(rb) || errText(gerr) != errText(rerr) {
				return fmt.Sprintf("step %d %s: encodings differ:\n%s\n%s", step, op, gb, rb)
			}
			g, r = New(), refNew()
			gotErr, refErr = errText(json.Unmarshal(gb, g)), errText(json.Unmarshal(rb, r))
		}
		if gotErr != refErr {
			return fmt.Sprintf("step %d %s: got %s, reference %s", step, op, gotErr, refErr)
		}
		if d := graphDiff(g, r); d != "" {
			return fmt.Sprintf("step %d %s: %s", step, op, d)
		}
	}
	return ""
}

// TestGraphMatchesReference holds the position-based graph to the map-based
// one it replaced on generated operation sequences: node additions with
// duplicate, empty and nil nodes; edge additions (some after Grow) with
// duplicates, self-loops, unknown endpoints and negative throughputs; removals,
// splices, clones and JSON round trips. After every step each returns the
// same error and the same view through every read method, the cached
// topological order included. A failure names the seed; -oracle.seed
// replays it alone.
func TestGraphMatchesReference(t *testing.T) {
	seeds := make([]int64, 600)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	if *oracleSeed != 0 {
		seeds = []int64{*oracleSeed}
	}
	for _, seed := range seeds {
		if d := runGraphSequence(seed); d != "" {
			t.Fatalf("seed %d (replay with -oracle.seed %d): %s", seed, seed, d)
		}
	}
}

// TestUnmarshalFailureKeepsReceiver: decoding a document that fails
// validation into a built graph returns the error and leaves the graph as
// it was, rather than holding the nodes decoded before the failure.
func TestUnmarshalFailureKeepsReceiver(t *testing.T) {
	g := New()
	g.MustAddNode(mkNode("a"))
	g.MustAddNode(mkNode("b"))
	g.MustAddEdge("a", "b", 1)
	before, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{
		`{"nodes":[{"id":"x"},{"id":"x"}]}`,
		`{"nodes":[{"id":"x"}],"edges":[{"from":"x","to":"y","throughputMbps":1}]}`,
	} {
		if err := json.Unmarshal([]byte(doc), g); err == nil {
			t.Fatalf("Unmarshal(%s) should fail", doc)
		}
		after, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if string(after) != string(before) {
			t.Errorf("Unmarshal(%s) failed but changed the graph:\n got %s\nwant %s", doc, after, before)
		}
		if order, err := g.TopoSort(); err != nil || !reflect.DeepEqual(order, []NodeID{"a", "b"}) {
			t.Errorf("TopoSort after failed Unmarshal = %v, %v", order, err)
		}
	}
}

// TestConcurrentReadersShareOneOrder: graphs are read from several
// goroutines at once (the Figure 5 harness runs its policies over shared
// graphs), and the first read of a changed graph stores its order. Every
// reader gets the order a fresh sort gives, and stores race with nothing.
func TestConcurrentReadersShareOneOrder(t *testing.T) {
	g := randomDAG(rand.New(rand.NewSource(3)), 60)
	for round := 0; round < 20; round++ {
		g.MustAddNode(mkNode(fmt.Sprintf("extra%d", round))) // drops the stored order
		g.MustAddEdge("a0", NodeID(fmt.Sprintf("extra%d", round)), 1)
		// What a fresh sort gives, from the reference.
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		var r refGraph
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		want, err := r.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan string, 8)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := g.Validate(); err != nil {
					errs <- err.Error()
					return
				}
				if order, err := g.TopoSort(); err != nil || !reflect.DeepEqual(order, want) {
					errs <- fmt.Sprintf("TopoSort = %v, %v; want %v", order, err, want)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("round %d: %s", round, e)
		}
	}
}
