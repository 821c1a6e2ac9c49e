package graph

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ubiqos/internal/qos"
	"ubiqos/internal/resource"
)

func mkNode(id string) *Node {
	return &Node{ID: NodeID(id), Type: "svc-" + id, Resources: resource.MB(1, 1)}
}

// diamond builds the 4-node diamond a->b->d, a->c->d.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for _, id := range []string{"a", "b", "c", "d"} {
		g.MustAddNode(mkNode(id))
	}
	g.MustAddEdge("a", "b", 1)
	g.MustAddEdge("a", "c", 2)
	g.MustAddEdge("b", "d", 3)
	g.MustAddEdge("c", "d", 4)
	return g
}

func TestAddNodeErrors(t *testing.T) {
	g := New()
	if err := g.AddNode(nil); err == nil {
		t.Error("nil node should fail")
	}
	if err := g.AddNode(&Node{}); err == nil {
		t.Error("empty ID should fail")
	}
	g.MustAddNode(mkNode("a"))
	if err := g.AddNode(mkNode("a")); err == nil {
		t.Error("duplicate ID should fail")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New()
	g.MustAddNode(mkNode("a"))
	g.MustAddNode(mkNode("b"))
	cases := []struct {
		name     string
		from, to NodeID
		tp       float64
	}{
		{"missing source", "x", "b", 1},
		{"missing target", "a", "x", 1},
		{"self loop", "a", "a", 1},
		{"negative throughput", "a", "b", -1},
	}
	for _, c := range cases {
		if err := g.AddEdge(c.from, c.to, c.tp); err == nil {
			t.Errorf("%s: AddEdge should fail", c.name)
		}
	}
	g.MustAddEdge("a", "b", 1)
	if err := g.AddEdge("a", "b", 2); err == nil {
		t.Error("duplicate edge should fail")
	}
}

func TestDegrees(t *testing.T) {
	g := diamond(t)
	if len(g.Out("a")) != 2 || len(g.In("a")) != 0 {
		t.Errorf("a degrees: out=%d in=%d", len(g.Out("a")), len(g.In("a")))
	}
	if len(g.Out("d")) != 0 || len(g.In("d")) != 2 {
		t.Errorf("d degrees: out=%d in=%d", len(g.Out("d")), len(g.In("d")))
	}
}

func TestSourcesSinks(t *testing.T) {
	g := diamond(t)
	if got := g.Sources(); !reflect.DeepEqual(got, []NodeID{"a"}) {
		t.Errorf("Sources = %v", got)
	}
	if got := g.Sinks(); !reflect.DeepEqual(got, []NodeID{"d"}) {
		t.Errorf("Sinks = %v", got)
	}
}

func TestTopoSort(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []NodeID{"a", "b", "c", "d"}) {
		t.Errorf("TopoSort = %v", order)
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := New()
	g.MustAddNode(mkNode("a"))
	g.MustAddNode(mkNode("b"))
	g.MustAddNode(mkNode("c"))
	g.MustAddEdge("a", "b", 1)
	g.MustAddEdge("b", "c", 1)
	g.MustAddEdge("c", "a", 1)
	if _, err := g.TopoSort(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("TopoSort on cycle = %v", err)
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("Validate on cycle = %v", err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := diamond(t)
	if !g.removeEdge("a", "b") {
		t.Fatal("removeEdge should report true")
	}
	if g.removeEdge("a", "b") {
		t.Error("second removal should report false")
	}
	if g.EdgeCount() != 3 {
		t.Errorf("EdgeCount = %d, want 3", g.EdgeCount())
	}
	if len(g.Out("a")) != 1 || len(g.In("b")) != 0 {
		t.Error("adjacency not updated")
	}
}

func TestInsertOnEdge(t *testing.T) {
	g := diamond(t)
	tr := mkNode("t")
	if err := g.InsertOnEdge("a", "b", tr, -1, 0.5); err != nil {
		t.Fatal(err)
	}
	if g.NodeCount() != 5 || g.EdgeCount() != 5 {
		t.Errorf("counts after insert: V=%d E=%d", g.NodeCount(), g.EdgeCount())
	}
	var at, tb *Edge
	for _, e := range g.Edges() {
		e := e
		switch {
		case e.From == "a" && e.To == "t":
			at = &e
		case e.From == "t" && e.To == "b":
			tb = &e
		case e.From == "a" && e.To == "b":
			t.Error("original edge should be gone")
		}
	}
	if at == nil || tb == nil {
		t.Fatal("inserted edges missing")
	}
	if at.ThroughputMbps != 1 { // inherited
		t.Errorf("a->t throughput = %g, want inherited 1", at.ThroughputMbps)
	}
	if tb.ThroughputMbps != 0.5 { // overridden
		t.Errorf("t->b throughput = %g, want 0.5", tb.ThroughputMbps)
	}
	if _, err := g.TopoSort(); err != nil {
		t.Errorf("insertion must preserve acyclicity: %v", err)
	}
	if err := g.InsertOnEdge("a", "b", mkNode("u"), -1, -1); err == nil {
		t.Error("inserting on a missing edge should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := diamond(t)
	g.Node("a").In = qos.V(qos.P("f", qos.Symbol("x")))
	g.Node("a").Adjustable = map[string]bool{"f": true}
	c := g.Clone()
	c.Node("a").In = c.Node("a").In.With("f", qos.Symbol("y"))
	c.Node("a").Adjustable["f"] = false
	c.MustAddNode(mkNode("z"))
	if v, _ := g.Node("a").In.Get("f"); !v.Equal(qos.Symbol("x")) {
		t.Error("clone must not share QoS vectors")
	}
	if !g.Node("a").Adjustable["f"] {
		t.Error("clone must not share Adjustable map")
	}
	if g.Node("z") != nil {
		t.Error("clone must not share node table")
	}
}

func TestValidate(t *testing.T) {
	g := diamond(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	if err := New().Validate(); err == nil {
		t.Error("empty graph should be invalid")
	}
	bad := diamond(t)
	bad.Node("a").In = qos.Vector{qos.P("", qos.Scalar(1))}
	if err := bad.Validate(); err == nil {
		t.Error("invalid QoS vector should be rejected")
	}
	bad2 := diamond(t)
	bad2.Node("b").SizeMB = -1
	if err := bad2.Validate(); err == nil {
		t.Error("negative size should be rejected")
	}
	bad3 := diamond(t)
	bad3.Node("c").Resources = resource.Vector{-5, 0}
	if err := bad3.Validate(); err == nil {
		t.Error("negative resources should be rejected")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := diamond(t)
	g.Node("a").Out = qos.V(qos.P(qos.DimFormat, qos.Symbol("MP3")))
	g.Node("a").Pin = "desktop1"
	g.Node("a").SizeMB = 2.5
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.NodeCount() != 4 || back.EdgeCount() != 4 {
		t.Fatalf("round trip counts: V=%d E=%d", back.NodeCount(), back.EdgeCount())
	}
	a := back.Node("a")
	if a.Pin != "desktop1" || a.SizeMB != 2.5 {
		t.Errorf("node fields lost: %+v", a)
	}
	if v, ok := a.Out.Get(qos.DimFormat); !ok || !v.Equal(qos.Symbol("MP3")) {
		t.Errorf("QoS lost: %v", a.Out)
	}
	if !reflect.DeepEqual(back.Edges(), g.Edges()) {
		t.Error("edges differ after round trip")
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	cases := []string{
		`{"nodes":[{"id":"a"},{"id":"a"}],"edges":[]}`,
		`{"nodes":[{"id":"a"}],"edges":[{"from":"a","to":"zz","throughputMbps":1}]}`,
		`not json`,
	}
	for _, c := range cases {
		var g Graph
		if err := json.Unmarshal([]byte(c), &g); err == nil {
			t.Errorf("Unmarshal(%q) should fail", c)
		}
	}
}

// randomDAG builds a random DAG with n nodes where each edge goes from a
// lower to a higher index, guaranteeing acyclicity.
func randomDAG(r *rand.Rand, n int) *Graph {
	g := New()
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		id := NodeID(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		ids[i] = id
		g.MustAddNode(&Node{ID: id, Type: "t", Resources: resource.MB(float64(r.Intn(10)), float64(r.Intn(10)))})
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Intn(4) == 0 {
				g.MustAddEdge(ids[i], ids[j], float64(r.Intn(100)))
			}
		}
	}
	return g
}

type dagGen struct{ G *Graph }

// Generate implements quick.Generator.
func (dagGen) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(dagGen{G: randomDAG(r, 2+r.Intn(12))})
}

func TestPropTopoSortIsValidOrder(t *testing.T) {
	prop := func(d dagGen) bool {
		order, err := d.G.TopoSort()
		if err != nil || len(order) != d.G.NodeCount() {
			return false
		}
		pos := make(map[NodeID]int, len(order))
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range d.G.Edges() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPropCloneEqualJSON(t *testing.T) {
	prop := func(d dagGen) bool {
		a, err := json.Marshal(d.G)
		if err != nil {
			return false
		}
		b, err := json.Marshal(d.G.Clone())
		if err != nil {
			return false
		}
		return string(a) == string(b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestPropJSONRoundTripPreservesStructure(t *testing.T) {
	prop := func(d dagGen) bool {
		data, err := json.Marshal(d.G)
		if err != nil {
			return false
		}
		var back Graph
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return back.NodeCount() == d.G.NodeCount() &&
			back.EdgeCount() == d.G.EdgeCount() &&
			reflect.DeepEqual(back.Edges(), d.G.Edges())
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDOT(t *testing.T) {
	g := diamond(t)
	g.Node("a").Instance = "server-1"
	dot := g.DOT("app", nil)
	for _, want := range []string{`digraph "app"`, `"a" [label="svc-a\nserver-1"]`, `"a" -> "b" [label="1 Mbps"]`} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// With a placement, nodes cluster by device.
	placement := map[NodeID]string{"a": "pc", "b": "pc", "c": "pda", "d": ""}
	dot = g.DOT("app", placement)
	for _, want := range []string{"subgraph cluster_0", `label="pc"`, `label="pda"`, `label="(unplaced)"`} {
		if !strings.Contains(dot, want) {
			t.Errorf("clustered DOT missing %q:\n%s", want, dot)
		}
	}
	// Deterministic output.
	if g.DOT("app", placement) != dot {
		t.Error("DOT output is not deterministic")
	}
}

// TestNewSizedListsStayApart: lists Grow cuts from NewSized's room are
// capped, so a node that adds more edges than it reserved moves its list
// out instead of writing into the next node's: a graph built with room,
// every node reserving one edge each way and then taking up to four, reads
// the same as one built without.
func TestNewSizedListsStayApart(t *testing.T) {
	ids := []NodeID{"a", "b", "c", "d", "e"}
	sized, plain := NewSized(len(ids), 8), New()
	for i, id := range ids {
		for _, g := range []*Graph{sized, plain} {
			g.MustAddNode(&Node{ID: id, Type: "svc"})
		}
		sized.Grow(i, 1, 1)
	}
	tp := 1.0
	for i, from := range ids {
		for _, to := range ids[i+1:] {
			for _, g := range []*Graph{sized, plain} {
				g.MustAddEdge(from, to, tp)
			}
			tp++
		}
	}
	for _, id := range ids {
		if got, want := sized.Out(id), plain.Out(id); !reflect.DeepEqual(got, want) {
			t.Errorf("out edges of %s = %v, want %v", id, got, want)
		}
		if got, want := sized.In(id), plain.In(id); !reflect.DeepEqual(got, want) {
			t.Errorf("in edges of %s = %v, want %v", id, got, want)
		}
	}
}
