package distributor

import (
	"ubiqos/internal/device"
	"ubiqos/internal/graph"
)

// denseEdge is one adjacency entry: the position of the node at the other
// end and the throughput of the edge to or from it.
type denseEdge struct {
	other int32
	tp    float64
}

// dense is the index-based view of a validated Problem that the greedy
// heuristic and the exact solvers both run on, so that their inner loops
// touch slices rather than the graph's NodeID-keyed maps. It is immutable
// once built.
type dense struct {
	// nodes fixes the order every other per-node slice is indexed by.
	nodes []*graph.Node
	// rank[pos] is the index in nodes of the graph's node at position pos.
	rank []int32
	// Node i's incident edges (both directions, in graph edge order) are
	// adj[adjOff[i]:adjOff[i+1]].
	adjOff []int32
	adj    []denseEdge
	// pin[i] is the device index node i must be placed on, or -1.
	pin []int
	// bw is the row-major bandwidth matrix of the k devices: b(i,j) is
	// bw[i*k+j], and the diagonal is zero.
	k  int
	bw []float64
}

// newDense builds the view over the given node order, a permutation of
// the graph's nodes; nil selects the big-first order. The problem must
// have passed Validate, which is what guarantees every pin resolves.
func newDense(p *Problem, order []*graph.Node) *dense {
	if order == nil {
		order = p.sortedNodesByRequirement()
	}
	n, k := len(order), len(p.Devices)
	d := &dense{
		nodes:  order,
		rank:   make([]int32, n),
		adjOff: make([]int32, n+1),
		adj:    make([]denseEdge, 2*p.Graph.EdgeCount()),
		pin:    make([]int, n),
		k:      k,
		bw:     make([]float64, k*k),
	}
	for i, node := range order {
		pos, _ := p.Graph.Position(node.ID)
		d.rank[pos] = int32(i)
		d.pin[i] = -1
		if node.Pin != "" {
			d.pin[i] = p.deviceIndex(device.ID(node.Pin))
		}
	}
	// Two walks over the edges by position: count each node's degree,
	// prefix-sum the offsets, then fill in edge order.
	p.Graph.EachEdge(func(from, to int, _ float64) {
		d.adjOff[d.rank[from]+1]++
		d.adjOff[d.rank[to]+1]++
	})
	for i := 0; i < n; i++ {
		d.adjOff[i+1] += d.adjOff[i]
	}
	fill := append([]int32(nil), d.adjOff[:n]...)
	p.Graph.EachEdge(func(from, to int, tp float64) {
		fi, ti := d.rank[from], d.rank[to]
		d.adj[fill[fi]] = denseEdge{other: ti, tp: tp}
		d.adj[fill[ti]] = denseEdge{other: fi, tp: tp}
		fill[fi]++
		fill[ti]++
	})
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if i != j {
				d.bw[i*k+j] = p.Bandwidth(p.Devices[i].ID, p.Devices[j].ID)
			}
		}
	}
	return d
}

// edgesOf returns node i's adjacency entries.
func (d *dense) edgesOf(i int) []denseEdge {
	return d.adj[d.adjOff[i]:d.adjOff[i+1]]
}
