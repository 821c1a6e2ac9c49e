package distributor

import (
	"ubiqos/internal/device"
	"ubiqos/internal/graph"
)

// Incumbent is a previously committed placement handed to OptimalWarm as
// the warm-start seed after an environmental change.
type Incumbent struct {
	// Placement maps components to the device they were running on, keyed
	// by device identity rather than index, because the device set (and
	// hence Problem.Devices ordering) may have changed since the plan was
	// computed. Entries naming devices absent from the new problem are
	// ignored.
	Placement map[graph.NodeID]device.ID
	// Cost is the incumbent's cost aggregation in the environment it was
	// solved for. It seeds the reported bound trajectory context
	// ("warm-started from incumbent cost X") but is never used to prune:
	// the new environment may not admit any plan that cheap, and pruning
	// on it could cut off the true optimum.
	Cost float64
}

// OptimalWarm is Optimal warm-started from a previous assignment. The
// node order fixes still-valid placements first and the value order tries
// each component's incumbent device before the others, so the very first
// depth-first dive re-derives "keep everything that survived, re-place
// only what was lost" and its cost becomes the initial pruning bound.
// Only the lost components' subspace is then genuinely re-searched; the
// ≥-prune on the searcher's own best means no equal-cost alternative can
// displace that first incumbent-preserving optimum, so unaffected
// components do not move on ties.
//
// A nil incumbent — or one with no surviving entry — degrades to a cold
// solve that is bit-identical to Optimal (same code path, same order).
// The result is always a true optimum of p; warm start changes only which
// equal-cost optimum wins and how much of the tree is explored.
func OptimalWarm(p *Problem, inc *Incumbent) (Assignment, float64, error) {
	return solve(p, inc)
}

// warmStart turns the incumbent into the search seed for p. Entries that
// still make sense — the node exists, the device is still offered, and
// any pin agrees — are the reused placements. order is the variable
// order: reused placements first (stable within each group, preserving
// the big-first order), so the lost components sit at the bottom of the
// tree where backtracking is cheap; pref[i] is the device index order[i]
// ran on, or -1. With nothing to reuse (a nil incumbent included) order
// and pref are nil, which is the cold solve.
func (inc *Incumbent) warmStart(p *Problem) (order []*graph.Node, pref []int, reused int) {
	if inc == nil {
		return nil, nil, 0
	}
	warm := make(map[graph.NodeID]int, len(inc.Placement))
	for id, dev := range inc.Placement {
		n := p.Graph.Node(id)
		if n == nil {
			continue
		}
		di := p.deviceIndex(dev)
		if di < 0 {
			continue
		}
		if n.Pin != "" && device.ID(n.Pin) != dev {
			continue
		}
		warm[id] = di
	}
	if len(warm) == 0 {
		return nil, nil, 0
	}
	def := p.sortedNodesByRequirement()
	order = make([]*graph.Node, 0, len(def))
	pref = make([]int, 0, len(def))
	for _, n := range def {
		if di, ok := warm[n.ID]; ok {
			order = append(order, n)
			pref = append(pref, di)
		}
	}
	for _, n := range def {
		if _, ok := warm[n.ID]; !ok {
			order = append(order, n)
			pref = append(pref, -1)
		}
	}
	return order, pref, len(warm)
}
