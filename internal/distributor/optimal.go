package distributor

import (
	"math"

	"ubiqos/internal/graph"
	"ubiqos/internal/obslog"
	"ubiqos/internal/resource"
	"ubiqos/internal/trace"
)

// Optimal finds the minimum-cost-aggregation feasible k-cut by exhaustive
// branch-and-bound search. The optimal service distribution problem is
// NP-hard (Theorem 1), so this solver is intended for the small instances
// of the paper's Table 1 comparison (10–20 components, 2 devices) and as a
// test oracle; the search prunes on partial resource violations and on
// partial cost exceeding the best complete solution.
//
// Among equal-cost optima, Optimal returns the assignment that comes first
// in the lexicographic device-index order over the solver's node order —
// the first optimum its depth-first search reaches.
func Optimal(p *Problem) (Assignment, float64, error) {
	return solve(p, nil)
}

// solve is the one exact solver behind Optimal and OptimalWarm: a cold
// search when no incumbent placement survives in p, otherwise a search
// whose node and device orders are seeded from the survivors (see
// OptimalWarm). Either way it reports the search through p.Span, p.Log
// and p.Stats.
func solve(p *Problem, inc *Incumbent) (Assignment, float64, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	order, pref, reused := inc.warmStart(p)
	s := newOBBState(p, order)
	s.pref = pref
	stats, spanName := SearchStats{Algorithm: "optimal"}, "branch-and-bound"
	if reused > 0 {
		stats = SearchStats{Algorithm: "optimal-warm", Warm: true, SeedCost: inc.Cost, Reused: reused}
		spanName = "branch-and-bound-warm"
	}

	sp := p.Span.Child(spanName)
	s.search(0, 0)
	sp.Set(trace.Int("explored", s.explored), trace.Int("pruned", s.prunedN),
		trace.Int("incumbents", s.incumbents))
	if reused > 0 {
		sp.Set(trace.Int("reused", int64(reused)))
	}
	sp.End()
	p.Log.Debug("branch-and-bound solved", obslog.String("algorithm", stats.Algorithm),
		obslog.Int("explored", s.explored), obslog.Int("pruned", s.prunedN),
		obslog.Int("incumbents", s.incumbents), obslog.Int("reused", int64(reused)))
	if p.Stats != nil {
		stats.Explored, stats.Pruned, stats.Incumbents = s.explored, s.prunedN, s.incumbents
		stats.BoundTrajectory = append([]float64(nil), s.trajectory...)
		if t := s.trajectory; len(t) >= 2 {
			// The best complete solution the winner displaced.
			stats.RunnerUp = t[len(t)-2]
		}
		*p.Stats = stats
	}
	return s.result()
}

// obbState is one branch-and-bound search context: the immutable dense
// view and suffix bound, then the mutable state search moves through.
type obbState struct {
	*dense
	p *Problem
	m int

	// sufMin[i] is an admissible lower bound on the cost still to be paid
	// by nodes i..: the sum over those nodes of the cheapest end-system
	// term any statically-fitting (and pin-compatible) device offers, plus
	// the forced-crossing network floor (see newOBBState). Neither exceeds
	// what the node really pays, so partial cost + sufMin[i] never
	// exceeds the cost of any feasible completion — pruning on it removes
	// only paths that cannot beat (or tie earlier than) the incumbent,
	// leaving the returned optimum bit-identical.
	sufMin []float64

	// pref, when non-nil, names a preferred device index per node position
	// that search tries before the plain increasing-index scan (warm
	// start). nil for cold solves, whose device order is unchanged.
	pref []int

	loads  []resource.Vector
	pairTP [][]float64 // symmetric cumulative cut throughput

	// savedLoad[i] and savedTP[i] snapshot the placed device's load vector
	// and pairTP row before node i is placed, so backtracking restores the
	// exact prior bits. Add-then-subtract backtracking is not exact in
	// floating point ((x+r)−r may differ from x), and any drift would make
	// a feasibility comparison depend on which subtrees were visited
	// before it — so a cold and a warm search, which visit in different
	// orders, could disagree on the same partial assignment.
	savedLoad []resource.Vector
	savedTP   [][]float64

	assign     []int
	best       float64
	bestAssign []int

	// trajectory records the incumbent costs in the order this searcher
	// found them (bounded to TrajectoryCap, oldest dropped) — the bound
	// trajectory reported via SearchStats.
	trajectory []float64

	// Search counters (observability only — they never influence the
	// search, so determinism of the result is untouched). explored counts
	// successful placements inside search, prunedN bound cut-offs, and
	// incumbents best-so-far updates.
	explored   int64
	prunedN    int64
	incumbents int64
}

// newOBBState builds a fresh search state for a validated problem: the
// dense view over the given node order (nil means big-first, for pruning
// strength; the warm start passes a still-valid-placements-first
// permutation), and empty device loads and reservations. Every order
// yields a correct optimum, only the tie-break among equal-cost optima
// moves.
func newOBBState(p *Problem, order []*graph.Node) *obbState {
	s := &obbState{
		dense: newDense(p, order),
		p:     p,
		m:     p.Weights.Dims(),
		best:  math.Inf(1),
	}
	s.loads = make([]resource.Vector, s.k)
	s.pairTP = make([][]float64, s.k)
	for i := range s.loads {
		s.loads[i] = resource.New(s.m)
		s.pairTP[i] = make([]float64, s.k)
	}
	s.assign = make([]int, len(s.nodes))
	for i := range s.assign {
		s.assign[i] = -1
	}
	s.savedLoad = make([]resource.Vector, len(s.nodes))
	s.savedTP = make([][]float64, len(s.nodes))
	for i := range s.nodes {
		s.savedLoad[i] = resource.New(s.m)
		s.savedTP[i] = make([]float64, len(p.Devices))
	}

	// netFloor[i] is an admissible lower bound on the network cost that
	// first becomes payable when node i is placed: every edge whose two
	// endpoints cannot colocate on any device (pins and static capacity
	// considered, devices taken empty) must cross some link, and the
	// cheapest it can ever be is its throughput over the best bandwidth a
	// pin-compatible device pair offers. The bound is charged to the
	// later-ordered endpoint — exactly where tryPlace pays the real cost —
	// so partial cost plus suffix never double-counts an edge.
	fits := func(n *graph.Node, d int) bool {
		avail := p.Devices[d].Avail
		for dim := 0; dim < s.m; dim++ {
			if n.Resources[dim] > avail[dim] {
				return false
			}
		}
		return true
	}
	wNet := p.Weights.Network()
	netFloor := make([]float64, len(s.nodes))
	p.Graph.EachEdge(func(fpos, tpos int, tp float64) {
		if tp <= 0 {
			return
		}
		fi, ti := s.rank[fpos], s.rank[tpos]
		from, to := s.nodes[fi], s.nodes[ti]
		colocatable := false
		for d := range p.Devices {
			if s.pin[fi] >= 0 && s.pin[fi] != d {
				continue
			}
			if s.pin[ti] >= 0 && s.pin[ti] != d {
				continue
			}
			avail := p.Devices[d].Avail
			ok := true
			for dim := 0; dim < s.m; dim++ {
				if from.Resources[dim]+to.Resources[dim] > avail[dim] {
					ok = false
					break
				}
			}
			if ok {
				colocatable = true
				break
			}
		}
		if colocatable {
			return
		}
		// The edge must cross: find the best bandwidth any compatible
		// device pair offers.
		maxBW := 0.0
		for d1 := range p.Devices {
			if s.pin[fi] >= 0 && s.pin[fi] != d1 {
				continue
			}
			if !fits(from, d1) {
				continue
			}
			for d2 := range p.Devices {
				if d1 == d2 {
					continue
				}
				if s.pin[ti] >= 0 && s.pin[ti] != d2 {
					continue
				}
				if !fits(to, d2) {
					continue
				}
				if b := s.bw[d1*s.k+d2]; b > maxBW {
					maxBW = b
				}
			}
		}
		if maxBW > 0 {
			late := fi
			if ti > fi {
				late = ti
			}
			netFloor[late] += wNet * tp / maxBW
		}
	})

	// Suffix lower bound: for each node, the cheapest end-system cost any
	// device it could ever land on (statically fitting an empty device,
	// pin respected) would charge, plus the node's forced-crossing network
	// floor. A node no device can hold makes the whole suffix +Inf, which
	// prunes the root immediately — correct, since no feasible completion
	// exists.
	s.sufMin = make([]float64, len(s.nodes)+1)
	wEnd := p.Weights.EndSystem()
	for i := len(s.nodes) - 1; i >= 0; i-- {
		n := s.nodes[i]
		minLoad := math.Inf(1)
		for d := range p.Devices {
			if s.pin[i] >= 0 && s.pin[i] != d {
				continue
			}
			if !fits(n, d) {
				continue
			}
			if l := n.Resources.RelativeLoad(p.Devices[d].Avail, wEnd); l < minLoad {
				minLoad = l
			}
		}
		s.sufMin[i] = minLoad + netFloor[i] + s.sufMin[i+1]
	}
	return s
}

// result converts the best complete assignment found back to node IDs.
func (s *obbState) result() (Assignment, float64, error) {
	if s.bestAssign == nil {
		return nil, 0, ErrInfeasible
	}
	out := make(Assignment, len(s.nodes))
	for i, n := range s.nodes {
		out[n.ID] = s.bestAssign[i]
	}
	return out, s.best, nil
}

// tryPlace puts node i on device d if the placement stays feasible,
// returning the incremental cost: the component's weighted relative load
// plus the network term of every edge to an already-assigned neighbor on
// another device. Bandwidth feasibility is checked as the reservations
// accumulate; on failure every reservation applied so far is rolled back
// and ok is false.
func (s *obbState) tryPlace(i, d int) (delta float64, ok bool) {
	n := s.nodes[i]
	avail := s.p.Devices[d].Avail
	for dim := 0; dim < s.m; dim++ {
		if s.loads[d][dim]+n.Resources[dim] > avail[dim] {
			return 0, false
		}
	}
	copy(s.savedLoad[i], s.loads[d])
	copy(s.savedTP[i], s.pairTP[d])
	delta = n.Resources.RelativeLoad(avail, s.p.Weights.EndSystem())
	wNet, bw := s.p.Weights.Network(), s.bw[d*s.k:]
	for _, e := range s.edgesOf(i) {
		od := s.assign[e.other]
		if od < 0 || od == d {
			continue
		}
		if bw[od] <= 0 || s.pairTP[d][od]+e.tp > bw[od] {
			s.restoreTP(i, d)
			return 0, false
		}
		delta += wNet * e.tp / bw[od]
		s.pairTP[d][od] += e.tp
		s.pairTP[od][d] += e.tp
	}
	s.loads[d].AddInPlace(n.Resources)
	s.assign[i] = d
	return delta, true
}

// restoreTP puts device d's reservation row (and its mirror column) back
// to the snapshot taken when node i was being placed.
func (s *obbState) restoreTP(i, d int) {
	for j, v := range s.savedTP[i] {
		s.pairTP[d][j] = v
		s.pairTP[j][d] = v
	}
}

// unplace reverses tryPlace by restoring the snapshots bit-exactly.
func (s *obbState) unplace(i, d int) {
	s.assign[i] = -1
	copy(s.loads[d], s.savedLoad[i])
	s.restoreTP(i, d)
}

// search assigns nodes i.. depth-first, device indices in increasing
// order (a warm-start preferred device, when set, jumps the queue), with
// accumulated partial cost.
func (s *obbState) search(i int, cost float64) {
	// Both cost terms are nonnegative and additive, so partial cost plus
	// the admissible suffix bound never exceeds any completion's cost and
	// pruning on it is safe. The comparison is ≥: an equal-cost leaf later
	// in DFS order can never win the tie-break.
	if cost+s.sufMin[i] >= s.best {
		s.prunedN++
		return
	}
	if i == len(s.nodes) {
		s.best = cost
		s.bestAssign = append(s.bestAssign[:0], s.assign...)
		s.incumbents++
		if len(s.trajectory) == TrajectoryCap {
			copy(s.trajectory, s.trajectory[1:])
			s.trajectory[len(s.trajectory)-1] = cost
		} else {
			s.trajectory = append(s.trajectory, cost)
		}
		return
	}
	pref := -1
	if s.pref != nil {
		pref = s.pref[i]
	}
	if pref >= 0 && (s.pin[i] < 0 || s.pin[i] == pref) {
		if delta, ok := s.tryPlace(i, pref); ok {
			s.explored++
			s.search(i+1, cost+delta)
			s.unplace(i, pref)
		}
	}
	for d := range s.p.Devices {
		if d == pref {
			continue
		}
		if s.pin[i] >= 0 && s.pin[i] != d {
			continue
		}
		if delta, ok := s.tryPlace(i, d); ok {
			s.explored++
			s.search(i+1, cost+delta)
			s.unplace(i, d)
		}
	}
}
