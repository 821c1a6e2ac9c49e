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
// the first optimum its depth-first search reaches. OptimalParallel
// preserves this tie-break exactly.
func Optimal(p *Problem) (Assignment, float64, error) {
	s, err := newOBBState(p)
	if err != nil {
		return nil, 0, err
	}
	sp := p.Span.Child("branch-and-bound")
	s.search(0, 0)
	w := s.counters(0, 1)
	sp.Set(trace.Int("explored", w.Explored), trace.Int("pruned", w.Pruned),
		trace.Int("incumbents", w.Incumbents))
	sp.End()
	p.Log.Debug("branch-and-bound solved",
		obslog.Int("explored", w.Explored), obslog.Int("pruned", w.Pruned),
		obslog.Int("incumbents", w.Incumbents))
	if p.Stats != nil {
		*p.Stats = SearchStats{
			Algorithm:       "optimal",
			Workers:         1,
			Explored:        w.Explored,
			Pruned:          w.Pruned,
			Incumbents:      w.Incumbents,
			BoundTrajectory: append([]float64(nil), s.trajectory...),
			RunnerUp:        runnerUp(s.trajectory),
		}
	}
	return s.result()
}

// runnerUp returns the second-to-last incumbent cost of a chronological
// trajectory — the best complete solution the winner displaced.
func runnerUp(trajectory []float64) float64 {
	if len(trajectory) < 2 {
		return 0
	}
	return trajectory[len(trajectory)-2]
}

// obbState is one branch-and-bound search context. The first block of
// fields is immutable problem structure shared (read-only) between the
// sequential solver and every parallel worker; the second block is the
// per-searcher mutable state that clone() copies.
type obbState struct {
	*dense
	p *Problem
	m int

	// sufMin[i] is an admissible lower bound on the cost still to be paid
	// by nodes i..: the sum over those nodes of the cheapest end-system
	// term any statically-fitting (and pin-compatible) device offers. The
	// network term is nonnegative, so partial cost + sufMin[i] never
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
	// a sequential search and a parallel worker replaying the same prefix
	// disagree on feasibility comparisons.
	savedLoad []resource.Vector
	savedTP   [][]float64

	assign     []int
	best       float64
	bestAssign []int

	// trajectory records the incumbent costs in the order this searcher
	// found them (bounded to TrajectoryCap, oldest dropped) — the bound
	// trajectory reported via SearchStats.
	trajectory []float64

	// global, when non-nil, is the incumbent best cost shared by all
	// parallel workers; searchers additionally prune against it (strictly,
	// so equal-cost optima in lexicographically earlier subtrees survive
	// for the deterministic reduce).
	global *sharedBound

	// Search counters (observability only — they never influence the
	// search, so determinism of the result is untouched). explored counts
	// successful placements inside search, prunedN bound cut-offs, and
	// incumbents best-so-far updates.
	explored   int64
	prunedN    int64
	incumbents int64
}

// newOBBState validates the problem and builds a fresh search state: the
// dense view with nodes sorted big-first for pruning strength, and empty
// device loads/reservations.
func newOBBState(p *Problem) (*obbState, error) {
	return newOBBStateOrdered(p, nil)
}

// newOBBStateOrdered is newOBBState with an explicit node order (nil means
// the default big-first order). The warm-start solver passes a
// still-valid-placements-first permutation; every order yields a correct
// optimum, only the tie-break among equal-cost optima moves.
func newOBBStateOrdered(p *Problem, order []*graph.Node) (*obbState, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
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

	// netFloor[i] (opt-in via Problem.NetworkFloor) is an admissible
	// lower bound on the network cost that first becomes payable when
	// node i is placed: every edge whose two endpoints cannot colocate on
	// any device (pins and static capacity considered, devices taken
	// empty) must cross some link, and the cheapest it can ever be is its
	// throughput over the best bandwidth a pin-compatible device pair
	// offers. The bound is charged to the later-ordered endpoint —
	// exactly where tryPlace pays the real cost — so partial cost plus
	// suffix never double-counts an edge.
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
	for _, e := range p.Graph.Edges() {
		if !p.NetworkFloor {
			break
		}
		if e.ThroughputMbps <= 0 {
			continue
		}
		fi, ti := s.index[e.From], s.index[e.To]
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
			continue
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
			netFloor[late] += wNet * e.ThroughputMbps / maxBW
		}
	}

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
	return s, nil
}

// clone copies the mutable search state (loads, reservations, partial
// assignment, snapshot scratch) and shares the immutable problem
// structure, giving each parallel worker an independent searcher. It must
// be called on a root state (nothing placed), since the snapshot stacks of
// a mid-search state only make sense for that searcher's own prefix.
func (s *obbState) clone() *obbState {
	c := *s
	c.loads = make([]resource.Vector, len(s.loads))
	for i := range s.loads {
		c.loads[i] = s.loads[i].Clone()
	}
	c.pairTP = make([][]float64, len(s.pairTP))
	for i := range s.pairTP {
		c.pairTP[i] = append([]float64(nil), s.pairTP[i]...)
	}
	c.assign = append([]int(nil), s.assign...)
	c.savedLoad = make([]resource.Vector, len(s.nodes))
	c.savedTP = make([][]float64, len(s.nodes))
	for i := range s.nodes {
		c.savedLoad[i] = resource.New(s.m)
		c.savedTP[i] = make([]float64, len(s.p.Devices))
	}
	c.bestAssign = nil
	c.best = math.Inf(1)
	c.trajectory = nil
	return &c
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

// pruned reports whether a partial path with the given completion lower
// bound (accumulated cost plus the admissible suffix bound) cannot improve
// on the best known solution. Both cost terms are nonnegative and
// additive, so the bound never exceeds any completion's cost and pruning
// is safe. Against the searcher's own best the comparison is ≥ (an
// equal-cost leaf later in DFS order can never win the tie-break); against
// the shared parallel incumbent it is strictly >, so that an equal-cost
// optimum in a lexicographically earlier subtree is still found and can
// win the deterministic reduce.
func (s *obbState) pruned(bound float64) bool {
	if bound >= s.best {
		return true
	}
	return s.global != nil && bound > s.global.load()
}

// search assigns nodes i.. depth-first, device indices in increasing
// order (a warm-start preferred device, when set, jumps the queue), with
// accumulated partial cost.
func (s *obbState) search(i int, cost float64) {
	if s.pruned(cost + s.sufMin[i]) {
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
		if s.global != nil {
			s.global.lower(cost)
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
