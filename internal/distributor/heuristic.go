package distributor

import (
	"cmp"
	"slices"

	"ubiqos/internal/obslog"
	"ubiqos/internal/resource"
	"ubiqos/internal/trace"
)

// Heuristic runs the paper's polynomial greedy algorithm (§3.3):
//
//  1. insert the service components that cannot be instantiated
//     arbitrarily (pinned components) into their proper devices;
//  2. repeatedly sort the k available devices in decreasing order of their
//     (weighted) remaining resource availability and insert the next
//     chosen component into the head device — the device that currently
//     has the largest availability. If the head device already hosts a
//     component A, the next chosen component is A's unassigned neighbor
//     with the largest weighted resource requirement (merging it with A
//     keeps their edge off the cut); if the head device is empty, the next
//     chosen component is the unassigned component with the largest
//     weighted requirement overall;
//  3. repeat until every component is placed.
//
// When the chosen component does not fit on the head device, the algorithm
// tries the remaining devices in decreasing availability order; if it fits
// nowhere the instance is infeasible for this heuristic. The final
// assignment is verified against the full fit-into constraints (including
// link bandwidth).
func Heuristic(p *Problem) (asg Assignment, cost float64, err error) {
	if err := p.Validate(); err != nil {
		return nil, 0, err
	}
	sp := p.Span.Child("greedy-placement")
	defer sp.End()
	var placements, fallbacks int64
	defer func() {
		sp.Set(trace.Int("placements", placements), trace.Int("fallbacks", fallbacks))
		if p.Stats != nil {
			*p.Stats = SearchStats{Algorithm: "heuristic",
				Explored: placements, Pruned: fallbacks}
			if err == nil {
				// The greedy walk commits a single solution; its cost is the
				// whole bound trajectory.
				p.Stats.BoundTrajectory = []float64{cost}
			}
		}
		p.Log.Debug("greedy placement done",
			obslog.Int("placements", placements), obslog.Int("fallbacks", fallbacks))
	}()

	// The view is built big-first, so a node's index is its rank under the
	// selection rule (largest weighted requirement, then smallest ID):
	// "the largest unassigned ..." is always the smallest unassigned index.
	d := newDense(p, nil)
	n, k, m := len(d.nodes), d.k, p.Weights.Dims()
	wEnd := p.Weights.EndSystem()

	// remaining holds the k devices' remaining availability, m values each.
	remaining := make([]float64, k*m)
	rem := func(di int) resource.Vector { return remaining[di*m : (di+1)*m] }
	for di, dev := range p.Devices {
		copy(rem(di), dev.Avail)
	}

	// assign[i] is node i's device or -1; near[di*n+i] marks node i as
	// adjacent to some occupant of device di.
	assign, near := make([]int, n), make([]bool, k*n)
	a := make(Assignment, n)
	place := func(i, di int) {
		assign[i] = di
		a[d.nodes[i].ID] = di
		r := rem(di)
		for dim, need := range d.nodes[i].Resources {
			r[dim] = max(r[dim]-need, 0)
		}
		for _, e := range d.edgesOf(i) {
			near[di*n+int(e.other)] = true
		}
	}
	for i, di := range d.pin {
		assign[i] = -1
		if di >= 0 {
			place(i, di)
		}
	}

	weight, devOrder := make([]float64, k), make([]int, k)
	for cursor := 0; ; { // every index below cursor is assigned
		for cursor < n && assign[cursor] >= 0 {
			cursor++
		}
		if cursor == n {
			break
		}

		// Sort devices by decreasing weighted remaining availability.
		for di := range devOrder {
			devOrder[di], weight[di] = di, rem(di).WeightedSum(wEnd)
		}
		slices.SortFunc(devOrder, func(x, y int) int {
			if c := cmp.Compare(weight[y], weight[x]); c != 0 {
				return c
			}
			return x - y
		})

		// The next component is the largest unassigned neighbor of the head
		// device's occupants (merging it with them keeps their edge off the
		// cut), or the largest unassigned component overall when the head
		// is empty or has no such neighbor.
		chosen, headNear := cursor, near[devOrder[0]*n:][:n]
		for i := cursor; i < n; i++ {
			if headNear[i] && assign[i] < 0 {
				chosen = i
				break
			}
		}

		// Insert into the head device, falling back down the sorted list
		// when the component does not fit.
		oi := slices.IndexFunc(devOrder, func(di int) bool {
			return d.nodes[chosen].Resources.LessEq(rem(di))
		})
		if oi < 0 {
			return nil, 0, ErrInfeasible
		}
		place(chosen, devOrder[oi])
		placements++
		if oi > 0 {
			fallbacks++
		}
	}

	if err := p.FitInto(a); err != nil {
		return nil, 0, err
	}
	return a, p.CostAggregation(a), nil
}
