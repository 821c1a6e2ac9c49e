package distributor

// SearchStats reports how a Problem was solved. Solvers fill the struct
// pointed to by Problem.Stats (when non-nil) before returning.
type SearchStats struct {
	// Algorithm is "heuristic", "optimal", or "optimal-warm".
	Algorithm string `json:"algorithm"`
	// Explored counts successful node placements (search tree nodes
	// entered), Pruned subtrees cut off by the bound, and Incumbents
	// best-so-far updates. For the heuristic, Explored counts placements
	// and Pruned counts components that missed the head device and fell
	// down the availability order.
	Explored   int64 `json:"explored"`
	Pruned     int64 `json:"pruned"`
	Incumbents int64 `json:"incumbents"`
	// BoundTrajectory is the sequence of incumbent costs the search moved
	// through, in the order found, improving toward the returned optimum
	// (last entry). Bounded to TrajectoryCap entries (oldest dropped). The
	// heuristic records its single greedy cost.
	BoundTrajectory []float64 `json:"boundTrajectory,omitempty"`
	// RunnerUp is the cost of the best complete solution found that is
	// strictly worse than the winner — the margin the winner won by.
	// Zero when the search saw no second-best solution.
	RunnerUp float64 `json:"runnerUp,omitempty"`
	// Warm marks a warm-started solve; SeedCost is the incumbent cost the
	// search was seeded from, and Reused counts the components whose
	// previous placement was still valid and was fixed first in the
	// variable order.
	Warm     bool    `json:"warm,omitempty"`
	SeedCost float64 `json:"seedCost,omitempty"`
	Reused   int     `json:"reused,omitempty"`
}

// TrajectoryCap bounds BoundTrajectory: trajectories keep the newest
// (best) entries, dropping the oldest, so provenance records stay small
// on adversarial instances with many incumbent updates.
const TrajectoryCap = 64
