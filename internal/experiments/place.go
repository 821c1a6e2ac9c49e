package experiments

import (
	"fmt"

	"ubiqos/internal/core"
	"ubiqos/internal/distributor"
)

// PlaceByName resolves a solver name (the daemon's -place flag) to a
// placement function. The empty string and "heuristic" select the
// default greedy heuristic (a nil PlaceFunc).
func PlaceByName(name string) (core.PlaceFunc, error) {
	switch name {
	case "", "heuristic":
		return nil, nil
	case "optimal":
		return distributor.Optimal, nil
	}
	return nil, fmt.Errorf("experiments: unknown placement algorithm %q (want heuristic or optimal)", name)
}
