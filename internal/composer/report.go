package composer

import (
	"fmt"
	"strings"

	"ubiqos/internal/graph"
)

// Adjustment records one automatic output-QoS correction performed by the
// Ordered Coordination algorithm.
type Adjustment struct {
	// Node is the predecessor whose output was re-configured.
	Node graph.NodeID
	// Dim is the adjusted QoS dimension.
	Dim string
	// From and To render the value before and after the adjustment.
	From, To string
}

// Report describes what one Compose call did, for logging and for the
// overhead instrumentation of the experiment harnesses.
type Report struct {
	// Discovered maps each instantiated node to the discovered instance
	// name.
	Discovered map[graph.NodeID]string
	// Skipped lists optional services discovery failed for, which were
	// neglected.
	Skipped []graph.NodeID
	// Expanded maps abstract nodes replaced by recursive composition to
	// the missing service type.
	Expanded map[graph.NodeID]string
	// Adjustments lists the output-QoS corrections applied.
	Adjustments []Adjustment
	// Transcoders lists the transcoder nodes inserted to fix format
	// mismatches.
	Transcoders []graph.NodeID
	// Buffers lists the buffer nodes inserted to alleviate performance
	// mismatches.
	Buffers []graph.NodeID
	// Checks counts the pairwise consistency checks performed.
	Checks int
	// DiscoveryAttempts counts per-node discovery lookups (including
	// nodes inside recursively composed replacements); DiscoveryFailures
	// the subset that found no instance — whether later repaired by
	// skipping an optional node or recursing, or terminally missing.
	DiscoveryAttempts int
	DiscoveryFailures int
}

// newReport returns an empty report with room for n discovered nodes.
func newReport(n int) *Report {
	return &Report{
		Discovered: make(map[graph.NodeID]string, n),
		Expanded:   make(map[graph.NodeID]string),
	}
}

// Summary renders a one-line human-readable digest.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d services discovered", len(r.Discovered))
	if len(r.Skipped) > 0 {
		fmt.Fprintf(&b, ", %d optional skipped", len(r.Skipped))
	}
	if len(r.Expanded) > 0 {
		fmt.Fprintf(&b, ", %d recursively composed", len(r.Expanded))
	}
	if len(r.Adjustments) > 0 {
		fmt.Fprintf(&b, ", %d QoS adjustments", len(r.Adjustments))
	}
	if len(r.Transcoders) > 0 {
		fmt.Fprintf(&b, ", %d transcoders inserted", len(r.Transcoders))
	}
	if len(r.Buffers) > 0 {
		fmt.Fprintf(&b, ", %d buffers inserted", len(r.Buffers))
	}
	fmt.Fprintf(&b, " (%d checks)", r.Checks)
	return b.String()
}
