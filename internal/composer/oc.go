package composer

import (
	"fmt"
	"maps"
	"math"

	"ubiqos/internal/explain"
	"ubiqos/internal/graph"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/trace"
)

// Well-known service types the Ordered Coordination algorithm discovers
// when splicing corrective components into the graph.
const (
	// TypeTranscoder converts one symbolic dimension value to another; a
	// transcoder instance declares attributes "from" and "to" naming the
	// conversion (e.g. from=MP3 to=WAV).
	TypeTranscoder = "transcoder"
	// TypeBuffer paces a too-fast producer down to the consumer's accepted
	// rate (and absorbs jitter); it accepts any input rate at or above the
	// target.
	TypeBuffer = "buffer"
)

// CheckOrder selects the direction the consistency check walks the
// topological order.
type CheckOrder int

// Check orders.
const (
	// OrderReverseTopological is the paper's order: the sinks — the client
	// services carrying the user's QoS requirements — are examined first,
	// so their QoS is preserved and corrections cascade upstream through
	// pass-through dimensions.
	OrderReverseTopological CheckOrder = iota
	// OrderForwardTopological is the ablation baseline: sources first.
	// Upstream operating points are committed before downstream
	// requirements have propagated, so cascading corrections arrive too
	// late and otherwise-composable graphs fail the final verification.
	OrderForwardTopological
)

// SetCheckOrder overrides the consistency-check direction (default: the
// paper's reverse topological order). Intended for the design-choice
// ablation; production composition should keep the default.
func (c *Composer) SetCheckOrder(o CheckOrder) { c.checkOrder = o }

// coordinate runs the Ordered Coordination (OC) algorithm on the
// instantiated service graph (paper §3.2, Figure 1):
//
//  1. topologically sort the graph;
//  2. in the reverse order of the topological sorting, check the QoS
//     consistency between each node and its predecessors with the
//     "satisfy" relation;
//  3. on inconsistency, automatically correct it by adjusting a
//     configurable predecessor output (propagating the adjustment to the
//     predecessor's input requirements), inserting a transcoder for type
//     mismatches, or inserting a buffer component for performance
//     mismatches.
//
// Checking in reverse topological order means the first examined nodes are
// the sinks — the client services carrying the user's QoS requirements —
// so their QoS is preserved while upstream components adapt.
func (c *Composer) coordinate(g *graph.Graph, report *Report, sp *trace.Span, exp *explain.Record) error {
	order, err := g.TopoSort()
	if err != nil {
		return err
	}
	// Reverse the topological order into a worklist (unless the ablation
	// forward order is selected). Corrective components spliced in during
	// the walk are queued immediately after the current position: in the
	// default order all their successors have already been examined, which
	// preserves the reverse-topological invariant.
	work := make([]graph.NodeID, len(order))
	for i, id := range order {
		if c.checkOrder == OrderForwardTopological {
			work[i] = id
		} else {
			work[len(order)-1-i] = id
		}
	}
	// in holds the current node's incoming edges, one buffer for the walk.
	var in []graph.Edge
	for i := 0; i < len(work); i++ {
		cur, _ := g.Position(work[i])
		// Snapshot the incoming edges: corrections splice nodes onto them.
		in = g.AppendIn(in[:0], cur)
		for _, e := range in {
			inserted, err := c.checkEdge(g, e, report, sp, exp)
			if err != nil {
				return err
			}
			if len(inserted) > 0 {
				rest := append([]graph.NodeID(nil), work[i+1:]...)
				work = append(append(work[:i+1], inserted...), rest...)
			}
		}
	}
	// Safety net: verify the whole graph is now QoS-consistent, stopping
	// at the first inconsistent edge.
	nodes := g.Nodes()
	var inconsistent error
	g.EachEdge(func(from, to int, _ float64) {
		if inconsistent != nil {
			return
		}
		report.Checks++
		p, n := nodes[from], nodes[to]
		if err := qos.Check(string(p.ID), string(n.ID), p.Out, n.In); err != nil {
			inconsistent = fmt.Errorf("composer: ordered coordination left an inconsistency: %w", err)
		}
	})
	return inconsistent
}

// checkEdge checks one producer→consumer edge and applies automatic
// corrections. It returns the IDs of any corrective nodes spliced onto the
// edge, which the caller must examine next.
//
// Corrections are applied one at a time, re-evaluating the (possibly
// re-routed) direct edge after each: a splice fills in every dimension the
// consumer requires, so residual inconsistencies migrate to the new
// upstream edge and are handled when the spliced node is examined.
func (c *Composer) checkEdge(g *graph.Graph, e graph.Edge, report *Report, sp *trace.Span, exp *explain.Record) ([]graph.NodeID, error) {
	cons := g.Node(e.To)
	var inserted []graph.NodeID
	// Each iteration resolves at least one mismatched dimension of the
	// current direct edge, and a splice leaves the direct edge consistent
	// by construction, so Dim(cons.In)+1 rounds always suffice.
	for round := 0; ; round++ {
		from := e.From
		if len(inserted) > 0 {
			from = inserted[len(inserted)-1]
		}
		pred := g.Node(from)
		report.Checks++
		ms := qos.Mismatches(pred.Out, cons.In)
		if len(ms) == 0 {
			return inserted, nil
		}
		if round > cons.In.Dim() {
			return inserted, fmt.Errorf("composer: corrections on %s -> %s do not converge: %w", from, cons.ID, ms[0])
		}
		m := ms[0]
		// Snapshot the producer's vector so the provenance record can show
		// exactly what the correction changed.
		var beforeQoS string
		if exp != nil {
			beforeQoS = pred.Out.String()
		}
		// First preference: adjust the predecessor's configurable output
		// (and, for pass-through dimensions, its input requirement, so the
		// adjustment cascades upstream when the predecessor is examined).
		if adj, ok := c.adjustOutput(g, pred.ID, m.Name, m.Required); ok {
			report.Adjustments = append(report.Adjustments, adj)
			sp.Child("correction",
				trace.String("kind", "qos-adjustment"),
				trace.String("node", string(adj.Node)),
				trace.String("dim", adj.Dim),
				trace.String("from", adj.From),
				trace.String("to", adj.To)).End()
			if exp != nil {
				exp.AddCorrection(explain.Correction{
					Rule: "adjust", Node: string(adj.Node), Dim: adj.Dim,
					From: adj.From, To: adj.To,
					BeforeQoS: beforeQoS, AfterQoS: pred.Out.String(),
				})
			}
			continue
		}
		switch m.Kind {
		case qos.MismatchFormat:
			id, err := c.insertTranscoder(g, from, e.To, m, report)
			if err != nil {
				return inserted, err
			}
			inserted = append(inserted, id)
			sp.Child("correction",
				trace.String("kind", "transcoder"),
				trace.String("node", string(id)),
				trace.String("dim", m.Name),
				trace.String("edge", string(from)+"->"+string(e.To))).End()
			if exp != nil {
				exp.AddCorrection(explain.Correction{
					Rule: "transcoder", Node: string(id), Dim: m.Name,
					Edge: string(from) + "->" + string(e.To),
					From: m.Offered.String(), To: m.Required.String(),
					BeforeQoS: beforeQoS, AfterQoS: g.Node(id).Out.String(),
				})
			}
		case qos.MismatchPerformance:
			id, err := c.insertBuffer(g, from, e.To, m, report)
			if err != nil {
				return inserted, err
			}
			inserted = append(inserted, id)
			sp.Child("correction",
				trace.String("kind", "buffer"),
				trace.String("node", string(id)),
				trace.String("dim", m.Name),
				trace.String("edge", string(from)+"->"+string(e.To))).End()
			if exp != nil {
				exp.AddCorrection(explain.Correction{
					Rule: "buffer", Node: string(id), Dim: m.Name,
					Edge: string(from) + "->" + string(e.To),
					From: m.Offered.String(), To: m.Required.String(),
					BeforeQoS: beforeQoS, AfterQoS: g.Node(id).Out.String(),
				})
			}
		default:
			return inserted, fmt.Errorf("composer: cannot correct %s -> %s: %w", pred.ID, cons.ID, m)
		}
	}
}

// adjustOutput re-configures the predecessor's output dimension to a value
// inside its capability that satisfies every successor requiring that
// dimension. Intersecting over all successors keeps previously examined
// edges consistent.
func (c *Composer) adjustOutput(g *graph.Graph, predID graph.NodeID, dim string, required qos.Value) (Adjustment, bool) {
	pred := g.Node(predID)
	if !pred.Adjustable[dim] {
		return Adjustment{}, false
	}
	capability, ok := pred.OutCapability.Get(dim)
	if !ok {
		return Adjustment{}, false
	}
	constraint := capability
	for _, e := range g.Out(predID) {
		succ := g.Node(e.To)
		req, ok := succ.In.Get(dim)
		if !ok {
			continue
		}
		constraint, ok = constraint.Intersect(req)
		if !ok {
			return Adjustment{}, false
		}
	}
	// Also honor the triggering requirement (the consumer may be reached
	// through a spliced node rather than a direct edge).
	constraint, ok = constraint.Intersect(required)
	if !ok {
		return Adjustment{}, false
	}
	picked := constraint.Pick()
	before, _ := pred.Out.Get(dim)
	pred.Out = pred.Out.With(dim, picked)
	if pred.PassThrough[dim] {
		// The component forwards this dimension unchanged, so its own
		// input must now arrive at the picked operating point; the
		// predecessor's predecessors adapt when they are examined.
		pred.In = pred.In.With(dim, picked)
	}
	return Adjustment{Node: predID, Dim: dim, From: before.String(), To: picked.String()}, true
}

// insertTranscoder discovers a transcoder converting the offered symbolic
// value to one the consumer accepts and splices it onto the edge.
func (c *Composer) insertTranscoder(g *graph.Graph, from, to graph.NodeID, m qos.Mismatch, report *Report) (graph.NodeID, error) {
	var sources []string
	switch m.Offered.Kind {
	case qos.KindSymbol:
		sources = []string{m.Offered.Sym}
	case qos.KindSet:
		sources = m.Offered.Syms
	default:
		return "", fmt.Errorf("composer: %s -> %s: cannot transcode non-symbolic offer: %w", from, to, m)
	}
	var targets []string
	switch m.Required.Kind {
	case qos.KindSymbol:
		targets = []string{m.Required.Sym}
	case qos.KindSet:
		targets = m.Required.Syms
	default:
		return "", fmt.Errorf("composer: %s -> %s: cannot transcode to non-symbolic requirement: %w", from, to, m)
	}
	for _, src := range sources {
		for _, dst := range targets {
			inst := c.reg.Best(registry.Spec{Type: TypeTranscoder, Attrs: map[string]string{"from": src, "to": dst}})
			if inst == nil {
				continue
			}
			id := graph.NodeID(fmt.Sprintf("tc%d:%s-%s", len(report.Transcoders), src, dst))
			node := c.spliceNode(g, id, from, to, inst, m.Name, qos.Symbol(src), qos.Symbol(dst))
			if err := g.InsertOnEdge(from, to, node, -1, -1); err != nil {
				return "", err
			}
			report.Transcoders = append(report.Transcoders, id)
			return id, nil
		}
	}
	return "", fmt.Errorf("composer: %s -> %s: no transcoder available for %s: %w", from, to, m.Name, m)
}

// insertBuffer splices a buffer component that paces a too-fast producer
// down to the consumer's accepted rate. A buffer cannot create data, so a
// producer slower than the consumer's minimum is uncorrectable.
func (c *Composer) insertBuffer(g *graph.Graph, from, to graph.NodeID, m qos.Mismatch, report *Report) (graph.NodeID, error) {
	offered := m.Offered.Pick()
	if offered.Kind != qos.KindScalar {
		return "", fmt.Errorf("composer: %s -> %s: cannot buffer non-numeric dimension %s: %w", from, to, m.Name, m)
	}
	lo, hi, ok := numericBounds(m.Required)
	if !ok {
		return "", fmt.Errorf("composer: %s -> %s: cannot buffer toward non-numeric requirement: %w", from, to, m)
	}
	if offered.Num < lo {
		return "", fmt.Errorf("composer: %s -> %s: producer too slow for %s (%.3g < %.3g), buffer cannot help: %w",
			from, to, m.Name, offered.Num, lo, m)
	}
	inst := c.reg.Best(registry.Spec{Type: TypeBuffer})
	if inst == nil {
		return "", fmt.Errorf("composer: %s -> %s: no buffer component available: %w", from, to, m)
	}
	out := math.Min(offered.Num, hi)
	id := graph.NodeID(fmt.Sprintf("buf%d:%s", len(report.Buffers), m.Name))
	node := c.spliceNode(g, id, from, to, inst, m.Name, m.Offered, qos.Scalar(out))
	if err := g.InsertOnEdge(from, to, node, -1, -1); err != nil {
		return "", err
	}
	report.Buffers = append(report.Buffers, id)
	return id, nil
}

// spliceNode builds a corrective node from a discovered instance: the fixed
// dimension gets the given input/output values, and every other dimension
// the consumer requires is treated as pass-through — the corrective node
// emits a value satisfying the consumer and requires the same of its
// upstream, so remaining inconsistencies cascade to the producer when the
// spliced node is examined.
func (c *Composer) spliceNode(g *graph.Graph, id graph.NodeID, from, to graph.NodeID, inst *registry.Instance, fixDim string, inVal, outVal qos.Value) *graph.Node {
	pred := g.Node(from)
	cons := g.Node(to)
	node := &graph.Node{
		ID:          id,
		Type:        inst.Type,
		Instance:    inst.Name,
		In:          inst.Input.With(fixDim, inVal),
		Out:         inst.Output.With(fixDim, outVal),
		Resources:   inst.Resources,
		SizeMB:      inst.SizeMB,
		Adjustable:  inst.Adjustable,
		PassThrough: inst.PassThrough,
	}
	// ownPass tells whether node.PassThrough is a clone of the instance's
	// map yet: the first pass-through dimension makes one, since the
	// instance's is the registry's.
	ownPass := false
	for _, req := range cons.In {
		if req.Name == fixDim {
			continue
		}
		var out qos.Value
		if offered, ok := pred.Out.Get(req.Name); ok {
			if iv, ok := offered.Intersect(req.Value); ok {
				// Producer already satisfies the consumer here: forward it.
				out = iv.Pick()
			} else {
				// Forward a value the consumer accepts; the producer-side
				// mismatch resurfaces on the new upstream edge.
				out = req.Value.Pick()
			}
		} else {
			out = req.Value.Pick()
		}
		node.Out = node.Out.With(req.Name, out)
		if !ownPass {
			node.PassThrough = maps.Clone(node.PassThrough)
			if node.PassThrough == nil {
				node.PassThrough = make(map[string]bool)
			}
			ownPass = true
		}
		node.PassThrough[req.Name] = true
		node.In = node.In.With(req.Name, out)
	}
	return node
}

func numericBounds(v qos.Value) (lo, hi float64, ok bool) {
	switch v.Kind {
	case qos.KindScalar:
		return v.Num, v.Num, true
	case qos.KindRange:
		return v.Lo, v.Hi, true
	default:
		return 0, 0, false
	}
}
