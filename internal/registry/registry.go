// Package registry implements the service discovery service the
// configuration model assumes (paper §3.1): a concurrency-safe catalog of
// the concrete service instances currently available in the environment,
// queried with abstract service descriptions and ranked by closeness to the
// description, the user's QoS requirements, and client device properties.
package registry

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"ubiqos/internal/qos"
	"ubiqos/internal/resource"
)

// Spec is an abstract service description: what the application developer
// writes in the abstract service graph. Components are "not explicitly
// named, but rather specified in an abstract manner".
type Spec struct {
	// Type is the abstract service type (e.g. "audio-player"). Matching is
	// exact and mandatory.
	Type string `json:"type"`
	// Attrs are required instance attributes (exact key/value matches),
	// e.g. {"platform": "pda"}.
	Attrs map[string]string `json:"attrs,omitempty"`
	// Input is the desired input QoS: what the surrounding graph will feed
	// this service. Instances that accept it score higher.
	Input qos.Vector `json:"input,omitempty"`
	// Output is the desired output QoS (often derived from the user's QoS
	// requirements). Instances whose output capability can produce it score
	// higher.
	Output qos.Vector `json:"output,omitempty"`
}

// Instance is a concrete service component discovered in the environment.
// Instances include "more detailed and specific information than their
// abstract descriptions".
type Instance struct {
	// Name uniquely identifies the instance within the registry.
	Name string `json:"name"`
	// Type is the service type the instance implements.
	Type string `json:"type"`
	// Attrs are descriptive properties (platform, vendor, codec, ...).
	Attrs map[string]string `json:"attrs,omitempty"`
	// Input is the QoS vector the instance requires of its predecessors
	// (Qin).
	Input qos.Vector `json:"input,omitempty"`
	// Output is the default output QoS vector (Qout).
	Output qos.Vector `json:"output,omitempty"`
	// OutCapability is the full configurable output capability; dimensions
	// listed in Adjustable may be re-tuned anywhere within it.
	OutCapability qos.Vector `json:"outCapability,omitempty"`
	// Adjustable marks dynamically configurable output dimensions.
	Adjustable map[string]bool `json:"adjustable,omitempty"`
	// PassThrough marks dimensions the instance forwards unchanged from
	// input to output.
	PassThrough map[string]bool `json:"passThrough,omitempty"`
	// Resources is the profiled end-system requirement vector R in
	// benchmark units.
	Resources resource.Vector `json:"resources,omitempty"`
	// SizeMB is the downloadable package size.
	SizeMB float64 `json:"sizeMB,omitempty"`
}

// Validate checks the instance is well-formed.
func (in *Instance) Validate() error {
	if in.Name == "" {
		return fmt.Errorf("registry: instance with empty name")
	}
	if in.Type == "" {
		return fmt.Errorf("registry: instance %q with empty type", in.Name)
	}
	for _, v := range []qos.Vector{in.Input, in.Output, in.OutCapability} {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("registry: instance %q: %w", in.Name, err)
		}
	}
	// Devices have [memory, cpu] capacity: an instance without both
	// dimensions would register but fail every distribution that places it.
	if len(in.Resources) != resource.Dims {
		return fmt.Errorf("registry: instance %q needs resources [memory, cpu]", in.Name)
	}
	if err := in.Resources.Validate(); err != nil {
		return fmt.Errorf("registry: instance %q: %w", in.Name, err)
	}
	if in.SizeMB < 0 {
		return fmt.Errorf("registry: instance %q has negative size", in.Name)
	}
	return nil
}

// Capability returns the effective output capability: OutCapability where
// present, falling back to the fixed Output values.
func (in *Instance) Capability() qos.Vector {
	return in.Output.Merge(in.OutCapability)
}

// clone returns a deep copy of the instance: nothing it shares with the
// original can be written through either.
func (in *Instance) clone() *Instance {
	c := *in
	c.Attrs = maps.Clone(in.Attrs)
	c.Input = in.Input.Clone()
	c.Output = in.Output.Clone()
	c.OutCapability = in.OutCapability.Clone()
	c.Adjustable = maps.Clone(in.Adjustable)
	c.PassThrough = maps.Clone(in.PassThrough)
	c.Resources = in.Resources.Clone()
	return &c
}

// ranked is one eligible instance with its QoS score.
type ranked struct {
	in    *Instance
	score int
}

// Registry is the service discovery service. All methods are safe for
// concurrent use.
//
// The registry owns the instances it holds: Register stores a deep copy,
// and neither the registry nor anyone it hands an instance to (Get, All,
// Best, Candidates) may modify it, so a composed graph's nodes share its
// vectors and maps instead of copying them.
type Registry struct {
	mu        sync.RWMutex
	instances map[string]*Instance
	// byType holds the same instances grouped by service type and keyed
	// by name within it, so that discovery ranges over the candidates of
	// one type rather than the whole catalog. Register and Unregister keep
	// it in step with instances under mu.
	byType map[string]map[string]*Instance
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		instances: make(map[string]*Instance),
		byType:    make(map[string]map[string]*Instance),
	}
}

// Register adds or replaces an instance after validation. The registry
// keeps a copy: later changes to in do not reach it.
func (r *Registry) Register(in *Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	in = in.clone()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropFromType(r.instances[in.Name])
	r.instances[in.Name] = in
	same := r.byType[in.Type]
	if same == nil {
		same = make(map[string]*Instance)
		r.byType[in.Type] = same
	}
	same[in.Name] = in
	return nil
}

// dropFromType removes a registered instance (nil is a no-op) from the
// by-type index; callers hold mu for writing.
func (r *Registry) dropFromType(old *Instance) {
	if old == nil {
		return
	}
	same := r.byType[old.Type]
	delete(same, old.Name)
	if len(same) == 0 {
		delete(r.byType, old.Type)
	}
}

// MustRegister is Register that panics on error.
func (r *Registry) MustRegister(in *Instance) {
	if err := r.Register(in); err != nil {
		panic(err)
	}
}

// Unregister removes an instance (e.g. when its host leaves the space) and
// reports whether it was present.
func (r *Registry) Unregister(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	old, ok := r.instances[name]
	if !ok {
		return false
	}
	r.dropFromType(old)
	delete(r.instances, name)
	return true
}

// Get returns the named instance, or nil.
func (r *Registry) Get(name string) *Instance {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.instances[name]
}

// Len returns the number of registered instances.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.instances)
}

// All returns every instance sorted by name.
func (r *Registry) All() []*Instance {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Instance, 0, len(r.instances))
	for _, in := range r.instances {
		out = append(out, in)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// rank orders eligible instances best-first: higher QoS score, then
// smaller resource footprint, then name. Names are unique, so the order is
// total.
func rank(a, b ranked) int {
	if a.score != b.score {
		return cmp.Compare(b.score, a.score)
	}
	if c := cmp.Compare(footprint(a.in.Resources), footprint(b.in.Resources)); c != 0 {
		return c
	}
	return strings.Compare(a.in.Name, b.in.Name)
}

// Best returns the closest instance for the abstract spec, or nil when
// discovery fails — the paper's "failed discovery of a service instance".
// Exact type match and attribute superset are mandatory; among the
// instances that pass, the closest satisfies the most desired input/output
// QoS dimensions, ties broken by smaller resource footprint, then name.
func (r *Registry) Best(spec Spec) *Instance {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var best ranked
	for _, in := range r.byType[spec.Type] {
		if !attrsSubset(spec.Attrs, in.Attrs) {
			continue
		}
		if m := (ranked{in, scoreQoS(spec, in)}); best.in == nil || rank(m, best) < 0 {
			best = m
		}
	}
	return best.in
}

// Candidate is one same-type instance considered for an abstract spec,
// with the reason it lost when it did. Candidate sets feed the explain
// layer's discovery provenance.
type Candidate struct {
	Name string `json:"name"`
	// Score is the QoS rank (attr-rejected candidates keep score 0).
	Score int `json:"score"`
	// Chosen marks the winning instance.
	Chosen bool `json:"chosen,omitempty"`
	// Rejection explains why this candidate lost, relative to the winner
	// (empty for the winner).
	Rejection string `json:"rejection,omitempty"`
}

// Candidates returns Best's answer together with every same-type instance
// the ranking considered for the spec, winners first: eligible instances
// in rank order (the first marked Chosen, the rest annotated with why the
// winner beat them), then attribute-rejected instances sorted by name.
// Both come out of one pass over the candidates.
func (r *Registry) Candidates(spec Spec) (*Instance, []Candidate) {
	r.mu.RLock()
	eligible := make([]ranked, 0, 4) // on the stack while a type has few instances
	var rejected []Candidate
	for _, in := range r.byType[spec.Type] {
		if reason, ok := attrMismatch(spec.Attrs, in.Attrs); !ok {
			rejected = append(rejected, Candidate{Name: in.Name, Rejection: reason})
			continue
		}
		eligible = append(eligible, ranked{in, scoreQoS(spec, in)})
	}
	r.mu.RUnlock()
	slices.SortFunc(eligible, rank)
	sort.Slice(rejected, func(i, j int) bool { return rejected[i].Name < rejected[j].Name })

	out := make([]Candidate, 0, len(eligible)+len(rejected))
	var best *Instance
	for i, m := range eligible {
		c := Candidate{Name: m.in.Name, Score: m.score, Chosen: i == 0}
		if i == 0 {
			best = m.in
		} else {
			winner := eligible[0]
			switch {
			case m.score < winner.score:
				c.Rejection = fmt.Sprintf("QoS score %d < %d (%s)", m.score, winner.score, winner.in.Name)
			case footprint(m.in.Resources) > footprint(winner.in.Resources):
				c.Rejection = fmt.Sprintf("larger resource footprint than %s (%.2f > %.2f)",
					winner.in.Name, footprint(m.in.Resources), footprint(winner.in.Resources))
			default:
				c.Rejection = fmt.Sprintf("name tie-break behind %s", winner.in.Name)
			}
		}
		out = append(out, c)
	}
	return best, append(out, rejected...)
}

// attrMismatch reports whether have satisfies every required attribute;
// when not, it names the first (alphabetically) unmet requirement.
func attrMismatch(want, have map[string]string) (string, bool) {
	if attrsSubset(want, have) {
		return "", true
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if have[k] != want[k] {
			return fmt.Sprintf("requires attr %s=%s", k, want[k]), false
		}
	}
	return "attr mismatch", false
}

func attrsSubset(want, have map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// scoreQoS counts the desired dimensions the instance can honor: a desired
// output dimension counts when the instance's capability intersects it; a
// desired input dimension counts when the offered value satisfies the
// instance's input requirement for that dimension (or the instance does not
// constrain it).
func scoreQoS(spec Spec, in *Instance) int {
	score := 0
	var capability qos.Vector
	if len(spec.Output) > 0 {
		capability = in.Capability()
	}
	for _, want := range spec.Output {
		got, ok := capability.Get(want.Name)
		if !ok {
			continue
		}
		if got.ContainedIn(want.Value) {
			score++
			continue
		}
		if _, ok := got.Intersect(want.Value); ok {
			score++
		}
	}
	for _, offered := range spec.Input {
		req, ok := in.Input.Get(offered.Name)
		if !ok {
			score++ // unconstrained: accepts anything for this dimension
			continue
		}
		if offered.Value.ContainedIn(req) {
			score++
		} else if _, ok := offered.Value.Intersect(req); ok {
			score++
		}
	}
	return score
}

func footprint(r resource.Vector) float64 {
	var s float64
	for _, x := range r {
		s += x
	}
	return s
}
