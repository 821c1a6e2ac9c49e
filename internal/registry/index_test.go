package registry

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ubiqos/internal/qos"
	"ubiqos/internal/resource"
)

// linearFind is refFind as it was before the by-type index: one pass over
// every registered instance, here taken from All(). Kept, with
// linearCandidates, as the oracle TestIndexMatchesLinearScan compares the
// indexed lookups against.
func linearFind(all []*Instance, spec Spec) []Match {
	var out []Match
	for _, in := range all {
		if in.Type != spec.Type {
			continue
		}
		if !attrsSubset(spec.Attrs, in.Attrs) {
			continue
		}
		out = append(out, Match{Instance: in, Score: scoreQoS(spec, in)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		ri := footprint(out[i].Instance.Resources)
		rj := footprint(out[j].Instance.Resources)
		if ri != rj {
			return ri < rj
		}
		return out[i].Instance.Name < out[j].Instance.Name
	})
	return out
}

func linearCandidates(all []*Instance, spec Spec) []Candidate {
	var rejected []Candidate
	for _, in := range all {
		if in.Type != spec.Type {
			continue
		}
		if reason, ok := attrMismatch(spec.Attrs, in.Attrs); !ok {
			rejected = append(rejected, Candidate{Name: in.Name, Rejection: reason})
		}
	}
	eligible := linearFind(all, spec)
	sort.Slice(rejected, func(i, j int) bool { return rejected[i].Name < rejected[j].Name })

	out := make([]Candidate, 0, len(eligible)+len(rejected))
	for i, m := range eligible {
		c := Candidate{Name: m.Instance.Name, Score: m.Score, Chosen: i == 0}
		if i > 0 {
			winner := eligible[0]
			switch {
			case m.Score < winner.Score:
				c.Rejection = fmt.Sprintf("QoS score %d < %d (%s)", m.Score, winner.Score, winner.Instance.Name)
			case footprint(m.Instance.Resources) > footprint(winner.Instance.Resources):
				c.Rejection = fmt.Sprintf("larger resource footprint than %s (%.2f > %.2f)",
					winner.Instance.Name, footprint(m.Instance.Resources), footprint(winner.Instance.Resources))
			default:
				c.Rejection = fmt.Sprintf("name tie-break behind %s", winner.Instance.Name)
			}
		}
		out = append(out, c)
	}
	return append(out, rejected...)
}

// TestIndexMatchesLinearScan: after any sequence of Register (new names,
// replacements that keep the type, replacements that change it),
// Unregister), the indexed refFind, Best and Candidates answer what a scan
// over All() answers.
func TestIndexMatchesLinearScan(t *testing.T) {
	types := []string{"player", "recorder", "server", "gateway"}
	platforms := []string{"pc", "pda", ""}
	rates := []qos.Value{qos.Range(10, 30), qos.Range(25, 60), qos.Scalar(40)}
	specs := make([]Spec, 0, 3*len(types))
	for _, typ := range types {
		specs = append(specs,
			Spec{Type: typ},
			Spec{Type: typ, Attrs: map[string]string{"platform": "pda"}},
			Spec{Type: typ, Output: qos.V(qos.P(qos.DimFrameRate, qos.Range(20, 28))), Input: qos.V(qos.P(qos.DimFrameRate, qos.Scalar(40)))})
	}
	specs = append(specs, Spec{Type: "nothing-of-the-kind"})

	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := New()
		draw := func() *Instance {
			in := &Instance{
				Name:      fmt.Sprintf("i%02d", rng.Intn(16)),
				Type:      types[rng.Intn(len(types))],
				Resources: resource.MB(float64(1+rng.Intn(4)), float64(1+rng.Intn(4))),
			}
			if p := platforms[rng.Intn(len(platforms))]; p != "" {
				in.Attrs = map[string]string{"platform": p}
			}
			if rng.Intn(2) == 0 {
				in.Output = qos.V(qos.P(qos.DimFrameRate, rates[rng.Intn(len(rates))]))
				in.Input = qos.V(qos.P(qos.DimFrameRate, rates[rng.Intn(len(rates))]))
			}
			return in
		}
		for step := 0; step < 300; step++ {
			if rng.Intn(10) < 6 {
				r.MustRegister(draw())
			} else {
				r.Unregister(fmt.Sprintf("i%02d", rng.Intn(16)))
			}

			all := r.All()
			indexed := 0
			for typ, same := range r.byType {
				if len(same) == 0 {
					t.Fatalf("seed %d step %d: empty index entry left for %s", seed, step, typ)
				}
				indexed += len(same)
			}
			if indexed != len(all) {
				t.Fatalf("seed %d step %d: index holds %d instances, registry %d", seed, step, indexed, len(all))
			}
			for _, spec := range specs {
				want := linearFind(all, spec)
				if got := r.refFind(spec); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: Find(%+v) = %v, linear scan %v", seed, step, spec, names(got), names(want))
				}
				var wantBest *Instance
				if len(want) > 0 {
					wantBest = want[0].Instance
				}
				if got := r.Best(spec); got != wantBest {
					t.Fatalf("seed %d step %d: Best(%+v) = %v, linear scan %v", seed, step, spec, got, wantBest)
				}
				if _, got := r.Candidates(spec); !reflect.DeepEqual(got, linearCandidates(all, spec)) {
					t.Fatalf("seed %d step %d: Candidates(%+v) = %+v, linear scan %+v", seed, step, spec, got, linearCandidates(all, spec))
				}
			}
		}
	}
}
