package registry

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"ubiqos/internal/qos"
	"ubiqos/internal/resource"
)

// The discovery code as it stood before Best became one ranked pass and
// Candidates returned the winner with the set: Find sorted a fresh slice
// of matches and Best took its head. Kept verbatim, the methods renamed
// with a ref prefix, as the oracle TestBestMatchesFindHead holds Best and
// Candidates to, and as the ranked listing the other tests read.

// Match is one ranked discovery result.
type Match struct {
	Instance *Instance
	// Score counts the satisfied desired QoS dimensions; higher is closer
	// to the abstract description.
	Score int
}

// Find returns the instances matching the abstract spec, ranked best-first:
// exact type match and attribute superset are mandatory; the rank counts
// how many desired input/output QoS dimensions the instance can satisfy
// (ties broken by smaller resource footprint, then name). An empty result
// models the paper's "failed discovery of a service instance".
func (r *Registry) refFind(spec Spec) []Match {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Match
	for _, in := range r.byType[spec.Type] {
		if !attrsSubset(spec.Attrs, in.Attrs) {
			continue
		}
		out = append(out, Match{Instance: in, Score: scoreQoS(spec, in)})
	}
	slices.SortFunc(out, refRank)
	return out
}

// rank orders matches best-first: higher QoS score, then smaller resource
// footprint, then name. Names are unique, so the order is total.
func refRank(a, b Match) int {
	if a.Score != b.Score {
		return cmp.Compare(b.Score, a.Score)
	}
	if c := cmp.Compare(footprint(a.Instance.Resources), footprint(b.Instance.Resources)); c != 0 {
		return c
	}
	return strings.Compare(a.Instance.Name, b.Instance.Name)
}

// Best returns the single closest instance for the spec, or nil when
// discovery fails.
func (r *Registry) refBest(spec Spec) *Instance {
	ms := r.refFind(spec)
	if len(ms) == 0 {
		return nil
	}
	return ms[0].Instance
}

// Candidates returns every same-type instance the discovery ranking
// considered for the spec, winners first: eligible instances in Find
// order (the first marked Chosen, the rest annotated with why the
// winner beat them), then attribute-rejected instances sorted by name.
func (r *Registry) refCandidates(spec Spec) []Candidate {
	r.mu.RLock()
	var eligible []Match
	var rejected []Candidate
	for _, in := range r.byType[spec.Type] {
		if reason, ok := attrMismatch(spec.Attrs, in.Attrs); !ok {
			rejected = append(rejected, Candidate{Name: in.Name, Rejection: reason})
			continue
		}
		eligible = append(eligible, Match{Instance: in, Score: scoreQoS(spec, in)})
	}
	r.mu.RUnlock()
	slices.SortFunc(eligible, refRank)
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

// TestBestMatchesFindHead: on generated registries — few types, many
// instances per type, scores, footprints and names that tie often — Best
// returns the head of refFind, and Candidates returns that same instance
// with refCandidates' slice, for specs with and without attributes and
// desired input and output QoS.
func TestBestMatchesFindHead(t *testing.T) {
	types := []string{"player", "server", "transcoder"}
	rates := []qos.Value{qos.Range(10, 30), qos.Range(25, 60), qos.Scalar(40), qos.Scalar(15)}
	formats := []qos.Value{qos.Symbol(qos.FormatMP3), qos.Symbol(qos.FormatPCM), qos.Set(qos.FormatMP3, qos.FormatWAV)}
	attr := func(rng *rand.Rand) map[string]string {
		m := map[string]string{}
		if p := []string{"", "pc", "pda"}[rng.Intn(3)]; p != "" {
			m["platform"] = p
		}
		if rng.Intn(3) == 0 {
			m["codec"] = []string{"a", "b"}[rng.Intn(2)]
		}
		if len(m) == 0 {
			return nil
		}
		return m
	}
	vector := func(rng *rand.Rand) qos.Vector {
		var v qos.Vector
		if rng.Intn(2) == 0 {
			v = v.With(qos.DimFrameRate, rates[rng.Intn(len(rates))])
		}
		if rng.Intn(2) == 0 {
			v = v.With(qos.DimFormat, formats[rng.Intn(len(formats))])
		}
		return v
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := New()
		for i, n := 0, 1+rng.Intn(24); i < n; i++ {
			r.MustRegister(&Instance{
				Name:          fmt.Sprintf("i%02d", rng.Intn(30)),
				Type:          types[rng.Intn(len(types))],
				Attrs:         attr(rng),
				Input:         vector(rng),
				Output:        vector(rng),
				OutCapability: vector(rng),
				Resources:     resource.MB(float64(1+rng.Intn(3)), float64(1+rng.Intn(3))),
			})
		}
		for k := 0; k < 40; k++ {
			spec := Spec{Type: types[rng.Intn(len(types))], Attrs: attr(rng), Input: vector(rng), Output: vector(rng)}
			want := r.refBest(spec)
			if got := r.Best(spec); got != want {
				t.Fatalf("seed %d: Best(%+v) = %v, head of refFind %v", seed, spec, got, want)
			}
			best, cs := r.Candidates(spec)
			if best != want {
				t.Fatalf("seed %d: Candidates(%+v) chose %v, head of refFind %v", seed, spec, best, want)
			}
			if ref := r.refCandidates(spec); !reflect.DeepEqual(cs, ref) {
				t.Fatalf("seed %d: Candidates(%+v) = %+v, refCandidates %+v", seed, spec, cs, ref)
			}
		}
	}
}
