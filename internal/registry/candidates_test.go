package registry

import (
	"strings"
	"testing"

	"ubiqos/internal/qos"
	"ubiqos/internal/resource"
)

func TestCandidatesRanksAndExplains(t *testing.T) {
	r := New()
	// Winner: matches the desired output format.
	r.MustRegister(&Instance{
		Name: "pcm-out", Type: "audio-player",
		Attrs:     map[string]string{"platform": "pda"},
		Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatPCM))),
		Resources: resource.MB(8, 10),
	})
	// Lower QoS score: wrong output format.
	r.MustRegister(&Instance{
		Name: "mp3-out", Type: "audio-player",
		Attrs:     map[string]string{"platform": "pda"},
		Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3))),
		Resources: resource.MB(8, 10),
	})
	// Same score as the winner but a heavier footprint.
	r.MustRegister(&Instance{
		Name: "pcm-heavy", Type: "audio-player",
		Attrs:     map[string]string{"platform": "pda"},
		Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatPCM))),
		Resources: resource.MB(64, 90),
	})
	// Attribute-rejected: demands a platform the spec pins elsewhere.
	r.MustRegister(&Instance{
		Name: "wrong-platform", Type: "audio-player",
		Attrs:     map[string]string{"platform": "pc"},
		Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatPCM))),
		Resources: resource.MB(8, 10),
	})
	// Different type: never considered.
	r.MustRegister(&Instance{Name: "server", Type: "audio-server", Resources: resource.MB(1, 1)})

	spec := Spec{
		Type:   "audio-player",
		Attrs:  map[string]string{"platform": "pda"},
		Output: qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatPCM))),
	}
	best, cs := r.Candidates(spec)
	if len(cs) != 4 {
		t.Fatalf("want 4 candidates, got %d: %+v", len(cs), cs)
	}
	if !cs[0].Chosen || cs[0].Name != "pcm-out" || cs[0].Rejection != "" {
		t.Fatalf("winner wrong: %+v", cs[0])
	}
	if best != r.Best(spec) || cs[0].Name != best.Name {
		t.Fatalf("Candidates winner %v (%q) disagrees with Best %v", best, cs[0].Name, r.Best(spec))
	}
	if cs[1].Name != "pcm-heavy" || !strings.Contains(cs[1].Rejection, "larger resource footprint") {
		t.Fatalf("footprint loser wrong: %+v", cs[1])
	}
	if cs[2].Name != "mp3-out" || !strings.Contains(cs[2].Rejection, "QoS score") {
		t.Fatalf("score loser wrong: %+v", cs[2])
	}
	if cs[3].Name != "wrong-platform" || cs[3].Rejection != "requires attr platform=pda" {
		t.Fatalf("attr-rejected wrong: %+v", cs[3])
	}
	for _, c := range cs {
		if c.Name == "server" {
			t.Fatal("other-type instance leaked into candidate set")
		}
	}
}

func TestCandidatesNameTieBreak(t *testing.T) {
	r := New()
	for _, n := range []string{"twin-b", "twin-a"} {
		r.MustRegister(&Instance{Name: n, Type: "mixer", Resources: resource.MB(4, 4)})
	}
	_, cs := r.Candidates(Spec{Type: "mixer"})
	if len(cs) != 2 || cs[0].Name != "twin-a" || !cs[0].Chosen {
		t.Fatalf("tie-break winner wrong: %+v", cs)
	}
	if !strings.Contains(cs[1].Rejection, "name tie-break behind twin-a") {
		t.Fatalf("tie-break rejection wrong: %+v", cs[1])
	}
}

func TestCandidatesEmptyForUnknownType(t *testing.T) {
	r := New()
	if best, cs := r.Candidates(Spec{Type: "ghost"}); best != nil || len(cs) != 0 {
		t.Fatalf("unknown type should yield no candidates: %+v", cs)
	}
}
