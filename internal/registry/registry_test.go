package registry

import (
	"reflect"
	"sort"
	"testing"

	"ubiqos/internal/qos"
	"ubiqos/internal/resource"
)

func inst(name, typ string) *Instance {
	return &Instance{Name: name, Type: typ, Resources: resource.MB(1, 1)}
}
func specOf(typ string) Spec { return Spec{Type: typ} }
func names(ms []Match) (out []string) {
	for _, m := range ms {
		out = append(out, m.Instance.Name)
	}
	sort.Strings(out)
	return
}

func mp3Player() *Instance {
	return &Instance{
		Name:      "mp3-player-1",
		Type:      "audio-player",
		Attrs:     map[string]string{"platform": "pc"},
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3)), qos.P(qos.DimFrameRate, qos.Range(10, 50))),
		Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatPCM))),
		Resources: resource.MB(16, 30),
		SizeMB:    4,
	}
}

func wavPlayer() *Instance {
	return &Instance{
		Name:      "wav-player-1",
		Type:      "audio-player",
		Attrs:     map[string]string{"platform": "pda"},
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatWAV)), qos.P(qos.DimFrameRate, qos.Range(10, 44))),
		Output:    qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatPCM))),
		Resources: resource.MB(8, 15),
		SizeMB:    2,
	}
}

func audioServer() *Instance {
	return &Instance{
		Name:          "audio-server-1",
		Type:          "audio-server",
		Output:        qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3)), qos.P(qos.DimFrameRate, qos.Scalar(40))),
		OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(10, 60))),
		Adjustable:    map[string]bool{qos.DimFrameRate: true},
		Resources:     resource.MB(64, 50),
		SizeMB:        10,
	}
}

func TestInstanceValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Instance)
	}{
		{"empty name", func(i *Instance) { i.Name = "" }},
		{"empty type", func(i *Instance) { i.Type = "" }},
		{"bad qos", func(i *Instance) { i.Input = qos.Vector{qos.P("", qos.Scalar(1))} }},
		{"bad resources", func(i *Instance) { i.Resources = resource.Vector{-1, 1} }},
		{"no resources", func(i *Instance) { i.Resources = nil }},
		{"one resource dimension", func(i *Instance) { i.Resources = resource.Vector{1} }},
		{"negative size", func(i *Instance) { i.SizeMB = -1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := mp3Player()
			c.mut(in)
			if err := in.Validate(); err == nil {
				t.Error("Validate should fail")
			}
		})
	}
	if err := mp3Player().Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}

func TestCapabilityMergesOutput(t *testing.T) {
	s := audioServer()
	c := s.Capability()
	if v, _ := c.Get(qos.DimFormat); !v.Equal(qos.Symbol(qos.FormatMP3)) {
		t.Errorf("capability format = %s", v)
	}
	if v, _ := c.Get(qos.DimFrameRate); !v.Equal(qos.Range(10, 60)) {
		t.Errorf("capability framerate = %s, want adjustable range", v)
	}
}

func TestRegisterUnregisterGet(t *testing.T) {
	r := New()
	if err := r.Register(&Instance{}); err == nil {
		t.Error("invalid instance should be rejected")
	}
	r.MustRegister(mp3Player())
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
	if r.Get("mp3-player-1") == nil {
		t.Error("Get failed")
	}
	// Replace is allowed.
	upd := mp3Player()
	upd.SizeMB = 99
	r.MustRegister(upd)
	if r.Len() != 1 || r.Get("mp3-player-1").SizeMB != 99 {
		t.Error("re-register should replace")
	}
	if !r.Unregister("mp3-player-1") || r.Unregister("mp3-player-1") {
		t.Error("Unregister semantics wrong")
	}
}

func TestAllSorted(t *testing.T) {
	r := New()
	r.MustRegister(wavPlayer())
	r.MustRegister(mp3Player())
	all := r.All()
	if len(all) != 2 || all[0].Name != "mp3-player-1" || all[1].Name != "wav-player-1" {
		t.Errorf("All = %v", all)
	}
}

func TestFindTypeAndAttrs(t *testing.T) {
	r := New()
	r.MustRegister(mp3Player())
	r.MustRegister(wavPlayer())
	r.MustRegister(audioServer())

	if ms := r.refFind(Spec{Type: "video-player"}); len(ms) != 0 {
		t.Errorf("unknown type should fail discovery, got %v", ms)
	}
	ms := r.refFind(Spec{Type: "audio-player"})
	if len(ms) != 2 {
		t.Fatalf("Find(audio-player) = %d results", len(ms))
	}
	ms = r.refFind(Spec{Type: "audio-player", Attrs: map[string]string{"platform": "pda"}})
	if len(ms) != 1 || ms[0].Instance.Name != "wav-player-1" {
		t.Errorf("attr filter failed: %v", ms)
	}
}

func TestFindRanksByQoSCloseness(t *testing.T) {
	r := New()
	r.MustRegister(mp3Player())
	r.MustRegister(wavPlayer())
	// The graph will feed MP3 at 40fps: the MP3 player should rank first.
	spec := Spec{
		Type:  "audio-player",
		Input: qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3)), qos.P(qos.DimFrameRate, qos.Scalar(40))),
	}
	ms := r.refFind(spec)
	if len(ms) != 2 {
		t.Fatalf("got %d matches", len(ms))
	}
	if ms[0].Instance.Name != "mp3-player-1" {
		t.Errorf("ranking = [%s, %s], want mp3 player first", ms[0].Instance.Name, ms[1].Instance.Name)
	}
	if ms[0].Score <= ms[1].Score {
		t.Errorf("scores = %d, %d", ms[0].Score, ms[1].Score)
	}
}

func TestFindRanksByOutputCapability(t *testing.T) {
	r := New()
	fixed := audioServer()
	fixed.Name = "fixed-server"
	fixed.OutCapability = nil
	fixed.Adjustable = nil
	fixed.Output = qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3)), qos.P(qos.DimFrameRate, qos.Scalar(5)))
	r.MustRegister(fixed)
	r.MustRegister(audioServer())

	spec := Spec{
		Type:   "audio-server",
		Output: qos.V(qos.P(qos.DimFrameRate, qos.Range(35, 45))),
	}
	ms := r.refFind(spec)
	if len(ms) != 2 || ms[0].Instance.Name != "audio-server-1" {
		t.Fatalf("capability ranking failed: %+v", ms)
	}
}

func TestFindTieBreaksBySmallerFootprintThenName(t *testing.T) {
	r := New()
	big := wavPlayer()
	big.Name = "big-player"
	big.Attrs = nil
	big.Resources = resource.MB(100, 100)
	small := wavPlayer()
	small.Name = "small-player"
	small.Attrs = nil
	r.MustRegister(big)
	r.MustRegister(small)
	ms := r.refFind(Spec{Type: "audio-player"})
	if len(ms) != 2 || ms[0].Instance.Name != "small-player" {
		t.Errorf("footprint tie-break failed: %v", ms[0].Instance.Name)
	}

	twin := wavPlayer()
	twin.Name = "a-player"
	twin.Attrs = nil
	r.MustRegister(twin)
	ms = r.refFind(Spec{Type: "audio-player"})
	if ms[0].Instance.Name != "a-player" {
		t.Errorf("name tie-break failed: %v", ms[0].Instance.Name)
	}
}

func TestBest(t *testing.T) {
	r := New()
	if r.Best(Spec{Type: "audio-player"}) != nil {
		t.Error("Best on empty registry should be nil")
	}
	r.MustRegister(mp3Player())
	if got := r.Best(Spec{Type: "audio-player"}); got == nil || got.Name != "mp3-player-1" {
		t.Errorf("Best = %v", got)
	}
}

func TestFindUnconstrainedInputDimensionCounts(t *testing.T) {
	r := New()
	anyIn := &Instance{Name: "sink", Type: "sink", Resources: resource.MB(1, 1)}
	r.MustRegister(anyIn)
	ms := r.refFind(Spec{Type: "sink", Input: qos.V(qos.P("x", qos.Scalar(1)))})
	if len(ms) != 1 || ms[0].Score != 1 {
		t.Errorf("unconstrained input should score: %+v", ms)
	}
}

// TestRegisterKeepsItsOwnCopy: what a caller does to its instance after
// Register, through any field, does not reach the registered one.
func TestRegisterKeepsItsOwnCopy(t *testing.T) {
	r := New()
	full := func() *Instance {
		in := audioServer()
		in.Attrs = map[string]string{"platform": "pc"}
		in.Input = qos.V(qos.P(qos.DimFrameRate, qos.Range(10, 60)))
		in.PassThrough = map[string]bool{qos.DimFrameRate: true}
		return in
	}
	in, want := full(), full()
	r.MustRegister(in)

	in.Attrs["platform"] = "pda"
	in.Input[0].Value = qos.Scalar(1)
	in.Output[0].Value = qos.Scalar(1)
	in.OutCapability[0].Value = qos.Scalar(1)
	in.Adjustable[qos.DimFrameRate] = false
	in.PassThrough[qos.DimFormat] = true
	in.Resources[0] = 999
	in.SizeMB = 99
	if got := r.Get(want.Name); got == in || !reflect.DeepEqual(got, want) {
		t.Errorf("registered instance = %+v, want %+v", got, want)
	}
}
