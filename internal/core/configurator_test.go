package core

import (
	"strings"
	"testing"
	"time"

	"ubiqos/internal/checkpoint"
	"ubiqos/internal/composer"
	"ubiqos/internal/device"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/repository"
	"ubiqos/internal/resource"
	"ubiqos/internal/runtime"
)

// testScale fast-forwards emulated time 10x.
const testScale = 0.1

// fixture is a minimal smart space: one desktop, one PDA, an audio server
// component, format-specific players, a transcoder, and a repository.
type fixture struct {
	cfg  Config
	c    *Configurator
	reg  *registry.Registry
	net  *netsim.Network
	dsk  *device.Device
	pda  *device.Device
	repo *repository.Repository
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	reg := registry.New()
	reg.MustRegister(&registry.Instance{
		Name:          "audio-server-1",
		Type:          "audio-server",
		Output:        qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3)), qos.P(qos.DimFrameRate, qos.Scalar(40))),
		OutCapability: qos.V(qos.P(qos.DimFrameRate, qos.Range(5, 60))),
		Adjustable:    map[string]bool{qos.DimFrameRate: true},
		Resources:     resource.MB(64, 50),
		SizeMB:        2,
	})
	reg.MustRegister(&registry.Instance{
		Name:      "mp3-player-1",
		Type:      "audio-player",
		Attrs:     map[string]string{"platform": "pc"},
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3)), qos.P(qos.DimFrameRate, qos.Range(10, 50))),
		Resources: resource.MB(16, 30),
		SizeMB:    1,
	})
	reg.MustRegister(&registry.Instance{
		Name:      "wav-player-1",
		Type:      "audio-player",
		Attrs:     map[string]string{"platform": "pda"},
		Input:     qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatWAV)), qos.P(qos.DimFrameRate, qos.Range(10, 44))),
		Resources: resource.MB(8, 10),
		SizeMB:    1,
	})
	reg.MustRegister(&registry.Instance{
		Name:        "mp32wav-1",
		Type:        composer.TypeTranscoder,
		Attrs:       map[string]string{"from": qos.FormatMP3, "to": qos.FormatWAV},
		Input:       qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatMP3))),
		Output:      qos.V(qos.P(qos.DimFormat, qos.Symbol(qos.FormatWAV))),
		PassThrough: map[string]bool{qos.DimFrameRate: true},
		Resources:   resource.MB(12, 25),
		SizeMB:      1.5,
	})

	net := netsim.MustNew(testScale * 0.001) // transfers are near-instant in tests
	net.MustSetLink("desktop1", "pda1", netsim.WLAN)
	net.MustSetLink("repo-host", "desktop1", netsim.Ethernet)
	net.MustSetLink("repo-host", "pda1", netsim.WLAN)

	devices := device.NewTable()
	dsk := device.MustNew("desktop1", device.ClassDesktop, resource.MB(256, 300), map[string]string{"platform": "pc"})
	pda := device.MustNew("pda1", device.ClassPDA, resource.MB(32, 40), map[string]string{"platform": "pda"})
	if err := devices.Add(dsk); err != nil {
		t.Fatal(err)
	}
	if err := devices.Add(pda); err != nil {
		t.Fatal(err)
	}
	links := device.NewLinks()
	links.MustSet("desktop1", "pda1", 5)

	repo, err := repository.New("repo-host", net)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []repository.Package{
		{Name: "audio-server-1", SizeMB: 2},
		{Name: "mp3-player-1", SizeMB: 1},
		{Name: "wav-player-1", SizeMB: 1},
		{Name: "mp32wav-1", SizeMB: 1.5},
	} {
		repo.MustPublish(p)
	}

	engine, err := runtime.NewEngine(testScale, net)
	if err != nil {
		t.Fatal(err)
	}
	w, err := resource.NewWeights(0.3, 0.3, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Composer:    composer.New(reg),
		Devices:     devices,
		Links:       links,
		Net:         net,
		Repo:        repo,
		Checkpoints: checkpoint.NewStore(),
		Engine:      engine,
		Weights:     w,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{cfg: cfg, c: c, reg: reg, net: net, dsk: dsk, pda: pda, repo: repo}
}

// audioApp describes the mobile audio-on-demand application.
func audioApp() *composer.AbstractGraph {
	ag := composer.NewAbstractGraph()
	ag.MustAddNode(&composer.AbstractNode{ID: "server", Spec: registry.Spec{Type: "audio-server"}})
	ag.MustAddNode(&composer.AbstractNode{ID: "player", Spec: registry.Spec{Type: "audio-player"}, Pin: ClientRole})
	ag.MustAddEdge("server", "player", 1.5)
	return ag
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config should fail")
	}
	f := newFixture(t)
	bad := f.cfg
	bad.Weights = resource.Weights{2, 2}
	if _, err := New(bad); err == nil {
		t.Error("invalid weights should fail")
	}
}

func TestConfigureEndToEnd(t *testing.T) {
	f := newFixture(t)
	active, err := f.c.Configure(Request{
		SessionID:    "audio-1",
		App:          audioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(35, 45))),
		ClientDevice: "desktop1",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.c.Stop("audio-1")

	if active.Graph.NodeCount() != 2 {
		t.Errorf("graph nodes = %d", active.Graph.NodeCount())
	}
	if active.Placement["player"] != "desktop1" {
		t.Errorf("player placed on %s, want client pin", active.Placement["player"])
	}
	// Resources were admitted.
	if f.dsk.Available().Equal(f.dsk.Capacity()) {
		t.Error("no admission happened on the desktop")
	}
	// The pipeline delivers ≈40 fps.
	time.Sleep(time.Duration(float64(3*time.Second) * testScale))
	fps, frames := active.Runtime.MeasuredRate("player", "server")
	if frames < 20 || fps < 30 || fps > 50 {
		t.Errorf("measured %0.1f fps over %d frames, want ≈40", fps, frames)
	}
	// Overheads recorded.
	if active.Timing.Composition <= 0 || active.Timing.Distribution <= 0 {
		t.Errorf("timing = %+v", active.Timing)
	}
	if active.Timing.Downloading <= 0 {
		t.Error("components were not pre-installed; downloading must cost time")
	}
	if f.c.Sessions() != 1 || f.c.Session("audio-1") != active {
		t.Error("session bookkeeping wrong")
	}
	if got := f.c.SessionIDs(); len(got) != 1 || got[0] != "audio-1" {
		t.Errorf("SessionIDs = %v", got)
	}
}

func TestConfigurePreinstalledSkipsDownload(t *testing.T) {
	f := newFixture(t)
	f.repo.MarkInstalled("desktop1", "audio-server-1")
	f.repo.MarkInstalled("desktop1", "mp3-player-1")
	active, err := f.c.Configure(Request{
		SessionID:    "audio-1",
		App:          audioApp(),
		ClientDevice: "desktop1",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.c.Stop("audio-1")
	if active.Timing.Downloading != 0 {
		t.Errorf("downloading = %v, want 0 for pre-installed components", active.Timing.Downloading)
	}
}

func TestConfigureDuplicateSession(t *testing.T) {
	f := newFixture(t)
	if _, err := f.c.Configure(Request{SessionID: "s", App: audioApp(), ClientDevice: "desktop1"}); err != nil {
		t.Fatal(err)
	}
	defer f.c.Stop("s")
	if _, err := f.c.Configure(Request{SessionID: "s", App: audioApp(), ClientDevice: "desktop1"}); err == nil {
		t.Error("duplicate session should fail")
	}
	if _, err := f.c.Configure(Request{App: audioApp()}); err == nil {
		t.Error("empty session ID should fail")
	}
}

func TestStopReleasesResources(t *testing.T) {
	f := newFixture(t)
	before := f.dsk.Available()
	if _, err := f.c.Configure(Request{SessionID: "s", App: audioApp(), ClientDevice: "desktop1"}); err != nil {
		t.Fatal(err)
	}
	if f.dsk.Available().Equal(before) {
		t.Fatal("expected admission on desktop")
	}
	if err := f.c.Stop("s"); err != nil {
		t.Fatal(err)
	}
	if !f.dsk.Available().Equal(before) {
		t.Errorf("resources not released: %v vs %v", f.dsk.Available(), before)
	}
	if err := f.c.Stop("s"); err == nil {
		t.Error("double stop should fail")
	}
	if f.c.Sessions() != 0 {
		t.Error("session not removed")
	}
}

func TestReconfigureHandoffToPDA(t *testing.T) {
	// The paper's event 2: switch from desktop to PDA; the new graph gains
	// an MP3→WAV transcoder, playback resumes from the interruption point,
	// and the handoff cost is recorded.
	f := newFixture(t)
	if _, err := f.c.Configure(Request{
		SessionID:    "audio-1",
		App:          audioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(35, 44))),
		ClientDevice: "desktop1",
	}); err != nil {
		t.Fatal(err)
	}
	// Let some frames play so the interruption point advances.
	time.Sleep(time.Duration(float64(2*time.Second) * testScale))
	posBefore := f.c.Session("audio-1").Runtime.Position()
	if posBefore == 0 {
		t.Fatal("no frames played before handoff")
	}

	active, err := f.c.Reconfigure(Request{
		SessionID:    "audio-1",
		App:          audioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(35, 44))),
		ClientDevice: "pda1",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.c.Stop("audio-1")

	if len(active.Report.Transcoders) != 1 {
		t.Errorf("transcoders = %v, want MP3→WAV inserted", active.Report.Transcoders)
	}
	if active.Placement["player"] != "pda1" {
		t.Errorf("player on %s, want pda1", active.Placement["player"])
	}
	if active.Timing.InitOrHandoff <= 0 {
		t.Error("handoff time not recorded")
	}
	// Music continues from the interruption point.
	time.Sleep(time.Duration(float64(2*time.Second) * testScale))
	if pos := active.Runtime.Position(); pos <= posBefore {
		t.Errorf("position %d did not advance past interruption point %d", pos, posBefore)
	}
}

func TestReconfigureUnknownSession(t *testing.T) {
	f := newFixture(t)
	if _, err := f.c.Reconfigure(Request{SessionID: "ghost", App: audioApp()}); err == nil {
		t.Error("unknown session should fail")
	}
}

func TestConfigureFailsWhenNoDeviceFits(t *testing.T) {
	f := newFixture(t)
	// Exhaust the desktop so nothing can host the 64MB server.
	if err := f.dsk.Admit(resource.MB(250, 295)); err != nil {
		t.Fatal(err)
	}
	_, err := f.c.Configure(Request{SessionID: "s", App: audioApp(), ClientDevice: "pda1"})
	if err == nil {
		t.Fatal("expected distribution failure")
	}
	if !strings.Contains(err.Error(), "distribution") && !strings.Contains(err.Error(), "composition") {
		t.Errorf("err = %v", err)
	}
	if f.c.Sessions() != 0 {
		t.Error("failed configure must not leave sessions")
	}
}

func TestConfigureMissingServiceNotifiesUser(t *testing.T) {
	f := newFixture(t)
	ag := composer.NewAbstractGraph()
	ag.MustAddNode(&composer.AbstractNode{ID: "x", Spec: registry.Spec{Type: "holo-projector"}})
	_, err := f.c.Configure(Request{SessionID: "s", App: ag, ClientDevice: "desktop1"})
	if err == nil || !strings.Contains(err.Error(), "holo-projector") {
		t.Errorf("err = %v, want missing-service notification", err)
	}
}

func TestFirstFrameBuffering(t *testing.T) {
	f := newFixture(t)
	if _, err := f.c.Configure(Request{
		SessionID:    "s",
		App:          audioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(20, 40))),
		ClientDevice: "desktop1",
	}); err != nil {
		t.Fatal(err)
	}
	active, err := f.c.Reconfigure(Request{
		SessionID:    "s",
		App:          audioApp(),
		UserQoS:      qos.V(qos.P(qos.DimFrameRate, qos.Range(20, 40))),
		ClientDevice: "desktop1",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.c.Stop("s")
	// Same portal: no state transfer, but first-frame buffering at ≥20fps
	// means up to 50ms.
	if active.Timing.InitOrHandoff <= 0 || active.Timing.InitOrHandoff > 60*time.Millisecond {
		t.Errorf("InitOrHandoff = %v, want ≈1/20s buffering", active.Timing.InitOrHandoff)
	}
}
