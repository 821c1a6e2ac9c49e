package spec

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ubiqos/internal/composer"
	"ubiqos/internal/core"
	"ubiqos/internal/domain"
	"ubiqos/internal/netsim"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/resource"
)

// labSpace is what testdata/lab.json declares: two desktops and a PDA with
// the mobile audio-on-demand catalog.
var labSpace = &space{
	Name: "lab",
	Devices: []spaceDevice{
		{ID: "desktop1", Class: "desktop", Memory: 256, CPU: 100, Attrs: map[string]string{"platform": "pc"}},
		{ID: "desktop2", Class: "desktop", Memory: 256, CPU: 100, Attrs: map[string]string{"platform": "pc"}},
		{ID: "pda1", Class: "pda", Memory: 32, CPU: 100, Attrs: map[string]string{"platform": "pda"}},
	},
	Links: []spaceLink{
		{A: "desktop1", B: "desktop2", Preset: "ethernet"},
		{A: "desktop1", B: "pda1", Preset: "wlan"},
		{A: "desktop2", B: "pda1", Preset: "wlan"},
	},
	Uplinks: []spaceUplink{
		{Device: "desktop1", Preset: "ethernet"},
		{Device: "desktop2", Preset: "ethernet"},
		{Device: "pda1", Preset: "wlan"},
	},
	Instances: []spaceInstance{
		{Instance: registry.Instance{
			Name:          "audio-server-1",
			Type:          "audio-server",
			Output:        qos.V(qos.P("format", qos.Symbol("MPEG")), qos.P("framerate", qos.Scalar(40))),
			OutCapability: qos.V(qos.P("framerate", qos.Range(5, 60))),
			Adjustable:    map[string]bool{"framerate": true},
			Resources:     resource.MB(64, 50),
			SizeMB:        12,
		}, Installed: []string{"*"}},
		{Instance: registry.Instance{
			Name:      "pc-player",
			Type:      "audio-player",
			Attrs:     map[string]string{"platform": "pc"},
			Input:     qos.V(qos.P("format", qos.Symbol("MPEG")), qos.P("framerate", qos.Range(10, 50))),
			Resources: resource.MB(16, 30),
			SizeMB:    4,
		}, Installed: []string{"*"}},
		{Instance: registry.Instance{
			Name:      "pda-player",
			Type:      "audio-player",
			Attrs:     map[string]string{"platform": "pda"},
			Input:     qos.V(qos.P("format", qos.Symbol("WAV")), qos.P("framerate", qos.Range(10, 44))),
			Resources: resource.MB(8, 10),
			SizeMB:    2,
		}, Installed: []string{"*"}},
		{Instance: registry.Instance{
			Name:        "mpeg2wav",
			Type:        "transcoder",
			Attrs:       map[string]string{"from": "MPEG", "to": "WAV"},
			Input:       qos.V(qos.P("format", qos.Symbol("MPEG"))),
			Output:      qos.V(qos.P("format", qos.Symbol("WAV"))),
			PassThrough: map[string]bool{"framerate": true},
			Resources:   resource.MB(12, 25),
			SizeMB:      3,
		}, Installed: []string{"*"}},
	},
}

func readFile(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestParseSpace(t *testing.T) {
	sp, err := parseSpace(readFile(t, "../../testdata/lab.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp, labSpace) {
		got, _ := json.MarshalIndent(sp, "", "  ")
		t.Fatalf("testdata/lab.json decodes to\n%s", got)
	}
}

func TestBuildDomainEndToEnd(t *testing.T) {
	// The space document must produce a domain that can run the paper's
	// audio scenario end to end, including a PDA handoff with transcoder
	// insertion.
	dom, err := LoadSpace(readFile(t, "../../testdata/lab.json"), domain.Options{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	defer dom.Close()

	if dom.Devices.Len() != 3 || dom.Registry.Len() != 4 {
		t.Fatalf("domain: %d devices, %d services", dom.Devices.Len(), dom.Registry.Len())
	}
	// Normalization applied: desktop raw 100% CPU -> 500%.
	if got := dom.Devices.Get("desktop1").Capacity(); !got.Equal(resource.MB(256, 500)) {
		t.Errorf("desktop capacity = %v", got)
	}
	// "*" installs every instance on every device.
	for _, in := range labSpace.Instances {
		for _, dev := range labSpace.Devices {
			if !dom.Repo.Installed(dev.ID, in.Name) {
				t.Errorf("%s is not installed on %s", in.Name, dev.ID)
			}
		}
	}

	var app composer.AbstractGraph
	if err := json.Unmarshal(readFile(t, "../../testdata/mobile-audio.json"), &app); err != nil {
		t.Fatal(err)
	}
	active, err := dom.StartApp(core.Request{
		SessionID:    "music",
		App:          &app,
		UserQoS:      qos.V(qos.P("framerate", qos.Range(38, 44))),
		ClientDevice: "desktop2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if active.Placement["player"] != "desktop2" || active.Placement["server"] != "desktop1" {
		t.Errorf("placement = %v", active.Placement)
	}
	moved, err := dom.SwitchDevice("music", "pda1")
	if err != nil {
		t.Fatal(err)
	}
	if len(moved.Report.Transcoders) != 1 {
		t.Errorf("transcoders = %v", moved.Report.Transcoders)
	}
	time.Sleep(20 * time.Millisecond)
	if err := dom.StopApp("music"); err != nil {
		t.Fatal(err)
	}
}

// TestExplicitLink: a link given by bandwidthMbps/latencyMs instead of a
// preset decodes into those fields and connects its devices with exactly
// that link.
func TestExplicitLink(t *testing.T) {
	sp, err := parseSpace([]byte(explicitLinkSpace))
	if err != nil {
		t.Fatal(err)
	}
	if want := []spaceLink{{A: "a", B: "b", BandwidthMbps: 5, LatencyMs: 2}}; !reflect.DeepEqual(sp.Links, want) {
		t.Fatalf("links = %+v, want %+v", sp.Links, want)
	}
	dom, err := sp.buildDomain(domain.Options{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	defer dom.Close()
	if got, ok := dom.Net.LinkBetween("a", "b"); !ok || got != (netsim.Link{BandwidthMbps: 5, LatencyMs: 2}) {
		t.Errorf("link a-b = %+v, %v", got, ok)
	}
}

const explicitLinkSpace = `{"name": "x",
  "devices": [{"id": "a", "class": "pda", "memory": 1, "cpu": 1}, {"id": "b", "class": "laptop", "memory": 2, "cpu": 2}],
  "links": [{"a": "a", "b": "b", "bandwidthMbps": 5, "latencyMs": 2}]}`

// TestParseSpaceErrors gives each check a document that fails it: a
// check's error names the offending device, link, uplink or instance, and
// a decode error the field it could not take.
func TestParseSpaceErrors(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"missing name", `{"devices": []}`, "space: name required"},
		{"trailing data", `{"name": "x"} {}`, "trailing data"},
		{"unknown block", `{"name": "x", "banana": 1}`, `unknown field "banana"`},
		{"device missing class", `{"name": "x", "devices": [{"id": "d", "memory": 1, "cpu": 1}]}`, `device "d": class required`},
		{"unknown class", `{"name": "x", "devices": [{"id": "d", "class": "mainframe", "memory": 1, "cpu": 1}]}`, `device "d": unknown device class "mainframe"`},
		{"nonpositive capacity", `{"name": "x", "devices": [{"id": "d", "class": "pda", "memory": 0, "cpu": 1}]}`, `device "d" needs positive memory and cpu`},
		{"unknown device field", `{"name": "x", "devices": [{"id": "d", "class": "pda", "memory": 1, "cpu": 1, "wheels": 4}]}`, `unknown field "wheels"`},
		{"unknown preset", `{"name": "x", "links": [{"a": "a", "b": "b", "preset": "carrier-pigeon"}]}`, `link a-b: unknown link preset "carrier-pigeon"`},
		{"link needs bandwidth", `{"name": "x", "links": [{"a": "a", "b": "b", "latencyMs": 1}]}`, "link a-b needs a preset or positive bandwidthMbps"},
		{"link malformed", `{"name": "x", "links": [{"a": "a", "b": "b", "preset": "wlan", "bandwidthMbps": 5}]}`, "link a-b takes a preset or bandwidthMbps/latencyMs, not both"},
		{"unknown link field", `{"name": "x", "links": [{"a": "a", "b": "b", "mtu": 1500}]}`, `unknown field "mtu"`},
		{"uplink preset", `{"name": "x", "uplinks": [{"device": "a", "preset": "tin-cans"}]}`, `uplink "a": unknown link preset "tin-cans"`},
		{"instance missing type", `{"name": "x", "instances": [{"name": "i", "sizeMB": 1}]}`, `registry: instance "i" with empty type`},
		{"instance missing resources", `{"name": "x", "instances": [{"name": "i", "type": "t"}]}`, `registry: instance "i" needs resources [memory, cpu]`},
		{"unknown instance field", `{"name": "x", "instances": [{"name": "i", "type": "t", "resources": [1, 1], "color": "red"}]}`, `unknown field "color"`},
		{"unknown resource field", `{"name": "x", "instances": [{"name": "i", "type": "t", "resources": {"gpu": 1}}]}`, "cannot unmarshal object"},
		{"bad list", `{"name": "x", "instances": [{"name": "i", "type": "t", "resources": [1, 1], "adjustable": ["framerate"]}]}`, "cannot unmarshal array"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := parseSpace([]byte(c.src))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("err = %v, want %q", err, c.wantErr)
			}
		})
	}
}

func TestBuildDomainErrors(t *testing.T) {
	const a = `{"id": "a", "class": "pda", "memory": 1, "cpu": 1}`
	cases := []struct {
		name, src, wantErr string
	}{
		{"duplicate device", `{"name": "x", "devices": [` + a + `, ` + a + `]}`, `device "a": `},
		{"link to undeclared", `{"name": "x", "devices": [` + a + `], "links": [{"a": "a", "b": "ghost", "preset": "wlan"}]}`,
			"link a-ghost references an undeclared device"},
		{"uplink to undeclared", `{"name": "x", "uplinks": [{"device": "ghost", "preset": "wlan"}]}`,
			`uplink references undeclared device "ghost"`},
		{"installed on undeclared", `{"name": "x", "devices": [` + a + `], "instances": [{"name": "i", "type": "t", "resources": [1, 1], "installed": ["ghost"]}]}`,
			`instance "i": installed references undeclared device "ghost"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sp, err := parseSpace([]byte(c.src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, err = sp.buildDomain(domain.Options{Scale: 0.1})
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("err = %v, want %q", err, c.wantErr)
			}
		})
	}
}

// FuzzDecodeSpace: a space document decodes and passes its checks, or is
// refused, without a panic; and what decodes survives an encode/decode
// round trip unchanged, as far as the encoding tells values apart (an
// empty list or map and an absent one encode alike).
func FuzzDecodeSpace(f *testing.F) {
	for _, path := range []string{"../../testdata/lab.json", "../../examples/roaming/office.json", "../../examples/roaming/home.json"} {
		f.Add(readFile(f, path))
	}
	f.Add([]byte(explicitLinkSpace))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := parseSpace(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		again, err := parseSpace(enc)
		if err != nil {
			t.Fatalf("%s does not decode again: %v", enc, err)
		}
		if reenc, _ := json.Marshal(again); !bytes.Equal(reenc, enc) {
			t.Fatalf("round trip changed the space:\n%s\n%s", enc, reenc)
		}
	})
}
