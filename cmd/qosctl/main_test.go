package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ubiqos/internal/composer"
	"ubiqos/internal/qos"
)

func TestParseQoS(t *testing.T) {
	tests := []struct {
		in      string
		want    qos.Vector
		wantErr bool
	}{
		{"", nil, false},
		{"framerate=38-44", qos.V(qos.P("framerate", qos.Range(38, 44))), false},
		{"framerate=40", qos.V(qos.P("framerate", qos.Scalar(40))), false},
		{"format=MPEG", qos.V(qos.P("format", qos.Symbol("MPEG"))), false},
		{
			"framerate=38-44, format=MPEG",
			qos.V(qos.P("framerate", qos.Range(38, 44)), qos.P("format", qos.Symbol("MPEG"))),
			false,
		},
		{"noequals", nil, true},
		{"=5", nil, true},
		{"r=44-38", nil, true}, // inverted range
		{"x=1,x=2", qos.V(qos.P("x", qos.Scalar(2))), false}, // last wins via With
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := parseQoS(tt.in)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tt.wantErr)
			}
			if err == nil && !got.Equal(tt.want) {
				t.Errorf("parseQoS(%q) = %s, want %s", tt.in, got, tt.want)
			}
		})
	}
}

func TestLoadAppBuiltins(t *testing.T) {
	ag, err := loadApp("audio")
	if err != nil || ag == nil || ag.NodeCount() != 2 {
		t.Errorf("audio = %v nodes, err %v", ag.NodeCount(), err)
	}
	ag, err = loadApp("conf")
	if err != nil || ag.NodeCount() != 6 {
		t.Errorf("conf = %v nodes, err %v", ag.NodeCount(), err)
	}
	if _, err := loadApp("/does/not/exist.json"); err == nil {
		t.Error("missing file should fail")
	}
}

func TestLoadAppJSONFile(t *testing.T) {
	// The repository ships the mobile audio graph; resolve it relative to
	// this test.
	ag, err := loadApp(filepath.Join("..", "..", "testdata", "mobile-audio.json"))
	if err != nil {
		t.Fatal(err)
	}
	if ag.NodeCount() != 2 || ag.Node("player").Pin != composer.ClientRole || ag.Node("server").Pin != "desktop1" {
		t.Errorf("mobile-audio.json = %d nodes, player pin %q", ag.NodeCount(), ag.Node("player").Pin)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "app.json")
	data := `{"nodes":[{"id":"a","spec":{"type":"t"}},{"id":"b","spec":{"type":"t"}}],
	          "edges":[{"from":"a","to":"b","throughputMbps":2}]}`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	ag, err = loadApp(path)
	if err != nil {
		t.Fatal(err)
	}
	if ag.NodeCount() != 2 || len(ag.Edges()) != 1 {
		t.Errorf("json app = %d nodes, %d edges", ag.NodeCount(), len(ag.Edges()))
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadApp(bad); err == nil {
		t.Error("malformed JSON should fail")
	}
}

func TestRunRejectsUnknownVerb(t *testing.T) {
	err := run(runArgs{verb: "fly", addr: "127.0.0.1:1"}) // dial fails first
	if err == nil {
		t.Error("unreachable daemon should fail")
	}
	if !strings.Contains(err.Error(), "dial") {
		t.Errorf("err = %v", err)
	}
}
