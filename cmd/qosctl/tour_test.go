package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ubiqos/internal/buildinfo"
	"ubiqos/internal/experiments"
	"ubiqos/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/tour.golden from this run")

// startDaemon boots the audio smart space with the stock admission gate
// behind a wire server on loopback and returns the server's address.
func startDaemon(t *testing.T) string {
	t.Helper()
	dom, err := experiments.BuildAudioSpace(0.05)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dom.Close)
	dom.EnableAdmissionGate(nil)
	srv, err := wire.NewServer(dom)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr
}

// qosctl runs one command line and returns what it printed, followed by
// the error it failed with, if any.
func qosctl(t *testing.T, argv ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- string(b)
	}()
	runErr := run(parseArgs(argv))
	w.Close()
	os.Stdout = stdout
	out := <-printed
	if runErr != nil {
		out += "error: " + runErr.Error() + "\n"
	}
	return out
}

// masks blank out what differs between two runs of the same tour:
// timestamps, measured durations and rates, trace IDs, build identity.
// The last two take the padding of an aligned column with the number it
// masks, so a value that gains or loses a digit keeps the line the same.
var masks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`(?m)^  rate .* fps\n`), ""},
	{regexp.MustCompile(`(?m)^ *"rates": \{[^}]*\},\n`), ""},
	{regexp.MustCompile(`(startPos"?[=:] ?)\d+`), "${1}<n>"},
	{regexp.MustCompile(`\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d+)?(Z|[+-]\d\d:\d\d)`), "<time>"},
	{regexp.MustCompile(`\d\d:\d\d:\d\d\.\d{3}`), "<clock>"},
	{regexp.MustCompile(`-?\d+\.\d+(e[-+]?\d+)?`), "<num>"},
	{regexp.MustCompile(`\b[0-9a-f]{16,}\b`), "<id>"},
	{regexp.MustCompile(`"(goVersion|path|version|revision)": "[^"]*"`), `"$1": "<build>"`},
	{regexp.MustCompile(`\b\d{10,}\b`), "<num>"},
	{regexp.MustCompile(`(\S) {2,}<num>`), "$1 <num>"},
	{regexp.MustCompile(`<num> {2,}`), "<num> "},
}

func mask(s string) string {
	s = strings.ReplaceAll(s, buildinfo.Get().String(), "<build>")
	for _, m := range masks {
		s = m.re.ReplaceAllString(s, m.with)
	}
	return s
}

// tour is every verb in text and -json form, in an order that gives each
// one something to show: sessions exist before they are queried, the
// crashed device rejoins, the registered instance is withdrawn.
var tour = [][]string{
	{"devices"}, {"devices", "-json"},
	{"services"}, {"services", "-json"},
	{"check", "-client", "desktop2"}, {"check", "-client", "jornada", "-json"},
	{"start", "-session", "music", "-client", "desktop2", "-qos", "framerate=38-44", "-class", "media"},
	{"start", "-session", "news", "-client", "desktop3", "-json"},
	{"session", "-session", "music"}, {"session", "-session", "music", "-json"},
	{"session", "-session", "music", "-dot"},
	{"sessions"}, {"sessions", "-json"},
	{"switch", "-session", "music", "-to", "jornada"},
	{"switch", "-session", "news", "-to", "desktop2", "-json"},
	{"trace", "-session", "music"}, {"trace", "-session", "music", "-json"},
	{"flight", "-session", "music"}, {"flight", "-session", "music", "-json"},
	{"flight"}, {"flight", "-json"},
	{"explain", "-session", "music"}, {"explain", "-session", "music", "-json"},
	{"explain"}, {"explain", "-json"},
	{"ledger", "-session", "music"}, {"ledger", "-session", "music", "-json"},
	{"ledger"}, {"ledger", "-json"},
	{"report"}, {"report", "-json"},
	{"report", "-class", "media", "-window", "1h"}, {"report", "-class", "ghost"},
	{"report", "-window", "soon"},
	{"slo"}, {"slo", "-json"},
	{"stats"}, {"stats", "-json"},
	{"timeseries"}, {"timeseries", "-json"},
	{"timeseries", "-metric", "space_headroom_ratio"},
	{"timeseries", "-metric", "space_headroom_ratio", "-json"},
	{"timeseries", "-metric", "nope"},
	{"admit"}, {"admit", "-json"},
	{"admit", "-class", "voice"}, {"admit", "-class", "voice", "-json"},
	{"top", "-once"}, {"top", "-once", "-json"},
	{"incidents"}, {"incidents", "-json"},
	{"incidents", "-id", "INC-1"}, {"postmortem", "INC-1"}, {"postmortem", "-json", "INC-1"},
	{"postmortem"},
	{"crash", "-to", "desktop3"}, {"rejoin", "-to", "desktop3"},
	{"crash", "-to", "desktop3", "-json"}, {"rejoin", "-to", "desktop3", "-json"},
	{"register", "-instance", "../../testdata/equalizer-instance.json"},
	{"unregister", "-name", "late-equalizer-1"},
	{"register", "-instance", "../../testdata/equalizer-instance.json", "-installed", "*", "-json"},
	{"unregister", "-name", "late-equalizer-1", "-json"},
	{"unregister"}, {"switch", "-session", "music"},
	{"stop", "-session", "music"}, {"stop", "-session", "news", "-json"},
	{"stop", "-session", "music"},
	{"version"}, {"version", "-json"},
	{"fly"},
}

// TestTour drives every verb against an in-process daemon and compares
// what qosctl prints with testdata/tour.golden (go test -update rewrites
// it). Only the masked fields may differ between runs.
func TestTour(t *testing.T) {
	addr := startDaemon(t)
	var b strings.Builder
	for _, cmd := range tour {
		argv := append([]string{cmd[0], "-addr", addr}, cmd[1:]...)
		b.WriteString("$ qosctl " + strings.Join(cmd, " ") + "\n")
		b.WriteString(mask(qosctl(t, argv...)))
	}
	got := b.String()
	golden := filepath.Join("testdata", "tour.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output differs from %s in length: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// TestFlagsAroundIncidentID: flags take effect on either side of the
// incident ID, the one positional argument.
func TestFlagsAroundIncidentID(t *testing.T) {
	addr := startDaemon(t)
	for _, argv := range [][]string{
		{"postmortem", "-json", "-addr", addr, "INC-3"},
		{"postmortem", "INC-3", "-json", "-addr", addr},
		{"incidents", "INC-3", "-addr", addr, "-json"},
	} {
		a := parseArgs(argv)
		if a.addr != addr || !a.asJSON || a.flags["json"] != "true" || a.flags["id"] != "INC-3" {
			t.Errorf("%v parsed as addr %q, json %v, id %q", argv, a.addr, a.asJSON, a.flags["id"])
		}
		// The error comes from the daemon at -addr, not from a dial to the
		// default address.
		if out := qosctl(t, argv...); out != "error: wire: server error: wire: no incident \"INC-3\"\n" {
			t.Errorf("%v printed %q", argv, out)
		}
	}
}
