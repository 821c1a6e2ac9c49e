// Command qosctl is the client CLI for qosconfigd.
//
// Usage:
//
//	qosctl devices|services|sessions|metrics [-addr 127.0.0.1:7420]
//	qosctl trace   [-session ID] [-json]                 (span tree of a configuration)
//	qosctl flight  [-session ID] [-json]                 (fused session timeline; no -session lists sessions)
//	qosctl slo     [-json]                               (burn-rate status of the service-level objectives)
//	qosctl explain [-session ID] [-json]                 (decision provenance: discovery candidates, OC
//	                                                      corrections, solver stats, recovery ladder,
//	                                                      placement diffs; no -session lists sessions)
//	qosctl stats   [-json]                               (plan-cache hit/miss ledger and warm/cold solve split)
//	qosctl version [-json]                               (client and daemon build identity)
//	qosctl start   -session ID [-app audio|conf|FILE.json] [-client DEV] [-qos "framerate=38-44"]
//	qosctl check   [-app ...] [-client DEV] [-qos ...]   (dry-run composition)
//	qosctl session -session ID
//	qosctl switch  -session ID -to DEV
//	qosctl stop    -session ID
//	qosctl crash   -to DEV                               (simulate a device crash)
//	qosctl rejoin  -to DEV                               (bring a crashed device back)
//	qosctl register   -instance FILE.json [-installed "dev1,dev2"|"*"]
//	qosctl unregister -name INSTANCE
//	qosctl top        [-interval 2s] [-once] [-json]     (live capacity dashboard: devices, links,
//	                                                      classes, saturation verdict; refreshes until
//	                                                      interrupted)
//	qosctl timeseries [-metric NAME] [-window 2m] [-json] (on-daemon capacity time series; no -metric
//	                                                      lists the recorded series)
//	qosctl admit      [-class NAME] [-json]              (admission-gate status: effective saturation
//	                                                      state, SLO burn, per-class policies and decision
//	                                                      tallies; -class previews one class's verdict
//	                                                      without recording it)
//	qosctl report     [-class NAME] [-window 2m] [-json] (per-class QoS outcome scorecards: recovered/
//	                                                      degraded/lost ratios, availability, per-axis
//	                                                      deficit quantiles; -window restricts the
//	                                                      latency/deficit quantiles to the trailing
//	                                                      duration)
//	qosctl ledger     [-session ID] [-json]              (per-session delivered-vs-requested report:
//	                                                      admission verdict, degradation episodes,
//	                                                      deficit integrals, MTTR; no -session lists
//	                                                      recorded sessions)
//	qosctl incidents  [-id INC-N] [-json]                (correlated incident log: slo-burn, saturation,
//	                                                      fault-storm; -id shows one incident's timeline,
//	                                                      evidence bundle and impact accounting)
//	qosctl postmortem INC-N [-json]                      (shareable markdown postmortem for one incident)
//
// Flags may come before or after the incident ID that incidents and
// postmortem take as their one positional argument. Each verb is a row of
// internal/wire's op table, which builds its request from the flags and
// renders the reply: -json prints the op's JSON payload, the same bytes
// its HTTP route serves.
//
// The -app flag accepts the two built-in application graphs ("audio" for
// mobile audio-on-demand, "conf" for video conferencing) or a path to an
// abstract service graph in the JSON the wire carries
// (testdata/mobile-audio.json). The user's QoS requirement is not part of
// the graph: the -qos flag gives it, as comma-separated name=value
// requirements where value is a number, a lo-hi range, or a symbol.
//
// The -timeout flag bounds each request round-trip (0 = wait forever);
// -retries re-sends a timed-out or transport-failed request on a fresh
// connection that many times before giving up.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"ubiqos/internal/buildinfo"
	"ubiqos/internal/composer"
	"ubiqos/internal/experiments"
	"ubiqos/internal/incident"
	"ubiqos/internal/qos"
	"ubiqos/internal/registry"
	"ubiqos/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qosctl: ")
	if len(os.Args) < 2 || strings.HasPrefix(os.Args[1], "-") {
		log.Fatal("usage: qosctl VERB [flags]\n\n" +
			"  session ops:    start  check  session  sessions  switch  stop\n" +
			"                  devices  services  register  unregister  crash  rejoin\n" +
			"  observability:  metrics  trace  flight  slo  explain  stats  ledger\n" +
			"                  report  incidents  postmortem  version\n" +
			"  capacity:       top  timeseries  admit\n\n" +
			"  common flags: -addr HOST:PORT  -timeout DUR (0 = wait forever)  -retries N\n" +
			"  run 'go doc ubiqos/cmd/qosctl' for the full per-verb flag list")
	}
	if err := run(parseArgs(os.Args[1:])); err != nil {
		log.Fatal(err)
	}
}

// runArgs carries the parsed command line.
type runArgs struct {
	verb, addr string
	// flags holds every flag's value by name: the verb's op reads the
	// ones it needs.
	flags                                 map[string]string
	app, userQoS, instanceFile, installed string
	timeout, interval                     time.Duration
	retries                               int
	asJSON, dot, once                     bool
}

// parseArgs parses `VERB [flags] [ID] [flags]`: flags may sit on either
// side of the incident ID, the one positional argument.
func parseArgs(argv []string) runArgs {
	a := runArgs{verb: argv[0], flags: map[string]string{}}
	fs := flag.NewFlagSet("qosctl", flag.ExitOnError)
	fs.StringVar(&a.addr, "addr", "127.0.0.1:7420", "qosconfigd address")
	fs.String("session", "", "session ID")
	fs.StringVar(&a.app, "app", "audio", "application graph: audio, conf, or a JSON file path")
	fs.String("client", "", "client (portal) device")
	fs.String("to", "", "handoff target device")
	fs.StringVar(&a.userQoS, "qos", "", `user QoS, e.g. "framerate=38-44,format=MPEG"`)
	fs.BoolVar(&a.dot, "dot", false, "print the session's service graph in Graphviz dot syntax")
	fs.BoolVar(&a.asJSON, "json", false, "print the reply as JSON instead of text")
	fs.StringVar(&a.instanceFile, "instance", "", "service instance JSON file (register)")
	fs.StringVar(&a.installed, "installed", "", `comma-separated devices the instance is pre-installed on ("*" = all)`)
	fs.String("name", "", "instance name (unregister)")
	fs.DurationVar(&a.timeout, "timeout", 5*time.Second, "per-request deadline (0 = wait forever)")
	fs.IntVar(&a.retries, "retries", 0, "retry a timed-out/failed request this many times")
	fs.DurationVar(&a.interval, "interval", 2*time.Second, "refresh interval (top)")
	fs.BoolVar(&a.once, "once", false, "render a single frame and exit (top)")
	fs.String("metric", "", "capacity time-series metric (timeseries; empty lists recorded series)")
	fs.String("window", "", `trailing window for timeseries and report, e.g. "2m" (empty = unbounded)`)
	fs.String("class", "", "session class (start); class to preview (admit) or report (report)")
	fs.String("id", "", "incident ID, e.g. INC-3 (incidents/postmortem)")

	var positional []string
	for rest := argv[1:]; ; rest = fs.Args()[1:] {
		fs.Parse(rest)
		if fs.NArg() == 0 {
			break
		}
		positional = append(positional, fs.Arg(0))
	}
	fs.VisitAll(func(f *flag.Flag) { a.flags[f.Name] = f.Value.String() })
	if a.flags["id"] == "" && len(positional) > 0 {
		// `qosctl postmortem INC-3` reads better than -id.
		a.flags["id"] = positional[0]
	}
	return a
}

func run(a runArgs) error {
	c, err := wire.DialWith(a.addr, wire.Options{Timeout: a.timeout, Retries: a.retries})
	if a.verb == "version" {
		// The client's own identity prints even when no daemon is running.
		return printVersion(a, c, err)
	}
	if err != nil {
		return err
	}
	defer c.Close()
	if a.verb == "top" {
		return top(c, a)
	}
	req, err := request(a)
	if err != nil {
		return err
	}
	var out io.Writer = os.Stdout
	if a.verb == "session" && a.dot {
		out = io.Discard // the Graphviz rendering replaces the text view
	}
	resp, err := c.Verb(out, a.verb, a.flags, req)
	if err != nil {
		return err
	}
	switch a.verb {
	case "session":
		if a.dot {
			fmt.Print(resp.Session.DOT)
		}
	case "stop":
		fmt.Println("stopped", a.flags["session"])
	case "crash":
		fmt.Printf("device %s down; %d session(s) handed to the recovery supervisor: %v\n", a.flags["to"], len(resp.Stranded), resp.Stranded)
	case "rejoin":
		fmt.Printf("device %s rejoined the smart space\n", a.flags["to"])
	case "register":
		fmt.Println("registered", req.Instance.Name)
	case "unregister":
		fmt.Println("unregistered", a.flags["name"])
	}
	return nil
}

// request builds what a verb's request carries beyond its flag values:
// the app graph and QoS of start and check, the instance of register.
func request(a runArgs) (wire.Request, error) {
	switch a.verb {
	case "start", "check":
		ag, err := loadApp(a.app)
		if err != nil {
			return wire.Request{}, err
		}
		uq, err := parseQoS(a.userQoS)
		if err != nil {
			return wire.Request{}, err
		}
		return wire.Request{App: ag, UserQoS: uq}, nil
	case "register":
		if a.instanceFile == "" {
			return wire.Request{}, fmt.Errorf("register requires -instance FILE.json")
		}
		data, err := os.ReadFile(a.instanceFile)
		if err != nil {
			return wire.Request{}, err
		}
		var inst registry.Instance
		if err := json.Unmarshal(data, &inst); err != nil {
			return wire.Request{}, fmt.Errorf("parse instance: %w", err)
		}
		req := wire.Request{Instance: &inst}
		if a.installed != "" {
			for _, d := range strings.Split(a.installed, ",") {
				req.InstalledOn = append(req.InstalledOn, strings.TrimSpace(d))
			}
		}
		return req, nil
	}
	return wire.Request{}, nil
}

// top renders the daemon's capacity dashboard, refreshing every
// -interval until interrupted (-once renders one frame, -json emits the
// raw report instead of the table).
func top(c *wire.Client, a runArgs) error {
	interval := a.interval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	for {
		var frame strings.Builder
		if _, err := c.Verb(&frame, a.verb, a.flags, wire.Request{}); err != nil {
			return err
		}
		if !a.asJSON {
			if !a.once {
				// Home the cursor and clear, like top(1), so the view
				// refreshes in place.
				fmt.Print("\033[H\033[2J")
			}
			fmt.Println(incidentsHeader(c))
		}
		fmt.Print(frame.String())
		if a.once {
			return nil
		}
		time.Sleep(interval)
	}
}

// incidentsHeader summarizes the incident log for the top dashboard:
// open count plus the worst open severity. A daemon predating the
// incidents op (or a transport hiccup) degrades to a quiet placeholder
// rather than killing the dashboard loop.
func incidentsHeader(c *wire.Client) string {
	resp, err := c.Call(wire.Request{Op: wire.OpIncidents})
	if err != nil {
		return "incidents: unavailable"
	}
	open := 0
	worst := incident.SevNone
	for _, inc := range resp.Incidents {
		if inc.State == incident.StateResolved {
			continue
		}
		open++
		if inc.Severity > worst {
			worst = inc.Severity
		}
	}
	if open == 0 {
		return "incidents: none"
	}
	return fmt.Sprintf("incidents: %d open (worst %s)", open, worst)
}

// printVersion reports the client's build identity and, when the daemon
// at -addr answers (c is nil when dialing it failed with err), the
// daemon's too. An unreachable daemon is not an error: version must work
// offline.
func printVersion(a runArgs, c *wire.Client, err error) error {
	client := buildinfo.Get()
	var daemon *buildinfo.Info
	if c != nil {
		defer c.Close()
		var resp wire.Response
		if resp, err = c.Call(wire.Request{Op: wire.OpVersion}); err == nil {
			daemon = resp.Version
		}
	}
	if a.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{"client": client, "daemon": daemon})
	}
	fmt.Println("qosctl    ", client.String())
	if daemon != nil {
		fmt.Println("qosconfigd", daemon.String())
	} else {
		fmt.Printf("qosconfigd unreachable at %s (%v)\n", a.addr, err)
	}
	return nil
}

// loadApp resolves the -app flag to an abstract service graph.
func loadApp(name string) (*composer.AbstractGraph, error) {
	switch name {
	case "audio":
		return experiments.AudioOnDemandApp(), nil
	case "conf":
		return experiments.VideoConferencingApp(), nil
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("read app graph: %w", err)
	}
	var ag composer.AbstractGraph
	if err := json.Unmarshal(data, &ag); err != nil {
		return nil, fmt.Errorf("parse app graph: %w", err)
	}
	return &ag, nil
}

// parseQoS parses "name=value,..." where value is a number, lo-hi range,
// or symbol.
func parseQoS(s string) (qos.Vector, error) {
	if s == "" {
		return nil, nil
	}
	var v qos.Vector
	for _, part := range strings.Split(s, ",") {
		name, raw, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad QoS term %q (want name=value)", part)
		}
		if lo, hi, ok := strings.Cut(raw, "-"); ok {
			l, errL := strconv.ParseFloat(lo, 64)
			h, errH := strconv.ParseFloat(hi, 64)
			if errL == nil && errH == nil {
				if !qos.ValidRange(l, h) {
					return nil, fmt.Errorf("bad range %q", raw)
				}
				v = v.With(name, qos.Range(l, h))
				continue
			}
		}
		if n, err := strconv.ParseFloat(raw, 64); err == nil {
			v = v.With(name, qos.Scalar(n))
			continue
		}
		v = v.With(name, qos.Symbol(raw))
	}
	if err := v.Validate(); err != nil {
		return nil, err
	}
	return v, nil
}
