// Command qosconfigd runs a domain server — the smart space's
// infrastructure node hosting service discovery, the event service, the
// component repository, and the dynamic QoS-aware service configuration
// model — and exposes it over a newline-delimited JSON TCP protocol for
// qosctl.
//
// Usage:
//
//	qosconfigd [-addr 127.0.0.1:7420] [-http 127.0.0.1:7421] [-space audio|conf]
//	           [-config FILE.json] [-scale 0.1] [-place heuristic|optimal]
//	           [-chaos "seed=7,crashes=2,window=30s,recover=10s"] [-admission]
//
// The daemon boots one of the paper's two testbed smart spaces — "audio"
// (three desktops + a Jornada PDA with the mobile audio-on-demand
// components) or "conf" (three workstations with the video-conferencing
// components, downloaded on demand) — or, with -config, an arbitrary
// smart space described in a JSON space document (see internal/spec and
// testdata/lab.json).
//
// The -http listener serves the observability surface: /metrics
// (Prometheus text, including labeled per-device/per-link/per-class
// capacity gauges), /healthz, /traces, /flight (per-session flight
// recorder timelines), /explain (per-session decision provenance),
// /ledger (per-session delivered-vs-requested outcome reports),
// /scorecard (per-class QoS outcome scorecards; the payload behind
// `qosctl report`), /slo (objective burn rates), /timeseries (on-daemon
// capacity rings — ?metric= one series, ?window= trailing duration),
// /saturation (the capacity observatory's verdict; the payload behind
// `qosctl top`), /admission (the admission gate's status and class
// previews; the payload behind `qosctl admit`), /incidents (the
// correlated incident log — /incidents/<id> one incident's evidence
// bundle, ?format=postmortem the markdown document; the payload behind
// `qosctl incidents` and `qosctl postmortem`), and /debug/pprof.
// Set -http "" to disable it. The -log flag sets the minimum level of
// the structured log stream on stderr.
//
// With -admission, a saturation-aware admission gate (stock per-class
// policies: voice admits at full quality until the space saturates,
// background sheds optionals once capacity is approaching) fronts the
// configuration pipeline: rejected starts fail with a retry-after hint
// instead of burning the configure-latency objective. Inspect it with
// `qosctl admit` or GET /admission.
//
// The daemon always runs a recovery supervisor: sessions broken by device
// churn or resource fluctuations are re-configured automatically with
// backed-off retries. The -chaos flag additionally injects a seeded fault
// schedule (device crashes/rejoins, link degradations, discovery flaps,
// transcoder stalls — see internal/faultinject.ParseSpec for the syntax)
// so the self-healing path can be exercised against a live daemon.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"ubiqos/internal/core"
	"ubiqos/internal/domain"
	"ubiqos/internal/experiments"
	"ubiqos/internal/faultinject"
	"ubiqos/internal/obslog"
	"ubiqos/internal/spec"
	"ubiqos/internal/wire"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("qosconfigd: ")
	addr := flag.String("addr", "127.0.0.1:7420", "listen address")
	httpAddr := flag.String("http", "127.0.0.1:7421", `observability HTTP address ("" disables)`)
	space := flag.String("space", "audio", `built-in smart space to boot: "audio" or "conf"`)
	config := flag.String("config", "", "JSON space document (overrides -space)")
	scale := flag.Float64("scale", 0.1, "emulation time scale (1 = real time)")
	place := flag.String("place", "heuristic", "placement algorithm: heuristic or optimal")
	chaos := flag.String("chaos", "", `fault-injection spec, e.g. "seed=7,crashes=2,window=30s" ("" disables)`)
	chaosOn := flag.Bool("chaos-default", false, "inject the default fault schedule (same as -chaos with an empty spec)")
	logLevel := flag.String("log", "info", "minimum structured-log level on stderr: debug, info, warn, or error")
	admit := flag.Bool("admission", false, "front the pipeline with the saturation-aware admission gate (stock per-class policies)")
	flag.Parse()

	if err := run(*addr, *httpAddr, *space, *config, *scale, *place, *chaos, *chaosOn, *logLevel, *admit); err != nil {
		log.Fatal(err)
	}
}

func run(addr, httpAddr, space, config string, scale float64, place, chaos string, chaosOn bool, logLevel string, admit bool) error {
	placeFn, err := experiments.PlaceByName(place)
	if err != nil {
		return err
	}
	var dom *domain.Domain
	switch {
	case config != "":
		var data []byte
		data, err = os.ReadFile(config)
		if err != nil {
			return err
		}
		dom, err = spec.LoadSpace(data, domain.Options{Scale: scale, Place: placeFn})
	case space == "audio":
		dom, err = experiments.BuildAudioSpaceWith(scale, placeFn)
	case space == "conf":
		dom, err = experiments.BuildConfSpaceWith(scale, placeFn)
	default:
		return fmt.Errorf("unknown space %q (want audio or conf, or use -config)", space)
	}
	if err != nil {
		return err
	}
	defer dom.Close()

	// Mirror the structured log stream (which always feeds the flight
	// recorder at debug level) onto stderr at the operator's chosen level.
	min := obslog.ParseLevel(logLevel)
	stderr := obslog.NewWriterSink(os.Stderr)
	dom.Log.AddSink(obslog.FuncSink(func(rec obslog.Record) {
		if rec.Level >= min {
			stderr.Write(rec)
		}
	}))

	if admit {
		// Stock policies; installed before the server listens, so no
		// Configure can race the un-synchronized gate swap.
		dom.EnableAdmissionGate(nil)
		log.Print("admission gate fronting the pipeline (stock per-class policies)")
	}

	srv, err := wire.NewServer(dom)
	if err != nil {
		return err
	}
	bound, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	defer srv.Close()
	log.Printf("domain %s serving on %s (%d devices, %d services, scale %g, place %s)",
		dom.Name, bound, dom.Devices.Len(), dom.Registry.Len(), scale, place)

	// Self-healing: re-run the configuration protocol for sessions broken
	// by runtime changes.
	sup, err := core.NewSupervisor(dom.Configurator, core.SupervisorOptions{Bus: dom.Bus})
	if err != nil {
		return err
	}
	defer sup.Stop()
	log.Print("recovery supervisor running")

	stopChaos := make(chan struct{})
	defer close(stopChaos)
	if chaos != "" || chaosOn {
		if err := startChaos(dom, chaos, stopChaos); err != nil {
			return err
		}
	}

	if httpAddr != "" {
		ln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return err
		}
		defer ln.Close()
		go http.Serve(ln, wire.NewHTTPHandler(dom))
		log.Printf("observability on http://%s (%s)", ln.Addr(), strings.Join(wire.HTTPRoutes(), " "))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	return nil
}

// startChaos generates the seeded fault schedule against the booted
// space and injects it in the background.
func startChaos(dom *domain.Domain, spec string, stop <-chan struct{}) error {
	params, err := faultinject.ParseSpec(spec)
	if err != nil {
		return err
	}
	if params.Crashes == 0 && params.Degrades == 0 && params.Flaps == 0 && params.Stalls == 0 {
		// An empty spec still means "inject something": default to the
		// acceptance drill of two crashes plus one link degradation.
		params.Crashes, params.Degrades = 2, 1
	}
	// PDA-class devices are exempt from crashes and stalls: they are the
	// portals users hold (see faultinject.Params.SetTargets).
	params.SetTargets(dom)
	sched, err := faultinject.Generate(params)
	if err != nil {
		return err
	}
	inj, err := faultinject.NewInjector(dom, sched)
	if err != nil {
		return err
	}
	log.Printf("chaos: injecting %d faults over %v (seed %d)", len(sched.Faults), params.Duration, params.Seed)
	go func() {
		if err := inj.Run(dom.Net.Scale(), 0, stop); err != nil {
			log.Printf("chaos: %v", err)
		}
	}()
	return nil
}
