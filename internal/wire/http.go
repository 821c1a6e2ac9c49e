package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"

	"ubiqos/internal/buildinfo"
	"ubiqos/internal/domain"
	"ubiqos/internal/incident"
	"ubiqos/internal/metrics"
)

// tracesDefault bounds a /traces listing when the caller does not pass
// ?n=.
const tracesDefault = 16

// NewHTTPHandler exposes the domain's observability surface over HTTP:
//
//	/metrics           Prometheus text exposition of the metrics registry,
//	                   including Go runtime health gauges refreshed per scrape
//	/healthz           liveness JSON (device/session counts, uptime, build
//	                   version)
//	/traces            recent configuration traces (?session= one session,
//	                   ?n= list length)
//	/flight            index of sessions with flight-recorder timelines
//	/flight/<session>  one session's fused timeline
//	/ledger            index of sessions with QoS outcome records, most
//	                   recently active first
//	/ledger/<session>  one session's delivered-vs-requested report —
//	                   admission verdict, degradation episodes, per-axis
//	                   deficit integrals, MTTR
//	/scorecard         per-class QoS outcome scorecards — recovered/
//	                   degraded/lost ratios, availability, deficit and
//	                   latency quantiles (?class= one class, ?window=
//	                   trailing latency window)
//	/incidents         the incident log, newest first, evidence stripped
//	/incidents/<id>    one incident in full — timeline, evidence bundle,
//	                   impact accounting (?format=postmortem renders the
//	                   markdown document)
//	/explain           index of sessions with decision-provenance records
//	/explain/<session> one session's decision provenance — discovery
//	                   candidates, OC corrections, solver search stats,
//	                   recovery ladder, placement diffs
//	/slo               burn-rate status of the declared service-level
//	                   objectives
//	/timeseries        capacity time series: ?metric= one series (with
//	                   optional ?window= trailing duration, e.g. 2m), no
//	                   metric lists the recorded series
//	/saturation        the capacity observatory's saturation verdict —
//	                   devices, links, classes, space state
//	/admission         the admission gate's status — effective state, SLO
//	                   burn, per-class policies and decision tallies
//	                   (?class= previews one class's verdict without
//	                   recording it; {"enabled": false} when the domain
//	                   runs without a gate)
//	/debug/pprof       the standard Go profiling endpoints
//
// Each route from /flight to /admission is a row of the wire op table:
// it answers with the op's JSON payload, or with ?format=text the text
// view qosctl prints; an empty path key is a 400, an unknown one a 404.
// All endpoints are read-only: anything but GET/HEAD gets a 405.
// It is mounted by qosconfigd's -http listener and by tests via
// httptest.NewServer.
func NewHTTPHandler(dom *domain.Domain) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet && r.Method != http.MethodHead {
				w.Header().Set("Allow", "GET, HEAD")
				writeError(w, http.StatusMethodNotAllowed, "method "+r.Method+" not allowed")
				return
			}
			h(w, r)
		})
	}
	handle("/metrics", func(w http.ResponseWriter, r *http.Request) {
		metrics.CollectRuntime(dom.Metrics, start)
		// Refresh the capacity gauges too, so a scrape between sampling
		// ticks still sees current headroom/residual values.
		dom.SampleCapacityNow()
		writeText(w, "text/plain; version=0.0.4; charset=utf-8", dom.Metrics.Exposition())
	})
	handle("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"ok":            true,
			"domain":        dom.Name,
			"devices":       len(dom.Devices.All()),
			"sessions":      len(dom.Configurator.SessionIDs()),
			"uptimeSeconds": time.Since(start).Seconds(),
			"version":       buildinfo.Get(),
		})
	})
	handle("/traces", func(w http.ResponseWriter, r *http.Request) {
		if session := r.URL.Query().Get("session"); session != "" {
			if td := dom.Tracer.Find(session); td != nil {
				writeJSON(w, http.StatusOK, td)
			} else {
				writeError(w, http.StatusNotFound, "no trace for session "+session)
			}
			return
		}
		n := tracesDefault
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v <= 0 {
				writeError(w, http.StatusBadRequest, "n must be a positive integer")
				return
			}
			n = v
		}
		writeJSON(w, http.StatusOK, dom.Tracer.Recent(n))
	})
	// The routes call dispatch, not Handle: HTTP reads are not counted as
	// wire requests.
	srv := &Server{dom: dom}
	for i := range ops {
		if o := &ops[i]; o.route != "" {
			serve := func(w http.ResponseWriter, r *http.Request) { srv.serveHTTP(o, w, r) }
			handle(o.route, serve)
			if o.key != "" {
				handle(o.route+"/", serve)
			}
		}
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// HTTPRoutes lists the paths NewHTTPHandler serves, for the daemon's
// startup log.
func HTTPRoutes() []string {
	routes := []string{"/metrics", "/healthz", "/traces"}
	for _, o := range ops {
		if o.route != "" {
			routes = append(routes, o.route)
		}
	}
	return append(routes, "/debug/pprof")
}

// serveHTTP answers a GET on an op's route. The request comes from the
// path and query; the reply is the op's JSON payload, or its text view
// with ?format=text (an incident's markdown postmortem with
// ?format=postmortem).
func (s *Server) serveHTTP(o *op, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	key := strings.TrimPrefix(r.URL.Path, o.route) // "", "/" or "/<key>"
	if key == "/" {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("missing %s: GET %s/<%s>", o.key, o.route, o.key))
		return
	}
	key = strings.TrimPrefix(key, "/")
	req := o.request(Request{}, func(arg string) string {
		if arg == o.key {
			return key
		}
		return q.Get(arg)
	})
	resp, err := s.dispatch(o, req)
	var se *statusError
	switch format := q.Get("format"); {
	case errors.As(err, &se):
		writeError(w, se.status, resp.Error)
	case err != nil:
		writeError(w, http.StatusInternalServerError, resp.Error)
	case format == "text" && o.text != nil:
		writeText(w, "text/plain; charset=utf-8", o.text(req, resp))
	case format == "postmortem" && resp.Incident != nil:
		writeText(w, "text/markdown; charset=utf-8", incident.Postmortem(*resp.Incident))
	default:
		writeJSON(w, http.StatusOK, o.json(req, resp))
	}
}

func writeText(w http.ResponseWriter, contentType, body string) {
	w.Header().Set("Content-Type", contentType)
	io.WriteString(w, body)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, Response{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
