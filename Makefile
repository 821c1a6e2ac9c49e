GO ?= go

.PHONY: verify fmt-check vet build test race bench-smoke bench-go bench bench-faults bench-obs bench-warm bench-capacity bench-autoscale bench-ledger bench-incident clean

# verify is the tier-1 gate (ROADMAP.md): formatting, static checks,
# build, and the full test suite.
verify: fmt-check vet build test

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt required for:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the race detector over the concurrent subsystems: lease
# renew/expire, publish/subscribe fan-out, wire request handling,
# multi-session configuration, the fault-injection/recovery path, and
# the observability layer (tracer ring, metrics registry, structured
# logging, flight recorder, explain recorder, capacity observatory,
# outcome ledger).
race:
	$(GO) test -race ./internal/registry ./internal/eventbus ./internal/core ./internal/distributor ./internal/experiments ./internal/par ./internal/wire ./internal/faultinject ./internal/domain ./internal/trace ./internal/metrics ./internal/flight ./internal/obslog ./internal/explain ./internal/capacity ./internal/admission ./internal/autoscale ./internal/ledger ./internal/incident

# bench-smoke builds the over-the-wire benchmark (a module of its own,
# so `go build ./...` does not reach it), runs its tests and runs every
# workload at tiny counts with every correctness check on: reservation
# conservation, FitInto and cost agreement of every solver output, exact
# repeats on `fill`. A few seconds; the timings it prints mean nothing.
bench-smoke:
	cd benchmark && $(GO) test ./... && $(GO) run . -smoke

# bench-go runs the Go micro-benchmarks of the request path once each —
# request decode and start reply (wire), abstract-graph decode (root
# package), problem signature (distributor) — so that they keep building
# and running; one iteration measures nothing.
bench-go:
	$(GO) test . ./internal/wire ./internal/composer ./internal/registry ./internal/distributor -run '^$$' -bench 'RequestDecode|StartReply|AbstractGraphDecode|Signature' -benchtime 1x

# bench runs the repository's one benchmark (BENCHMARK.json, benchmark/):
# all four over-the-wire workloads with every end-to-end and per-layer
# metric and every correctness check, twice, printing the results. Run
# parent and change alternately for a before/after; the box drifts.
bench:
	cd benchmark && $(GO) run . -repeat 2

# bench-faults runs the seeded chaos drill (crash 2 of 6 devices
# mid-session plus a link degrade and a stall) and writes
# BENCH_faults.json with recovery latency quantiles and
# recovered/degraded/lost counts. It exits non-zero if any component is
# still bound to a dead device after recovery settles.
bench-faults:
	$(GO) run ./cmd/benchfaults -o BENCH_faults.json

# bench-warm measures incremental reconfiguration at 1x/10x/50x Table 1
# graph sizes: after a device crash, a cold branch-and-bound re-solve of
# the whole graph versus a warm re-solve seeded with the broken
# incumbent, writing BENCH_warm.json. It exits non-zero if the warm
# re-solve does not beat cold by at least 3x p95 explored nodes at the
# 10x and 50x scales.
bench-warm:
	$(GO) run ./cmd/benchwarm -o BENCH_warm.json

# bench-obs times the observability primitives on the hot configuration
# path — structured log calls, flight-recorder appends, trace spans — in
# instrumented and no-op form, writing BENCH_obs.json. The no-op ceiling
# shows what disabled instrumentation costs (it must stay within noise).
bench-obs:
	$(GO) run ./cmd/benchobs -o BENCH_obs.json

# bench-capacity times the capacity observatory's hot paths — labeled
# series lookup+inc versus the unlabeled registry baseline, cached
# handles, meter marks, time-series ring pushes — writing
# BENCH_capacity.json. It exits non-zero if the labeled per-op lookup
# costs more than 2x the unlabeled one.
bench-capacity:
	$(GO) run ./cmd/benchcapacity -o BENCH_capacity.json

# bench-autoscale runs the flash-crowd drill — a 5x arrival-rate spike
# against a space sized for a quarter of it — open loop and closed loop
# (admission gate + instance autoscaler), writing BENCH_autoscale.json.
# It exits non-zero unless the closed-loop run loses zero sessions to
# capacity exhaustion and ends with the configure-latency SLO unburned.
bench-autoscale:
	$(GO) run ./cmd/benchautoscale -o BENCH_autoscale.json

# bench-ledger runs the mixed-class outcome drill — voice / media /
# background sessions on the chaos space, one clean completion per class,
# seeded faults mid-stream — and writes BENCH_ledger.json with the
# outcome ledger's per-class scorecards (recovered/degraded/lost ratios,
# availability, per-axis QoS-deficit quantiles). It exits non-zero if any
# class is missing its scorecard or a ratio leaves [0,1].
bench-ledger:
	$(GO) run ./cmd/benchledger -o BENCH_ledger.json

# bench-incident runs the incident-correlation chaos drill — mixed-class
# sessions, seeded faults with paired undos, a damped recovery supervisor
# — and writes BENCH_incident.json with the incident log, the wall-clock
# detection latency, and the engine's idle-path microbenchmarks. It exits
# non-zero unless an incident opens citing >= 3 signal sources, passes
# through mitigating, resolves with nonzero impact, and the idle Observe
# path stays allocation-free.
bench-incident:
	$(GO) run ./cmd/benchincident -o BENCH_incident.json

# clean removes build outputs only. Checked-in benchmark artifacts
# (BENCH_*.json) are part of the repo's recorded results and are
# regenerated explicitly via `make bench-faults`, `make bench-warm` and
# the other drill targets, never deleted here.
clean:
	rm -rf bin
	$(GO) clean ./...
