GO ?= go

.PHONY: verify fmt-check vet build test race bench-smoke bench-go bench clean

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

# race runs the race detector over every package: among them the
# concurrent subsystems — publish/subscribe fan-out, wire request
# handling, multi-session configuration, the fault-injection/recovery
# path, the session runtime's event loop (stopped and queried from
# outside it), the observability layer (tracer ring, metrics registry,
# structured logging, the session store and its flight, explain and
# ledger views, capacity observatory), and qosctl driving an in-process
# daemon.
race:
	$(GO) test -race ./...

# bench-smoke builds the over-the-wire benchmark (a module of its own,
# so `go build ./...` does not reach it), runs its tests and runs every
# workload at tiny counts with every correctness check on: reservation
# conservation, FitInto and cost agreement of every solver output, exact
# repeats on `fill`. A few seconds; the timings it prints mean nothing.
bench-smoke:
	cd benchmark && $(GO) test ./... && $(GO) run . -smoke

# bench-go runs the Go micro-benchmarks of the request path once each —
# request encode and decode, start reply and its decode (wire),
# abstract-graph decode and build,
# cost aggregation, fit-into and the heuristic on Fig. 5-size graphs
# (root package), problem signature (distributor) — so that they keep
# building and running; one iteration measures nothing.
bench-go:
	$(GO) test . ./internal/wire ./internal/composer ./internal/registry ./internal/distributor -run '^$$' -bench 'RequestEncode|RequestDecode|StartReply|AbstractGraphDecode|AbstractGraphBuild|Signature|CostAggregation|FitInto|HeuristicLarge' -benchtime 1x

# bench runs the repository's one benchmark (BENCHMARK.json, benchmark/):
# all four over-the-wire workloads with every end-to-end and per-layer
# metric and every correctness check, twice, printing the results. Run
# parent and change alternately for a before/after; the box drifts.
bench:
	cd benchmark && $(GO) run . -repeat 2

# clean removes build outputs.
clean:
	rm -rf bin
	$(GO) clean ./...
