GO ?= go
GOFMT ?= gofmt

# Minimum statement coverage for the model-fitting core.
CORE_COVER_FLOOR ?= 85.0
# Minimum statement coverage for the estimation service.
SERVE_COVER_FLOOR ?= 80.0
# Minimum statement coverage for the streaming pipeline.
STREAM_COVER_FLOOR ?= 85.0
# Minimum statement coverage for the cluster routing tier.
CLUSTER_COVER_FLOOR ?= 85.0
# Minimum statement coverage for the classic roofline baseline and the
# workload kernel roster.
ROOFLINE_COVER_FLOOR ?= 85.0
# Minimum statement coverage for the wait-for graph and the combined
# on/off-CPU analysis built on it.
WAITGRAPH_COVER_FLOOR ?= 85.0

.PHONY: all build fmt-check test vet lint race cover cover-serve cover-stream cover-cluster cover-roofline cover-waitgraph smoke fuzz fuzz-short chaos chaos-cluster bench-gate verify clean

# Pinned linter versions, fetched on demand with `go run`. In an offline
# environment (no module proxy) lint degrades to a warning + skip, so the
# verify gate stays runnable anywhere; genuine findings still fail it.
STATICCHECK_VERSION ?= honnef.co/go/tools/cmd/staticcheck@2024.1.1
GOVULNCHECK_VERSION ?= golang.org/x/vuln/cmd/govulncheck@v1.1.3

all: build

build:
	$(GO) build ./...

# -shuffle=on randomizes test execution order within each package so
# order-dependent tests fail loudly instead of passing by accident.
test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet: staticcheck and govulncheck at pinned
# versions. Tool-fetch failures (offline container, proxy outage) are
# detected and skipped; analysis findings fail.
lint:
	@out=$$($(GO) run $(STATICCHECK_VERSION) ./... 2>&1); status=$$?; \
	if [ $$status -ne 0 ] && echo "$$out" | grep -Eq 'no such host|connection refused|i/o timeout|dial tcp|proxyconnect|TLS handshake|Get "https?://|no required module provides|cannot find module|missing go.sum entry'; then \
		echo "lint: staticcheck unavailable offline, skipping:"; echo "$$out" | head -3; \
	elif [ $$status -ne 0 ]; then \
		echo "$$out"; exit $$status; \
	else \
		echo "staticcheck: ok"; [ -z "$$out" ] || echo "$$out"; \
	fi
	@out=$$($(GO) run $(GOVULNCHECK_VERSION) ./... 2>&1); status=$$?; \
	if [ $$status -ne 0 ] && echo "$$out" | grep -Eq 'no such host|connection refused|i/o timeout|dial tcp|proxyconnect|TLS handshake|Get "https?://|no required module provides|cannot find module|missing go.sum entry'; then \
		echo "lint: govulncheck unavailable offline, skipping:"; echo "$$out" | head -3; \
	elif [ $$status -ne 0 ]; then \
		echo "$$out"; exit $$status; \
	else \
		echo "govulncheck: ok"; \
	fi

race:
	$(GO) test -race ./...

# Coverage profiles land in the ignored cover/ directory, never the
# repo root.
cover/:
	@mkdir -p cover

# Coverage gates, one per tier: each target tests COVER_PKGS and fails
# when their combined statement coverage is below COVER_FLOOR.
COVER_TARGETS := cover cover-serve cover-stream cover-cluster cover-roofline cover-waitgraph

# The model-fitting core.
cover: COVER_PKGS = ./internal/core/
cover: COVER_FLOOR = $(CORE_COVER_FLOOR)
# The serving tier.
cover-serve: COVER_PKGS = ./internal/serve/
cover-serve: COVER_FLOOR = $(SERVE_COVER_FLOOR)
# The streaming tier.
cover-stream: COVER_PKGS = ./internal/stream/
cover-stream: COVER_FLOOR = $(STREAM_COVER_FLOOR)
# The cluster routing tier.
cover-cluster: COVER_PKGS = ./internal/cluster/
cover-cluster: COVER_FLOOR = $(CLUSTER_COVER_FLOOR)
# The classic roofline baseline and the workload kernel roster.
cover-roofline: COVER_PKGS = ./internal/roofline/ ./internal/workloads/
cover-roofline: COVER_FLOOR = $(ROOFLINE_COVER_FLOOR)
# The off-CPU analysis stack: the wait-for graph and the combined
# partition/ranking layer on top of it.
cover-waitgraph: COVER_PKGS = ./internal/waitgraph/ ./internal/analysis/
cover-waitgraph: COVER_FLOOR = $(WAITGRAPH_COVER_FLOOR)

$(COVER_TARGETS): | cover/
	$(GO) test -coverprofile=cover/$@.out $(COVER_PKGS)
	@pct=$$($(GO) tool cover -func=cover/$@.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
	echo "$(COVER_PKGS) coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
	awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit (p+0 >= f+0) ? 0 : 1 }' || \
		{ echo "FAIL: $(COVER_PKGS) coverage $$pct% is below the $(COVER_FLOOR)% floor"; exit 1; }

# Formatting gate: gofmt must have nothing to rewrite anywhere in the
# tree.
fmt-check:
	@out=$$($(GOFMT) -l .); \
	if [ -n "$$out" ]; then echo "FAIL: gofmt would rewrite:"; echo "$$out"; exit 1; fi; \
	echo "gofmt: ok"

# Black-box smoke: build the real binary, start `spire serve` (and a
# router in front of a shard), hit /healthz and one estimate over HTTP,
# check the version banner, and shut down cleanly on SIGTERM.
smoke:
	$(GO) test -run 'TestSmokeServe|TestSmokeRoute|TestSmokeVersion' -count=1 ./cmd/spire/

# Short fuzz pass over the perf-stat CSV parser; the checked-in seed
# corpus under internal/ingest/testdata/fuzz runs as part of plain
# `make test` too.
fuzz:
	$(GO) test -fuzz FuzzPerfStatCSV -fuzztime 30s ./internal/ingest/

# Quick fuzz smoke over every fuzz target (10s each): the batch and
# incremental ingest parsers, the roofline fitter, the parallel trainer,
# the model loader, the sliding-window merge, the serving tier's
# estimate handler and model-upload decoder, and the estimate body
# decoder shared by serve and route.
fuzz-short:
	$(GO) test -fuzz FuzzPerfStatCSV -fuzztime 10s ./internal/ingest/
	$(GO) test -fuzz FuzzStreamFeed -fuzztime 10s ./internal/ingest/
	$(GO) test -fuzz FuzzFitRoofline -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzTrainParallel -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzLoadEnsemble -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzWindowMerge -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzHierarchyEval -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzSurfaceParams -fuzztime 10s ./internal/core/
	$(GO) test -fuzz FuzzEstimateHandler -fuzztime 10s ./internal/serve/
	$(GO) test -fuzz FuzzModelDecode -fuzztime 10s ./internal/serve/
	$(GO) test -fuzz FuzzBinDecodeEstimate -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz FuzzBinRoundTrip -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz FuzzDecodeEstimate -fuzztime 10s ./internal/wire/
	$(GO) test -fuzz FuzzParseConfig -fuzztime 10s ./internal/cluster/
	$(GO) test -fuzz FuzzParseShardList -fuzztime 10s ./internal/cluster/
	$(GO) test -fuzz FuzzSchedEventParse -fuzztime 10s ./internal/ingest/
	$(GO) test -fuzz FuzzWaitGraphBuild -fuzztime 10s ./internal/waitgraph/

# Transport-level chaos soak under the race detector: retrying clients
# against a live server through the faultinject chaos transport and
# listener (stalls, resets, slow-loris, truncated frames), asserting
# bounded error rates, byte-identical successes, and exact admission
# accounting. Bounded -timeout so a hang fails fast instead of wedging CI.
chaos:
	$(GO) test -race -count=1 -timeout 300s -run 'TestChaos' ./internal/client/ ./internal/faultinject/

# Cluster soaks under the race detector: the kill/restart soak (abrupt
# shard deaths, empty-registry restarts, re-convergence) and the chaos
# soaks on the router<->shard hop (faultinject stalls, resets, truncated
# frames on relays, health probes, and model pushes).
chaos-cluster:
	$(GO) test -race -count=1 -timeout 300s -run 'TestChaosCluster|TestClusterKillRestartSoak' ./internal/cluster/

# Benchmark regression gate: re-measures the columnar steady state
# (BenchmarkBatchEstimate's timed region, best of 3) against the
# recording in BENCH_core_columnar.json — fails on >20% ns/op
# regression or any allocation per op.
bench-gate:
	BENCH_GATE=1 $(GO) test -run TestBenchGate -count=1 -timeout 600s .

# The full verification gate: build, formatting, static checks, tests,
# race tests, the coverage floors, the serving smoke, the chaos soak, a
# short fuzz smoke, and the benchmark regression gate.
verify: build fmt-check vet lint test race cover cover-serve cover-stream cover-cluster cover-roofline cover-waitgraph smoke chaos chaos-cluster fuzz-short bench-gate

clean:
	$(GO) clean ./...
	rm -rf cover
	rm -f coverage.out coverage-serve.out coverage-stream.out
