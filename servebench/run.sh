#!/usr/bin/env bash
# Builds the spire binary and the served-path benchmark from this
# checkout, then runs the benchmark with the given arguments. Run it
# from the repository root:
#
#   bash servebench/run.sh --workload json-200-repeat --seed 1 --seconds 10 --trace 0
#   bash servebench/run.sh --workload all --seed 1 --runs 10 --record base.jsonl
#   bash servebench/run.sh compare base.jsonl change.jsonl
#
# Build outputs, the Go build cache, the Go configuration directory and
# run artifacts stay under $CARGO_TARGET_DIR (default .bench_build),
# inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/spire" ./cmd/spire
(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" -spire "$out/spire" -out "$out" "$@"
