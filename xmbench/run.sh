#!/usr/bin/env bash
# Builds the xmserve benchmark from the checkout's sources and runs it.
# Usage, from the repository root:
#   bash xmbench/run.sh --workload point|analytic|mixed --seed N --seconds S --trace 0|1
# Build outputs and the Go build cache stay under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off
(cd "$root/xmbench" && go build -o "$out/xmbench" .) >&2
exec "$out/xmbench" --spans-out "$out/spans.jsonl" "$@"
