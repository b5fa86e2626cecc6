#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given (see BENCHMARK.json). Everything the build writes — the
# binary, Go's build cache, its config directory — stays under .bench_build,
# so a run reads and writes nothing outside the checkout. Without the rest of
# the repository there is no go.mod, the build fails, and so does this script.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
# The go command starts a detached telemetry sidecar (own session, outlives
# the build) the first time it sees a fresh config directory. Nothing this
# script starts may survive it, so telemetry is switched off before go runs:
# by the mode file `go telemetry off` would write, and by marking the go
# command as a sidecar's descendant, which never forks another.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
env GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GO_TELEMETRY_CHILD=2 \
	go build -o "$build/xqbench" ./benchmark
exec "$build/xqbench" "$@"
