#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload sim|sweep|serve --seed N --seconds S --trace 0|1
# Everything it builds or writes stays under .bench_build in the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOENV=off \
	GOFLAGS= CGO_ENABLED=0
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
