#!/usr/bin/env bash
# Builds the GridBank benchmark from this checkout's source and runs it.
# Run from the repository root:
#
#   bash gbbench/run.sh --workload interactive --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the run's data directories all
# live under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
(
	cd "$root/gbbench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOCACHE="$build/gocache" \
		GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= \
		go build -o "$build/gbbench" .
)
exec "$build/gbbench" --workdir "$build" "$@"
