#!/usr/bin/env bash
# Builds the benchmark from source and runs it; pass the benchmark's flags
# through. Run from the repository root:
#
#   bash dnsbench/run.sh --workload channel-serial --seed 1 --seconds 30 --trace 0
#
# The build cache, the Go toolchain's own state, the binary and all run
# output stay under .bench_build/ in the repository root.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$root/dnsbench"
	GOCACHE="$build/gocache" GOTMPDIR="$build" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		go build -o "$build/dnsbench" .
) >&2
exec "$build/dnsbench" "$@"
