#!/usr/bin/env bash
# The benchmark's command: build cmd/nowperf into .bench_build/ inside the
# checkout and exec it with the driver's arguments. Run from the checkout's
# root. Where the program's source is missing (a directory holding only
# BENCHMARK.json and cmd/nowperf/) the build fails and so does this script,
# without a result line.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Everything go writes (build cache, temporaries, telemetry counters) stays
# inside the checkout; nothing is downloaded.
(cd "$here" && GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOENV=off \
	go build -o "$build/nowperf" .)
cd "$root"
exec "$build/nowperf" "$@"
