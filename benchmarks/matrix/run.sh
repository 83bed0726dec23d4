#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout's
# root with the arguments given. Everything the build writes (compiler cache,
# temporary files, the go command's own counters, the binary) stays under
# .bench_build/, and nothing is fetched: the benchmark imports only this
# repository and the standard library.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
(cd "$here" && go build -o "$build/matrix" .)
cd "$root"
exec "$build/matrix" "$@"
