#!/usr/bin/env bash
# Builds profbench from the checkout it is run in and runs it with the
# given arguments. Run from the repository root:
#
#	bash profbench/run.sh --workload study --seed 1 --seconds 10 --trace 0
#
# Every build output, the Go build cache included, stays under
# .bench_build/ at the root, so a run reads and writes nothing outside
# the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

(cd "$root/profbench" && go build -o "$build/profbench" .)
exec "$build/profbench" "$@"
