#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload exact-cold --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (caches, the binary, Go's own config and
# telemetry) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
