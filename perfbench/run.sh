#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the root of a checkout of the repository:
#
#   bash perfbench/run.sh --workload fig7-sweep --seed 1 --seconds 10 --trace 0
#
# The build and everything the run writes stay under .bench_build in the
# checkout: the Go build cache, the binary and the traced run's spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
