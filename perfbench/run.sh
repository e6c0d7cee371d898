#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given flags.
# Run from the repository root:
#   bash perfbench/run.sh --workload ref-steady --seed 1 --seconds 30 --trace 0
# The build (its cache and the Go tool's own config files included) and
# the runs' records all go under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
