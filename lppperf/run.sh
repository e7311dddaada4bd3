#!/usr/bin/env bash
# Builds the benchmark and the lppserve binary it drives from this
# checkout, then runs the benchmark with the given arguments:
#
#   bash lppperf/run.sh --workload stream-ephemeral --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product and scratch file
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
here="$root/lppperf"
if [[ ! -f "$here/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "lppperf: run from the repository root (need go.mod and lppperf/go.mod)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-path" "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOTELEMETRY=off

(cd "$here" && go build -o "$out/lppperf" . && go build -o "$out/lppserve" lpp/cmd/lppserve)
exec "$out/lppperf" -lppserve "$out/lppserve" "$@"
