#!/usr/bin/env bash
# Builds netconstantd, expdriver and the benchmark from this checkout,
# then runs the benchmark with the given arguments. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload advise-read --seed 1 --seconds 6 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout, the Go build cache included.
set -euo pipefail

root=$(pwd)
for d in cmd/netconstantd cmd/expdriver; do
	if [ ! -d "$d" ]; then
		echo "perfbench: $d not found; run from the repository root" >&2
		exit 1
	fi
done

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/config/go/telemetry"
# The module has no dependencies: nothing is downloaded, and the build
# cache and GOPATH stay in the checkout. Telemetry is switched off in the
# checkout's own config dir: in its default mode the go command forks a
# detached upload process that would outlive the benchmark.
echo "off" >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$out/bin/" ./cmd/netconstantd ./cmd/expdriver
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --bin "$out/bin" --out "$out/results" "$@"
