#!/usr/bin/env bash
# Builds the benchmark and the partd daemon from the checkout it is run in,
# then runs the benchmark with the arguments given, for example
#
#   bash benchmark/run.sh --workload rgg-500k --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it writes (the Go build cache,
# the binaries, generated inputs and traces) goes under .bench_build/, and it
# needs no network: the module has no dependencies outside the repository.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out/bin" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd "$root/benchmark" && go build -o "$out/bin/benchmark" .)
go build -o "$out/bin/partd" ./cmd/partd
exec "$out/bin/benchmark" -partd "$out/bin/partd" -dir "$out" "$@"
