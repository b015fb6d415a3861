#!/usr/bin/env bash
# Builds the kamel binary and the benchmark from the checkout this is run
# from (its root must be the working directory), then runs one workload:
#
#   bash perfbench/run.sh --workload serve-porto --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build), Go's caches and configuration included.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local GOFLAGS=

go build -o "$out/kamel" ./cmd/kamel
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --kamel "$out/kamel" --state "$out" "$@"
