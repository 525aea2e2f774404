#!/usr/bin/env bash
# Builds perfbench from the checkout's source and runs it with the given
# arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload small --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files and the binary stay inside the checkout,
# under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
