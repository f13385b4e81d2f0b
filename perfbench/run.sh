#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it sits in and runs it
# from the checkout root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload engine-n512 --seed 1 --seconds 32 --trace 0
#
# The Go build cache, temporary files, the go command's own config and
# telemetry, and the binary stay under .bench_build in the checkout, and
# no module is fetched.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS= GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
