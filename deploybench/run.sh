#!/usr/bin/env bash
# Builds the deployment benchmark from source and runs it:
#
#   bash deploybench/run.sh --workload kv-small --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and every
# run directory go under .bench_build/ there; nothing is written elsewhere.
set -euo pipefail
out="$PWD/.bench_build"
src="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd "$src" && go build -o "$out/deploybench" .)
exec "$out/deploybench" "$@"
