#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload tuned_machine --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (Go
# build cache, temporary files, the binary) lands in .bench_build/
# under the current directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export GOENV=off
export CGO_ENABLED=0

(cd "$src" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
