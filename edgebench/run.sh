#!/usr/bin/env bash
# Builds the edgebench runner from source and runs it. Run it from the
# repository root; every argument is passed on to the runner:
#
#   bash edgebench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary, checkpoints and trace files all stay under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/edgebench" && go build -o "$out/edgebench" .)
exec "$out/edgebench" --workdir "$out" "$@"
