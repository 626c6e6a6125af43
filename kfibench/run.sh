#!/usr/bin/env bash
# Builds the kfi benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash kfibench/run.sh --workload data-g4 --seed 1 --seconds 40 --trace 0
#
# Everything the build and the runs write stays under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, the binary, journals and the
# recorded counts and spans.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/campaign ] || [ ! -f kfibench/go.mod ]; then
    echo "kfibench: run from the root of a kfi checkout (go.mod, internal/ and kfibench/ must be present)" >&2
    exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out=$(cd "$out" && pwd)

# Keep the toolchain offline and its caches inside the checkout.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOTELEMETRY=off
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

(cd kfibench && go build -o "$out/kfibench" .)
export CARGO_TARGET_DIR="$out"
exec "$out/kfibench" "$@"
