#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root
# and runs it with the arguments given. Everything the toolchain writes —
# build cache included — stays inside the checkout; nothing is downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
export BENCH_DIR="$here"
(cd "$here" && go build -o "$out/kg-e2e-bench" .)
exec "$out/kg-e2e-bench" "$@"
