#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it from the
# checkout's root; every argument is passed through (see main.go for flags).
# Build outputs, the Go build cache, shared-memory ring files and span files
# all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
cd "$root"
exec "$out/bin/perfbench" "$@"
