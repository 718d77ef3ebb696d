#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything it writes stays inside the checkout: the Go build cache and
# the binary under .bench_build/, traces and durable state under
# bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/go-cache" GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/blu-bench" .
exec "$root/.bench_build/blu-bench" "$@"
