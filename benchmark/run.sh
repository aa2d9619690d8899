#!/usr/bin/env bash
# Builds the benchmark (a Go module of its own, benchmark/go.mod) and runs it
# from the repository root with the given arguments. Everything it writes —
# the Go caches, the binary, data directories — goes under .bench_build in
# the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/tcbench" .)
cd "$root"
exec "$out/tcbench" "$@"
