#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the repository
# root, so that everything it writes (build cache, toolchain counters,
# journals, traces) stays inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local \
	go -C bench build -o "$build/cordial-bench" .
exec "$build/cordial-bench" "$@"
