#!/usr/bin/env bash
# Builds the benchmark from the checkout it stands in and runs it from the
# repository root. Build cache and binary stay inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/aspectbench" . >&2
cd "$root"
exec "$build/aspectbench" "$@"
