#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root, with
# the given arguments. Everything it writes — Go's build cache, the binary,
# scratch journals and GridFTP files — goes under .bench_build/ in the
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/ocelot-bench" .)
cd "$root"
exec "$build/ocelot-bench" "$@"
