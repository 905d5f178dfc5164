#!/usr/bin/env bash
# Builds the harness from source and runs it with the given arguments. The
# go command's caches, its scratch space and the binary all live under
# .bench_build in the current directory (the root of a checkout), so a run
# touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" PPROF_TMPDIR="$out/tmp"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd "$here" && go build -o "$out/rshuffle-bench" .)
exec "$out/rshuffle-bench" -scratch "$out" "$@"
