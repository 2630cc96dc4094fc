#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload of it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload sampling --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, the binary, the
# labd store directories) stays under .bench_build/ in the current directory.
set -euo pipefail

pkg=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$pkg")
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"

# No downloads, no writes to the user's home, /tmp or go.mod: the build
# uses only the local toolchain and the repository's own sources.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"

(cd "$pkg" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
