#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
#
#   bash servebench/run.sh --workload warm-hit --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, schedule stores, span dumps) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/servebench" && go build -o "$build/servebench" .)
exec "$build/servebench" --dir "$build" "$@"
