#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout: every file the build and the run
# write goes under .bench_build/ there (or under $CARGO_TARGET_DIR).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
(
	cd "$here"
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
	export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
	export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOTELEMETRY=off
	go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
