#!/usr/bin/env bash
# Builds the condsel benchmark from the checkout's sources and runs it from
# the checkout root. Every build artifact (binary, Go build cache, Go
# environment files) stays under .bench_build/ in the checkout.
#
#   bash condselbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off
(cd "$root/condselbench" && go build -o "$out/condselbench" .)
cd "$root"
exec "$out/condselbench" "$@"
