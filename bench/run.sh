#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Run it from
# the repository root, for example:
#
#   bash bench/run.sh --workload gap_irregular --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary all go under
# .bench_build in the current directory, so nothing is written outside
# the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
go -C bench build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/wpbench" .
exec "$out/wpbench" -work-dir "$out" "$@"
