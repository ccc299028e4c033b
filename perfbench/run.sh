#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload tcp-recv-8p --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files) stays
# under $CARGO_TARGET_DIR (default .bench_build) in the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOPROXY=off \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
