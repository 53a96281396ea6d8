#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binary, service
# stores, Chrome trace files) stays under .bench_build/perfbench.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOENV=off XDG_CONFIG_HOME="$out/config"

go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" --dir "$out" "$@"
