#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload; this is the
# `command` of BENCHMARK.json, run from the root of a checkout:
#
#   bash benchmark/run.sh --workload atm_bound --seed 1 --seconds 16 --trace 0
#
# Everything the build and the run write stays inside the checkout, under
# .bench_build/: the Go build cache, the binary, and the scratch directory
# of checkpoint stores and unix sockets (relative, so socket paths stay
# short however deep the checkout sits).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o ../.bench_build/icobench .
TMPDIR=.bench_build/tmp exec .bench_build/icobench "$@"
