#!/usr/bin/env bash
# Builds and runs the planning-service benchmark from the repository root:
#
#   bash bench/run.sh --workload cold-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, binaries, server logs,
# stores, traces and result files. The harness builds cmd/heterog-serve from
# the checkout's source itself. Without the repository's sources next to
# bench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/tmp" "${build}/bin"
export GOCACHE="${build}/gocache"
export GOPATH="${build}/gopath"
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd "${root}/bench" && go build -o "${build}/bin/bench" .)
exec "${build}/bin/bench" -root "${root}" "$@"
