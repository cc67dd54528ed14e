#!/bin/sh
# Builds cmd/e2ebench from source and runs it with the given arguments.
# Run from the repository root, e.g.
#
#   sh cmd/e2ebench/run.sh -workload read-sweeps
#
# The binary, the Go build cache and the results all stay under
# .bench_build/ in the current directory, and the build never fetches
# anything: the benchmark depends only on this repository.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C cmd/e2ebench build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
