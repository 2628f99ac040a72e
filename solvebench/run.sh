#!/usr/bin/env bash
# Builds solvebench from this checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash solvebench/run.sh --workload sync-d3c-150 --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (the Go build cache, temporary files, the
# binary) stays under .bench_build in the repository root, and the build
# never touches the network.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$root/solvebench/go.mod" ]]; then
	echo "solvebench: run from the repository root (need go.mod and solvebench/go.mod)" >&2
	exit 2
fi
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
go build -C "$root/solvebench" -o "$out/solvebench" .
exec "$out/solvebench" "$@"
