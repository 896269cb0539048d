#!/usr/bin/env bash
# Builds dstressbench and runs it against the source tree in the current
# directory, which must be the repository root. Every build and run artefact
# stays under .bench_build/ there: the Go build cache, the benchmark and
# daemon binaries, the per-run stores and the span files.
#
#   bash cmd/dstressbench/run.sh --workload search_24k --seed 3 --seconds 15 --trace 0
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/dstressd" ]]; then
	echo "dstressbench: run from the repository root (no go.mod or cmd/dstressd here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C cmd/dstressbench build -o "$build/dstressbench" .
exec "$build/dstressbench" -repo "$root" "$@"
