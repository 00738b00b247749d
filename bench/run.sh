#!/usr/bin/env bash
# Builds wlbench from the sources of this checkout and runs it with the
# given flags, e.g.
#
#   bash bench/run.sh --workload contention --seed 7 --seconds 20 --trace 0
#
# Everything the build leaves behind (binary, Go build cache, temp files)
# stays under .bench_build/ at the root of the checkout. Without the
# repository's sources next to bench/ the build fails and so does the run.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$here" build -o "$out/wlbench" .
exec "$out/wlbench" "$@"
