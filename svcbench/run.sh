#!/usr/bin/env bash
# Builds the layered service benchmark from this checkout's sources and runs
# it with the given arguments, e.g.
#
#   bash svcbench/run.sh --workload cold-fleet --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the checkout: the Go
# build cache, temp files, the binary and the span files go to
# $CARGO_TARGET_DIR (default .bench_build), relative to the checkout root.
# The script must be started from the checkout root. It fails without
# printing a result when the repository's sources are not there.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$here" && go build -trimpath -o "$out/svcbench" .)
exec "$out/svcbench" -out "$out/spans" "$@"
