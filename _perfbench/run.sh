#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
#   bash _perfbench/run.sh --workload stream-loopy --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, generated inputs, stores, span files) lands under
# $CARGO_TARGET_DIR, default .bench_build, inside the working directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/gopath" "$out/config"

# Keep the go command's cache, module cache, temporary files and its
# telemetry counters (written under the user config directory) inside the
# build directory, and never reach for the network or a newer toolchain.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomodcache
export GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
