#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Run it from the checkout root:
#
#   bash bench/run.sh                                   # every workload
#   bash bench/run.sh -workload grid-ref -seed 3 -seconds 25 -trace 0
#   bash bench/run.sh -compare before.json after.json
#
# Everything the build and the runs write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the binary,
# and the scratch network stores.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/gocache" "$out/tmp"

# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/geobench" .)
exec "$out/geobench" -workdir "$out/work" "$@"
