#!/usr/bin/env bash
# Builds the simulator benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the traced run's span files go under
# $CARGO_TARGET_DIR when it is set and .bench_build otherwise, so a run
# writes only inside the checkout. The last line of standard output is
# the JSON result; build messages go to standard error.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/go-build
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config
export XDG_CACHE_HOME=$out/cache
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
