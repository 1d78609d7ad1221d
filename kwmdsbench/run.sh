#!/usr/bin/env bash
# Builds the kwmds server and the benchmark from this checkout, then runs one
# benchmark invocation. Run from the repository root:
#
#   bash kwmdsbench/run.sh --workload serve-churn --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root (compiler cache included), so the checkout is the only
# directory touched.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/kwmdsbench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/home"

# Keep the Go toolchain's caches and config inside the checkout, and never
# let it reach for a network toolchain or module proxy.
export GOCACHE="$build/gocache"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOPATH="$build/home/go"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

if [[ ! -f "$root/go.mod" ]]; then
	echo "run.sh: no go.mod at the repository root; the kwmds sources are missing" >&2
	exit 2
fi
go build -o "$build/bin/kwmds" ./cmd/kwmds
(cd "$root/kwmdsbench" && go build -o "$build/bin/kwmdsbench" .)

exec "$build/bin/kwmdsbench" -kwmds "$build/bin/kwmds" -workdir "$build" "$@"
