#!/usr/bin/env bash
# Builds the repository benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, tenant journals, span files) goes under
# $CARGO_TARGET_DIR, default .bench_build. The build uses only the local
# toolchain and this checkout: no module downloads.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/work"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -work "$build/work" "$@"
