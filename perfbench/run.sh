#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of the checkout. Every build artefact, cache and
# output stays under .bench_build in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --span-dir "$out" "$@"
