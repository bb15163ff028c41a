#!/usr/bin/env bash
# Builds oscard and the perfbench program from the checkout in the current
# directory, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload sv-cold --seed 1 --seconds 25 --trace 0
#
# Every build product, Go cache and scratch file lands in .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/oscard" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/oscard and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off

go build -o "$out/oscard" ./cmd/oscard
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -oscard "$out/oscard" -workdir "$out/work" "$@"
