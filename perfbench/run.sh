#!/usr/bin/env bash
# Builds perfbench and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cold-read --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
