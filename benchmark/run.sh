#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root:
#
#   bash benchmark/run.sh --workload lifecycle-drift --seed 1 --seconds 15 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) stays in
# .bench_build/ at the root; the build never touches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/modcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-buildvcs=false
(cd "$root/benchmark" && go build -trimpath -o "$out/uerlbench" .)
exec "$out/uerlbench" "$@"
