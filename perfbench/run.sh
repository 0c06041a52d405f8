#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run from the repository root, e.g.
#   bash perfbench/run.sh --workload fig3-long --seed 1 --seconds 30 --trace 0
# Everything the build writes (Go build cache, binary, generated inputs,
# span files) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
       XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
