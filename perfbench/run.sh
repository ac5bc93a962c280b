#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given flags:
#   bash perfbench/run.sh --workload yammer-mem --seed 1 --seconds 30 --trace 0
# Run from the repository root. Build output, the Go build cache, scratch
# data directories and trace files all stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -dir "$out" "$@"
