#!/usr/bin/env bash
# Builds aaserve, aarelay and the load generator from this checkout, then
# runs the load generator with the given arguments, for example:
#
#   bash perfbench/run.sh --workload solve-paper-10k --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the checkout root (Go build cache included), so the first run of a
# fresh checkout also compiles the standard library.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/aaserve" || ! -d "$root/cmd/aarelay" ]]; then
	echo "perfbench: $root holds no aa module to build (need go.mod, cmd/aaserve, cmd/aarelay)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOENV=off CGO_ENABLED=0

(cd "$root" && go build -o "$out/bin/" ./cmd/aaserve ./cmd/aarelay)
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
