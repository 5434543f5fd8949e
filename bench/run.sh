#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash bench/run.sh --workload resident --seed 42 --seconds 20 --trace 0
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ in the checkout. Without the repository's sources next
# to bench/ the build fails and the script exits non-zero, printing no
# result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

# Offline, hermetic build: local toolchain only, no module proxy, and
# Go's caches and settings kept inside the checkout.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"

(cd "$root/bench" && go build -o "$out/gpues-bench" .) >&2

cd "$root"
exec "$out/gpues-bench" "$@"
