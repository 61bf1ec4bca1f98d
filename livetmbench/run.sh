#!/usr/bin/env bash
# Builds livetmbench from this checkout's sources and runs it with the
# given arguments, e.g.
#   bash livetmbench/run.sh --workload wire-open --seed 3 --seconds 10 --trace 0
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal/engine ]]; then
	echo "livetmbench: $root is not a livetm checkout (no go.mod or internal/engine)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd livetmbench && go build -o "$out/livetmbench" .)
exec "$out/livetmbench" --spans "$out/trace" "$@"
