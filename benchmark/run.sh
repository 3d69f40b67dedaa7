#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout this
# script sits in, then runs it with the arguments given. The end-to-end
# runner and the layer microcalls are two programs: if the microcalls stop
# compiling, untraced runs still work and only --trace 1 fails.
set -euo pipefail
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$src")/.bench_build"
mkdir -p "$out"
# Keep every byte the toolchain writes inside the checkout.
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
(cd "$src" && go build -o "$out/benchmark" .)
if ! (cd "$src" && go build -o "$out/layers" ./layers); then
	echo "benchmark: layers did not build; --trace 1 is unavailable" >&2
	rm -f "$out/layers"
fi
exec "$out/benchmark" -layers "$out/layers" -outdir "$out" "$@"
