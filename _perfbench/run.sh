#!/bin/sh
# Build the benchmark from source in this checkout, then run it:
#   sh _perfbench/run.sh --workload oltp --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the last line of stdout is the JSON result.
#
# The benchmark is a dune project of its own (_perfbench/dune-project).
# Dune skips directories whose names start with "_", so the repository's
# own build never sees it; instead the benchmark's project is assembled
# in _perfbench_build/ws from a copy of lib/ and of _perfbench/src, and
# built there.
set -eu
cd "$(dirname "$0")/.."
ws=_perfbench_build/ws
mkdir -p "$ws"
rm -rf "$ws/lib" "$ws/bench"
cp -R lib "$ws/lib"
cp -R _perfbench/src "$ws/bench"
cp _perfbench/dune-project "$ws/dune-project"
# no shared build cache: the build reads and writes only this checkout
export DUNE_CACHE=disabled
if command -v dune >/dev/null 2>&1; then
  dune build --root "$ws" --display quiet ./bench/main.exe 1>&2
else
  opam exec -- dune build --root "$ws" --display quiet ./bench/main.exe 1>&2
fi
exec "$ws/_build/default/bench/main.exe" "$@"
