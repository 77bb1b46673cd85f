#!/bin/sh
# Regenerate bench/snapshot/<id>.txt in place: the stdout of every
# experiment.  Every cost, row count and trace in these files is a pure
# function of the source, so a diff after regeneration is a change in
# behaviour that must be reviewed like a golden-file diff:
#   sh tools/bench_snapshot.sh && git diff --exit-code -- bench/snapshot
set -eu
cd "$(dirname "$0")/.."
dune build bench/main.exe
exe=_build/default/bench/main.exe
mkdir -p bench/snapshot
for id in $("$exe" -l | tail -n +2 | awk '{print $1}'); do
  "$exe" -e "$id" > "bench/snapshot/$id.txt"
done
