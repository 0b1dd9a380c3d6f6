#!/bin/sh
# Builds the benchmark from source, then runs it with the given arguments:
#   sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the last stdout line is the result.
set -eu
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/perf.exe 1>&2
exec ./_build/default/perfbench/perf.exe "$@"
