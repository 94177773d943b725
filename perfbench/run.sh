#!/usr/bin/env bash
# Builds the benchmark from source, then runs it:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  Fails (non-zero, no result line) when
# the checkout does not build.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
