#!/usr/bin/env bash
# End-to-end tuning benchmark. Run from the repository root:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Builds the benchmark from source with dune (build log on stderr), then
# runs it. NAME is one of the workloads in BENCHMARK.json, or "all".
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perfbench/felix_bench.exe 1>&2
exec ./_build/default/perfbench/felix_bench.exe "$@"
