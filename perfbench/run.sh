#!/usr/bin/env bash
# Build mccm and the benchmark from source, then run one workload:
#   bash perfbench/run.sh --workload serve_cold --seed 1 --seconds 20 --trace 0
# Run from the root of a checkout.  The build goes to .bench_build/ and
# run-time files (socket, captured CLI output, traces) to .bench_run/.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --profile release --build-dir .bench_build \
  ./bin/mccm_cli.exe ./perfbench/perf.exe 1>&2
exec .bench_build/default/perfbench/perf.exe \
  --mccm .bench_build/default/bin/mccm_cli.exe "$@"
