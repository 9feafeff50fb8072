#!/usr/bin/env bash
# Build the benchmark and the cachebox binary from source, then run the
# benchmark from the root of the checkout:
#
#   bash benchmark/run.sh --workload sim --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh agree base.jsonl cand.jsonl
#
# Build output goes to standard error, so the last line of standard output
# is the benchmark's result. The dune cache is off: nothing is written
# outside the checkout.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "benchmark/run.sh: not a CacheBox checkout (no dune-project or lib/)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/benchmark.exe ./bin/cachebox.exe 1>&2
exec ./_build/default/benchmark/benchmark.exe "$@"
