#!/usr/bin/env bash
# Build the benchmark and the pigeon CLI from source, then run the
# benchmark. Run it from the root of a pigeon checkout:
#
#   bash perfbench/run.sh --workload NAME|all --seed N --seconds S --trace 0|1
#
# Build output goes to standard error, so the last line of standard
# output is the benchmark's JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a pigeon checkout (no dune-project, lib/ or bin/ here)" >&2
  exit 2
fi

# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perfbench.exe ./bin/pigeon_cli.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
