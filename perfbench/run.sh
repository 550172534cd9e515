#!/usr/bin/env bash
# Build and run the repository benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload compile-proof --seed 1 --seconds 20 --trace 0
#
# The build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib/regalloc ] || [ ! -d lib/workloads ]; then
  echo "perfbench: run from the root of a nova_ixp checkout (dune-project and lib/ not found)" >&2
  exit 2
fi
# keep every build artifact inside the checkout
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
