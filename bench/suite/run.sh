#!/usr/bin/env bash
# Build the suite from source, then run it with the given arguments.
# Run from the root of a nettomo checkout:
#
#   bash bench/suite/run.sh --workload core-churn --seed 7 --seconds 20 --trace 0
#
# Build output goes to stderr, so the suite's summary line stays the
# last line of stdout.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: not the root of a nettomo checkout (no dune-project or lib/)" >&2
  exit 2
fi

dune build --root . --cache=disabled --display quiet bench/suite/suite.exe 1>&2

exec ./_build/default/bench/suite/suite.exe "$@"
