#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it with the given
# arguments, e.g.
#   bash e2ebench/run.sh --workload dashboard --seed 1 --seconds 15 --trace 0
# Run from the repository root.  Build output goes to dune's _build/,
# scratch files to .e2ebench/; nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .e2ebench/tmp
export TMPDIR="$PWD/.e2ebench/tmp"
export DUNE_CACHE=disabled
dune build --root . --display quiet ./e2ebench/e2e.exe >&2
exec ./_build/default/e2ebench/e2e.exe "$@"
