#!/usr/bin/env bash
# Two full sets of runs of the same build must agree: every workload in two
# interleaved sets of three runs with one seed, the two medians of each
# end-to-end metric within its bound, no failed check; then once with a
# held-out seed. About 15 minutes. See suite.py for the table.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 benchmark/suite.py selfcheck "$@"
