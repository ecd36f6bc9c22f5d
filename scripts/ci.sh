#!/usr/bin/env bash
# Tier-1 verification: format, lint, build, and test the whole repo.
#
#   scripts/ci.sh           # everything
#   scripts/ci.sh --fast    # skip the release build
#
# The integration crate in tests/ is a separate workspace member set —
# `cargo test` from the root does not reach it — so it gets its own pass.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[ "${1:-}" = "--fast" ] && fast=1

echo "== fmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets

echo "== doc =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== test (workspace) =="
cargo test --workspace -q

echo "== test (integration) =="
(cd tests && cargo test -q)

# benchmark/ is a workspace of its own that the driver builds against
# the crates' public API; compile and test it here (editing nothing
# under it) so API drift in crates/ fails tier-1, not the driver.
echo "== test (benchmark package) =="
cargo test --offline -q --manifest-path benchmark/Cargo.toml

if [ "$fast" -eq 0 ]; then
    echo "== release build =="
    cargo build --release --workspace

    # The SIMD kernels at the optimisation level that ships: a debug
    # build spills the block kernel's accumulators to the stack and never
    # runs the register-resident form.
    echo "== test (smda-stats, release) =="
    cargo test --release -q -p smda-stats

    echo "== equivalence gates (kernels fits serve real simd format oooc) =="
    cargo run --release -q -p smda-bench -- --smoke --check all

    echo "== bench history regression gate =="
    scripts/benchgate.sh
fi

echo "ci: all green"
