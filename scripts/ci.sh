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

# A results/…, scripts/… or crates/…/*.rs path named in the docs is a
# tracked file (globs resolve as git pathspecs), unless the doc says
# "(not tracked)" right after it.
echo "== docs name tracked files =="
cited=$(grep -ohE '((results|scripts)/[A-Za-z0-9_.*/-]+|crates/[A-Za-z0-9_.*/-]+\.rs)`?( \(not tracked\))?' \
        README.md EXPERIMENTS.md DESIGN.md |
    grep -v 'not tracked)$' | tr -d '`' | sed 's/\.$//' | sort -u)
stale=0
while read -r path; do
    git ls-files --error-unmatch -- "$path" >/dev/null 2>&1 && continue
    echo "docs name $path, which is not a tracked file" >&2
    stale=1
done <<<"$cited"
[ "$stale" -eq 0 ]

# ROADMAP 6(c)'s burn-down, ratcheted: `.unwrap()` / `.expect(` in non-test
# source — each tracked crates/*/src file up to its first `#[cfg(test)]`,
# comment lines dropped — may not exceed the count below. A PR that removes
# some lowers the number; none raises it.
echo "== unwrap budget =="
unwrap_budget=102
unwraps=$(git ls-files 'crates/*/src/*.rs' | while read -r file; do
    awk '/#\[cfg\(test\)\]/ { exit } { print }' "$file" | grep -vE '^[[:space:]]*//'
done | grep -cE '\.unwrap\(\)|\.expect\(' || true)
echo "$unwraps non-test unwrap/expect calls (budget $unwrap_budget)"
[ "$unwraps" -le "$unwrap_budget" ]

# ROADMAP 6(b), done and kept done: every fan-out, the cluster twins'
# phases included, runs on the one persistent pool in crates/engines, and
# nothing under crates/ calls the vendored crossbeam shim.
echo "== one worker pool =="
pools=$(git grep -lE '^(pub )?struct WorkerPool\b' -- 'crates/*/src/*.rs' || true)
echo "struct WorkerPool: ${pools:-nowhere}"
[ "$pools" = "crates/engines/src/pool.rs" ]
if git grep -n 'crossbeam::' -- 'crates/*/src/*.rs'; then
    echo "crates/ calls crossbeam again" >&2
    exit 1
fi

# ISSUE 24, kept done: a text line becomes a `Reading` (or a Format-2
# series) only in crates/types/src/csv.rs, and rows become a household's
# year only in the assembler beside it — the one place that sorts by
# (consumer, hour).
echo "== one text codec, one assembler =="
parsers=$(git grep -nE 'fn parse_(reading|consumer)(_line)?\(|struct ReadingRow\b' -- 'crates/*/src/*.rs' ':!crates/types/src' || true)
sorts=$(git grep -lF '(r.consumer, r.hour)' -- 'crates/*/src/*.rs' || true)
echo "row parsers outside crates/types: ${parsers:-none}; the (consumer, hour) sort: ${sorts:-nowhere}"
[ -z "$parsers" ] && [ "$sorts" = "crates/types/src/formats.rs" ]

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
# --locked: a changed dependency edge of crates/ fails here instead of
# cargo quietly rewriting benchmark/Cargo.lock.
echo "== test (benchmark package) =="
cargo test --offline --locked -q --manifest-path benchmark/Cargo.toml

if [ "$fast" -eq 0 ]; then
    echo "== release build =="
    cargo build --release --workspace

    # DESIGN §14: a fused multiply-add rounds once where the scalar
    # reference rounds twice, so no bit-exact kernel may issue one at any
    # width. Pinned in the source — no `#[target_feature]` frame enables
    # `fma`, no fused intrinsic is called — and in the instructions that
    # ship.
    echo "== no FMA (source, then the release disassembly) =="
    if git grep -nE 'target_feature\(enable = "[^"]*fma|_fn?m(add|sub)[a-z]*_' -- 'crates/*.rs'; then
        echo "crates/ enables or calls a fused multiply-add" >&2
        exit 1
    fi
    if command -v objdump >/dev/null; then
        fused=$(objdump -d --no-show-raw-insn target/release/smda | grep -cE 'vfn?m(add|sub)' || true)
        echo "$fused fused multiply-add instructions in target/release/smda"
        [ "$fused" -eq 0 ]
    else
        echo "no objdump on this machine: the disassembly check is skipped"
    fi

    # The SIMD kernels at the optimisation level that ships: a debug
    # build spills the block kernel's accumulators to the stack and never
    # runs the register-resident form.
    echo "== test (smda-stats, release) =="
    cargo test --release -q -p smda-stats

    echo "== equivalence gates (kernels fits serve real simd format oooc) =="
    cargo run --release -q -p smda-bench -- --smoke --check all

    # The figure-shape tests behind EXPERIMENTS.md's ✅ column are ignored
    # in debug builds. After the release build, not before: the
    # cluster_real one forks the `smda` worker binary.
    echo "== test (smda-bench, release: figure shapes) =="
    cargo test --release -q -p smda-bench
fi

echo "ci: all green"
