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

# ROADMAP 10(a): every `--flag` README.md, DESIGN.md and EXPERIMENTS.md name
# is one `smda` reads (the FLAGS table in crates/cli/src/main.rs), one
# `smda-bench` parses (the match in crates/bench/src/cli.rs), or one of
# cargo's own below.
echo "== docs name flags that exist =="
cargo_flags="--release --workspace --bin --manifest-path --offline --locked"
smda_flags=$(sed -n '/^const FLAGS/,/^];/p' crates/cli/src/main.rs | grep -oE -- '--[a-z][a-z0-9-]*')
bench_flags=$(grep -E '^[[:space:]]*"--[a-z].*=>' crates/bench/src/cli.rs | grep -oE -- '--[a-z][a-z0-9-]*')
# shellcheck disable=SC2086 # one word per flag
known=$(printf '%s\n' $cargo_flags $smda_flags $bench_flags | sort -u)
named=$(grep -ohE -- '(^|[^A-Za-z0-9-])--[a-z][a-z0-9-]*' README.md DESIGN.md EXPERIMENTS.md |
    grep -oE -- '--[a-z][a-z0-9-]*' | sort -u)
unknown=$(comm -23 <(echo "$named") <(echo "$known") | tr '\n' ' ')
echo "$(grep -c . <<<"$named") flags named in the docs; unknown: ${unknown:-none}"
[ -z "$unknown" ]

# ROADMAP 9(c), ratcheted: DESIGN.md keeps the argument, and numbers go
# to CHANGES.md and generated files. It may not grow past the line count
# below; a PR that shortens it lowers the number, none raises it.
echo "== DESIGN.md line budget =="
design_budget=2163
design_lines=$(wc -l <DESIGN.md)
echo "DESIGN.md: $design_lines lines (budget $design_budget)"
[ "$design_lines" -le "$design_budget" ]

# A file's non-test text: up to its first `#[cfg(test)]`, comment lines
# dropped.
non_test() { awk '/#\[cfg\(test\)\]/ { exit } { print }' "$1" | { grep -vE '^[[:space:]]*//' || true; }; }

# ROADMAP 6(c)'s burn-down, ratcheted: `.unwrap()` / `.expect(` in non-test
# source (each tracked crates/*/src file's non-test text) may not exceed the
# count below. A PR that removes some lowers the number; none raises it.
echo "== unwrap budget =="
unwrap_budget=81
unwraps=$(git ls-files 'crates/*/src/*.rs' | while read -r file; do
    non_test "$file"
done | grep -cE '\.unwrap\(\)|\.expect\(' || true)
echo "$unwraps non-test unwrap/expect calls (budget $unwrap_budget)"
[ "$unwraps" -le "$unwrap_budget" ]

# ROADMAP 7(c), ratcheted: a `pub fn` / `pub const fn` in crates/*/src whose
# name no other file's non-test text names — searching crates/*/src,
# benchmark/src and examples/, `pub use` lines dropped — is surface only a
# test calls. Those left (an oracle a test compares against, a hook a test
# in another crate needs, a capability DESIGN.md documents) may not exceed
# the count below; a PR that removes some lowers it, none raises it.
echo "== public surface budget =="
surface_budget=11
surface=$(mktemp -d)
git ls-files 'crates/*/src/*.rs' 'benchmark/src/*.rs' 'examples/*.rs' | while read -r file; do
    mkdir -p "$surface/$(dirname "$file")"
    non_test "$file" | { grep -vE '^[[:space:]]*pub use ' || true; } >"$surface/$file"
done
unnamed=$(git ls-files 'crates/*/src/*.rs' | while read -r file; do
    { grep -oE '\bpub (const )?fn [A-Za-z0-9_]+' "$surface/$file" || true; } | awk '{ print $NF }' | sort -u |
        while read -r name; do
            (cd "$surface" && grep -rlw --include='*.rs' -- "$name" . | grep -qvxF "./$file") ||
                echo "$file: $name"
        done
done)
rm -r "$surface"
surface_count=$(grep -c . <<<"$unnamed" || true)
echo "$surface_count public fns named by no other file's non-test code (budget $surface_budget)"
if [ "$surface_count" -gt "$surface_budget" ]; then
    echo "$unnamed" >&2
    exit 1
fi

# ROADMAP 7(c), held by the compiler: in a copy of the tree (what git
# tracks, staged and unstaged edits included) every `pub fn` in
# crates/*/src becomes `pub(crate) fn`, and `pub` goes back at each
# definition a privacy error names until the workspace's libraries,
# binaries and examples compile (tests/ left out); rustc's `dead_code`
# lint then names every function no non-test target reaches. `pub` is
# then put back for the locked benchmark/ package in the same way, and a
# function only it calls is marked. Those left (a locked name, a
# reference a test pins a product path to, a hook another crate's test
# needs, the HiveQL subset, an `is_empty` clippy wants beside a live
# `len`) may not exceed the count below; a PR that removes some lowers it,
# none raises it.
echo "== functions only tests reach =="
dead_budget=17
sweep=$(mktemp -d)
snapshot=$(git stash create)
git archive "${snapshot:-HEAD}" | tar -x -C "$sweep"
git ls-files 'crates/*/src/*.rs' | (cd "$sweep" && xargs sed -i -E 's/^([[:space:]]*)pub fn /\1pub(crate) fn /')
# Every span of every diagnostic `cargo check "$@"` prints, one line each:
# level, code, file (from the copy's root), line, primary, the spanned
# text, the line's text, message, each "-" when empty so that `read`
# keeps the columns.
diagnostics() {
    local root=$1
    shift
    { (cd "$sweep" && CARGO_TARGET_DIR="$sweep/target" cargo check --offline -q --message-format=json "$@" 2>/dev/null) || true; } |
        jq -r 'select(.reason == "compiler-message") | .message as $m
            | ([$m.spans[]] + [$m.children[].spans[]])[] | (.text[0] // {text: "", highlight_start: 1, highlight_end: 1}) as $t
            | [$m.level, ($m.code.code // ""), .file_name, .line_start, .is_primary,
               $t.text[($t.highlight_start - 1):($t.highlight_end - 1)], $t.text, $m.message]
            | map(tostring | if . == "" then "-" else . end) | join("\t")' |
        while IFS=$'\t' read -r level code file rest; do
            case $file in /*) ;; *) file=$sweep/$root/$file ;; esac
            printf '%s\t%s\t%s\t%s\n' "$level" "$code" "$(realpath -m --relative-to="$sweep" "$file")" "$rest"
        done
}
# Put `pub` back at each definition the privacy errors of `cargo check
# "$@"` name until it passes, printing each as file:line. E0364 (a
# `pub use` of a crate-private function) names only the `use`, so the
# function it re-exports is found by name among the crate's free
# functions.
publish() {
    local errors restored
    while :; do
        errors=$(diagnostics "$@" | awk -F'\t' '$1 == "error"')
        [ -n "$errors" ] || return 0
        restored=$(while IFS=$'\t' read -r _ code file line _ _ text message; do
            if [ "$code" = E0364 ]; then
                name=$(sed -E 's/^[^`]*`([A-Za-z0-9_]+)`.*/\1/' <<<"$message")
                (cd "$sweep" && grep -rnE "^pub\(crate\) fn $name\b" "${file%%/src/*}/src" || true) | cut -d: -f1,2
            elif [[ $text =~ ^[[:space:]]*pub\(crate\)\ fn\  ]]; then
                echo "$file:$line"
            fi
        done <<<"$errors" | sort -u)
        if [ -z "$restored" ]; then
            echo "$errors" >&2
            return 1
        fi
        while IFS=: read -r file line; do
            sed -i -E "${line}s/pub\(crate\) fn /pub fn /" "$sweep/$file"
        done <<<"$restored"
        echo "$restored"
    done
}
workspace_targets=(--workspace --exclude smda-integration --lib --bins --examples)
publish . "${workspace_targets[@]}" >/dev/null
dead=$(diagnostics . "${workspace_targets[@]}" |
    awk -F'\t' '$1 == "warning" && $2 == "dead_code" && $5 == "true" && index($7, "fn " $6) { print $3 ":" $4 "\t" $6 }' | sort -t: -k1,1 -k2n -u)
locked=$(publish benchmark --locked --manifest-path benchmark/Cargo.toml --lib --bins)
rm -r "$sweep"
dead=$(while IFS=$'\t' read -r at name; do
    [ -n "$at" ] || continue
    grep -qxF "$at" <<<"$locked" && name="$name (benchmark/ calls it)"
    echo "${at%:*}: $name"
done <<<"$dead")
dead_count=$(grep -c . <<<"$dead" || true)
echo "$dead_count functions only tests reach (budget $dead_budget)"
echo "$dead"
[ "$dead_count" -le "$dead_budget" ]

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
[ -z "$parsers" ]
[ "$sorts" = "crates/types/src/formats.rs" ]

# ROADMAP 3, done and kept done: every all-pairs top-k is one band-pair
# walk (crates/stats/src/walk.rs), the only code that builds the pair
# scorer, and the parallel entry points and the tolerance tier it
# replaced stay deleted. The query forms are no walk and build no pair
# scorer: `top_k_query`'s ranked scan and `Streamed::top_k_queries`.
echo "== one similarity walk =="
scorers=$(git grep -n 'PairScorer::new(' -- 'crates/*/src/*.rs' || true)
echo "PairScorer::new( at: ${scorers:-nowhere}"
[ "$(grep -c . <<<"$scorers")" -eq 1 ]
if git grep -nwE 'top_k_tiled_with|top_k_matrix_with|top_k_oooc_partial|top_k_oooc_queries|oooc_inverse_norms|sumsq4|FUSED_REL_TOL' -- crates; then
    echo "crates/ names a deleted similarity entry point or the tolerance tier again" >&2
    exit 1
fi

# One record layout: the worker socket, the shuffle spill log and the
# ingest WAL all write crates/types/src/frame.rs's checksummed frames, so
# FNV-1a is defined once, there, and the WAL's own record format and the
# spill log's second header layout stay deleted.
echo "== one frame codec =="
fnvs=$(git grep -n 'fn fnv1a64' -- 'crates/*/src/*.rs' || true)
echo "fn fnv1a64 at: ${fnvs:-nowhere}"
[ "$(grep -c . <<<"$fnvs")" -eq 1 ]
[ "${fnvs%%:*}" = "crates/types/src/frame.rs" ]
if git grep -nwE 'WriteAheadLog|WAL_MAGIC|WAL_RECORD_BYTES|FRAME_LOG_MAGIC|FRAME_LOG_HEADER_BYTES' -- crates tests; then
    echo "crates/ or tests/ names a deleted log format again" >&2
    exit 1
fi

# ROADMAP 5(a)+(b), done and kept done: every SIMD kernel is written in
# one lane vocabulary — `Lanes`, with `PairLanes` for what is about pairs,
# both in crates/stats/src/simd.rs — whose methods are safe because a tier
# token is their proof, so simd.rs declares no `unsafe fn` outside its
# tests. Tree-wide, non-test `unsafe fn` (tracked sources up to their
# first `#[cfg(test)]`, comment lines dropped) stay within the budget
# below: the bench allocator's three `GlobalAlloc` methods.
echo "== one lane vocabulary =="
simd=crates/stats/src/simd.rs
lane_trait='^[[:space:]]*(pub(\([a-z]+\))? )?trait (Pair)?Lanes\b'
traits=$(git grep -hoE "$lane_trait" -- '*.rs' | awk '{ print $NF }' | sort | tr '\n' ' ')
homes=$(git grep -lE "$lane_trait" -- '*.rs')
lane_fns=$(non_test "$simd" | grep -cw 'unsafe fn' || true)
unsafe_fn_budget=3
unsafe_fns=$(git ls-files 'crates/*/src/*.rs' 'tests/src/*.rs' 'examples/*.rs' 'third_party/*/src/*.rs' |
    while read -r file; do non_test "$file"; done | grep -cw 'unsafe fn' || true)
echo "lane traits: ${traits:-none} in ${homes:-nowhere}; unsafe fn in $simd: $lane_fns; non-test unsafe fn: $unsafe_fns (budget $unsafe_fn_budget)"
[ "$traits" = "Lanes PairLanes " ]
[ "$homes" = "$simd" ]
[ "$lane_fns" -eq 0 ]
[ "$unsafe_fns" -le "$unsafe_fn_budget" ]

# One definition of the same bits: every equivalence check goes through
# `smda_types::BitEq` (crates/types/src/bits.rs), the only place that
# compares `to_bits()` with `==` or `!=` — in non-test crates/*/src (each
# file up to its first `#[cfg(test)]`) and in tests/tests, comment lines
# dropped.
echo "== one definition of the same bits =="
bit_compares=$({
    git ls-files 'crates/*/src/*.rs' ':!crates/types/src/bits.rs' | while read -r file; do
        non_test "$file" | sed "s#^#$file: #"
    done
    git ls-files 'tests/tests/*.rs' | while read -r file; do
        grep -vE '^[[:space:]]*//' "$file" | sed "s#^#$file: #"
    done
} | { grep -E 'to_bits\(\).*[!=]=|[!=]=.*to_bits\(\)' || true; })
echo "to_bits() compared outside crates/types/src/bits.rs: $(grep -c . <<<"$bit_compares")"
if [ -n "$bit_compares" ]; then
    echo "$bit_compares" >&2
    exit 1
fi

# DESIGN §10: ingest buffers readings and feeds the anomaly detector, and
# nothing else; a sealed year's similarity rows, histograms and `.smc` file
# come from the code the batch path runs. So the non-test ingest sources
# name none of the batch builders, and the streaming re-derivations they
# replaced stay deleted.
echo "== one derivation of a sealed year =="
derived=$(git ls-files 'crates/ingest/src/*.rs' | while read -r file; do
    non_test "$file" | { grep -E '\b(count_buckets|HistogramSpec|EquiWidthHistogram|OnlineStats|norm2)\b|set_row\(' || true; } |
        sed "s#^#$file: #"
done)
echo "batch builders named in non-test crates/ingest/src: ${derived:-none}"
[ -z "$derived" ]
if git grep -nwE 'RunningHistogram|SealedConsumer|seal_to_smc|with_seal_smc|bucket_in' -- crates; then
    echo "crates/ re-derives a sealed year's artifacts again" >&2
    exit 1
fi

# Every crate under crates/, tests/ and examples/ inherits the workspace
# lints, and a warning there fails the step; third_party/ is left as it is.
echo "== clippy =="
vendored=$(sed -n 's/^name = "\(.*\)"$/--exclude \1/p' third_party/*/Cargo.toml)
# shellcheck disable=SC2086 # one word per flag
cargo clippy --workspace $vendored --all-targets --no-deps -- -D warnings

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

    # DESIGN §15: each lane of the SMC1 digest is a scalar `imul` chain.
    # LLVM's SLP vectorizer would pack the four lanes into SSE2 multiplies
    # emulated with `pmuludq`, at half the speed; `digest::opaque` stops
    # it, and the instructions that ship say whether it still does.
    echo "== scalar digest (the release disassembly) =="
    if command -v objdump >/dev/null; then
        update=$(objdump -d --no-show-raw-insn target/release/smda |
            awk '/^[0-9a-f]+ <.*smda_format6digest6Digest6update.*>:$/ { on = 1; print; next } /^$/ { on = 0 } on')
        [ -n "$update" ] || { echo "no Digest::update in target/release/smda" >&2; exit 1; }
        emulated=$(grep -c pmuludq <<<"$update" || true)
        echo "$emulated pmuludq instructions in Digest::update"
        [ "$emulated" -eq 0 ]
    else
        echo "no objdump on this machine: the disassembly check is skipped"
    fi

    # ROADMAP 5(c): on an AVX-512 host the pair block, PAR's two lane passes
    # and the Histogram's two run in `avx512f` frames of their own (every
    # `fn …_avx512` in crates/stats/src). Each must ship and hold `zmm`
    # instructions: a dispatch that never reached one would leave its pass
    # on `ymm`, every output bit unchanged and nothing else failing.
    echo "== zmm frames ship (the release disassembly) =="
    if command -v objdump >/dev/null; then
        frames=$(git grep -oE '^fn [a-z0-9_]+_avx512\b' -- 'crates/stats/src/*.rs' |
            sed 's#^crates/stats/src/\([a-z_]*\)\.rs:fn #smda_stats::\1::#')
        [ -n "$frames" ]
        listing=$(objdump -d -C --no-show-raw-insn target/release/smda)
        for frame in $frames; do
            body=$(awk -v head="<$frame>:" '$2 == head { on = 1; next } /^$/ { on = 0 } on' <<<"$listing")
            zmm=$(grep -c zmm <<<"$body" || true)
            echo "$frame: $(grep -c . <<<"$body") instructions, $zmm on zmm"
            [ "$zmm" -gt 0 ] || { echo "$frame is missing from target/release/smda or holds no zmm instruction" >&2; exit 1; }
        done
    else
        echo "no objdump on this machine: the disassembly check is skipped"
    fi

    # The SIMD kernels at the optimisation level that ships: a debug
    # build spills the block kernel's accumulators to the stack and never
    # runs the register-resident form; smda-format's AVX-512 unpacker
    # runs its tier tests here too.
    echo "== test (smda-stats, smda-format, release) =="
    cargo test --release -q -p smda-stats -p smda-format

    # ROADMAP 10(c): the packages that hold every `unsafe` block outside
    # the bench allocator, under AddressSanitizer. `--target` keeps the
    # flag off build scripts and proc macros. std is not rebuilt with it,
    # so only our own accesses are checked (DESIGN §14). Doctests are left
    # out: rustdoc does not link the sanitizer runtime.
    echo "== AddressSanitizer (smda-stats, smda-format, smda-engines, mmap) =="
    if [ "$(uname -m)" = x86_64 ] && cargo +nightly --version >/dev/null 2>&1; then
        RUSTFLAGS=-Zsanitizer=address cargo +nightly test -q --locked --tests \
            --target x86_64-unknown-linux-gnu -p smda-stats -p smda-format -p smda-engines -p mmap
    else
        echo "no x86_64 nightly toolchain on this machine: the AddressSanitizer step is skipped"
    fi

    # The generator's bytes, pinned: `GaussianNoise::fill` draws a year of
    # noise per call and must give the stream one `sample()` per hour
    # gave, so `smda generate` writes these files to the byte. The digests
    # assume the libm they were taken with, glibc 2.36 on x86_64: `ln` is
    # the polar method's one call whose last bit a libm may round its own
    # way. On another libm, take them again from the commit that last
    # changed them before reading a mismatch as a generator change.
    echo "== the generator's bytes =="
    gen_dir=$(mktemp -d)
    for pinned in raw:cf75269bb46089ee8e9cdc726d47dd7966309d35b105f883ced39b28e058b7df \
        packed:388d93a37035fcb8484cfbc196c8c87795ecf58935bcdf59de6141bfa88c7434; do
        encoding=${pinned%%:*}
        ./target/release/smda generate --consumers 8 --seed 7 --encoding "$encoding" \
            --smc "$gen_dir/generated.smc" >/dev/null
        digest=$(sha256sum "$gen_dir/generated.smc" | cut -d' ' -f1)
        echo "$encoding: $digest"
        [ "$digest" = "${pinned#*:}" ] || { echo "smda generate --encoding $encoding wrote other bytes" >&2; exit 1; }
    done
    rm -r "$gen_dir"

    # The CLI's seal writes the generator's bytes: a year replayed through
    # the streaming pipeline and sealed by `smda ingest --smc` is the file
    # `smda generate --smc` streams for the same seed, in either encoding.
    echo "== ingest seals the generator's bytes =="
    smc_dir=$(mktemp -d)
    for encoding in packed raw; do
        ./target/release/smda generate --consumers 8 --seed 7 --encoding "$encoding" \
            --smc "$smc_dir/generated.smc" >/dev/null
        ./target/release/smda ingest --consumers 8 --seed 7 --shards 3 --encoding "$encoding" \
            --smc "$smc_dir/ingested.smc" >/dev/null
        cmp "$smc_dir/generated.smc" "$smc_dir/ingested.smc"
        echo "$encoding: identical, $(wc -c <"$smc_dir/generated.smc") bytes"
    done
    rm -r "$smc_dir"

    echo "== equivalence gates (kernels fits serve real simd format oooc) =="
    cargo run --release -q -p smda-bench -- --smoke --check all

    # The figure-shape tests behind EXPERIMENTS.md's ✅ column are ignored
    # in debug builds. After the release build, not before: the
    # cluster_real one forks the `smda` worker binary.
    echo "== test (smda-bench, release: figure shapes) =="
    cargo test --release -q -p smda-bench
fi

echo "ci: all green"
