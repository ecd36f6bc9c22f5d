//! Property-based tests for the `--faults` spec parser.
//!
//! The contract under test: [`FaultPlan::parse`] never panics. Every
//! spec — built from the grammar's keys and separators, numbers that are
//! huge, negative, NaN, infinite or empty, and junk — either parses or
//! is refused with an [`Error::FaultSpec`] whose `term` starts at its
//! byte `offset` in the spec.

use proptest::prelude::*;
use smda_cluster::FaultPlan;
use smda_types::Error;

const KEYS: &[&str] = &[
    "seed",
    "task_fail",
    "retries",
    "crash",
    "slow",
    "lose",
    "speculate",
    "rereplicate",
    "bogus",
    "",
];

const NUMBERS: &[&str] = &[
    "0",
    "1",
    "7",
    "0.5",
    "1.5",
    "4",
    "-1",
    "-0",
    "",
    "NaN",
    "inf",
    "-inf",
    "1e30",
    "1e300",
    "18446744073709551615",
    "18446744073709551616",
    "1.8446744073709552e19",
    "340282366920938463463374607431768211456",
];

/// Separators, grammar punctuation and bytes no grammar rule expects
/// (multi-byte ones among them, so offsets must count bytes).
const JUNK: &[&str] = &[
    ",", "=", "@", "x", " ", "\t", "é", "∞", "\u{0}", "#", "e", "-", ".",
];

/// One term: a shape over a key, two numbers and some junk.
fn term(shape: usize, key: usize, a: usize, b: usize, junk: &[usize]) -> String {
    let (key, a, b) = (KEYS[key], NUMBERS[a], NUMBERS[b]);
    let junk: String = junk.iter().map(|&j| JUNK[j]).collect();
    match shape {
        0 => format!("{key}={a}"),
        1 => format!("{key}={a}@{b}"),
        2 => format!("{key}={a}x{b}"),
        3 => format!("{key}{junk}{a}"),
        4 => format!(" {key}={a}{junk}"),
        _ => junk,
    }
}

fn specs() -> impl Strategy<Value = String> {
    let one = (
        (0usize..6, 0..KEYS.len()),
        (0..NUMBERS.len(), 0..NUMBERS.len()),
        prop::collection::vec(0..JUNK.len(), 0..5),
    );
    prop::collection::vec(one, 0..6).prop_map(|terms| {
        terms
            .iter()
            .map(|((shape, key), (a, b), junk)| term(*shape, *key, *a, *b, junk))
            .collect::<Vec<_>>()
            .join(",")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn every_spec_parses_or_names_its_term(spec in specs()) {
        match FaultPlan::parse(&spec) {
            Ok(_) => {}
            Err(Error::FaultSpec { term, offset, .. }) => {
                prop_assert!(
                    spec.get(offset..).is_some_and(|rest| rest.starts_with(&term)),
                    "`{term}` is not at byte {offset} of `{spec}`"
                );
            }
            Err(other) => panic!("`{spec}`: expected Error::FaultSpec, got {other:?}"),
        }
    }
}
