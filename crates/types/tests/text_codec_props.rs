//! Corruption properties of the text codec (`smda_types::csv`), the one
//! place a Format 1 or Format 2 line becomes a reading or a household's
//! year.
//!
//! The contract under test, for a valid line: every truncation and every
//! single-byte flip parses to `Ok` or to a typed parse or schema error,
//! never a panic; and a line cut before its last field is always an
//! error, whatever the cut leaves.

use proptest::prelude::*;
use smda_types::csv::{consumer_line, parse_consumer_line, parse_reading_line, reading_line};
use smda_types::{ConsumerId, Error, Reading, Result, HOURS_PER_YEAR};

/// `Ok`, or an error of the two kinds a line can earn: malformed text
/// (`Parse`) or a well-formed row no household may hold (`Schema`).
fn typed<T>(outcome: &Result<T>) -> bool {
    matches!(outcome, Ok(_) | Err(Error::Parse { .. } | Error::Schema(_)))
}

/// Where the last field of `line` starts: one past its last comma.
fn last_field(line: &str) -> usize {
    line.rfind(',').map_or(0, |comma| comma + 1)
}

/// `line`'s bytes with byte `at` XORed by `mask`, as the lossy text a
/// reader would hand the parser.
fn flipped(line: &str, at: usize, mask: u8) -> String {
    let mut bytes = line.as_bytes().to_vec();
    bytes[at] ^= mask;
    String::from_utf8_lossy(&bytes).into_owned()
}

/// One Format 1 row.
fn reading(consumer: u32, hour: u32, temperature: f64, kwh: f64) -> Reading {
    Reading {
        consumer: ConsumerId(consumer),
        hour,
        temperature,
        kwh,
    }
}

/// A year whose readings print as one character, save every 97th, which
/// prints as a fraction of up to six: short enough that every cut and
/// every flip of the whole line parses in seconds.
fn year(seed: u64) -> Vec<f64> {
    (0..HOURS_PER_YEAR as u64)
        .map(|h| {
            if (h + seed).is_multiple_of(97) {
                ((h * 31 + seed) % 997) as f64 / 8.0
            } else {
                (h % 3) as f64
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn format1_truncations_and_flips_are_typed(
        consumer in 0u32..100_000,
        hour in 0u32..8760,
        temperature in -40.0f64..45.0,
        kwh in 0.0f64..12.0,
        mask in 1u8..=255,
    ) {
        let line = reading_line(&reading(consumer, hour, temperature, kwh));
        prop_assert!(parse_reading_line(&line, "t", Some(1)).is_ok(), "{line}");
        let cut_before_last = last_field(&line);
        for cut in 0..line.len() {
            let outcome = parse_reading_line(&line[..cut], "t", Some(1));
            prop_assert!(typed(&outcome), "{line} cut at {cut}: {outcome:?}");
            if cut <= cut_before_last {
                prop_assert!(outcome.is_err(), "{line} cut at {cut} parsed");
            }
        }
        for at in 0..line.len() {
            let outcome = parse_reading_line(&flipped(&line, at, mask), "t", Some(1));
            prop_assert!(typed(&outcome), "{line} flipped at {at} by {mask:#04x}: {outcome:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    #[test]
    fn format2_truncations_and_flips_are_typed(
        consumer in 0u32..100_000,
        seed in 0u64..1_000,
    ) {
        let line = consumer_line(ConsumerId(consumer), &year(seed));
        prop_assert!(parse_consumer_line(&line, "t", Some(1)).is_ok());
        let cut_before_last = last_field(&line);
        for cut in 0..line.len() {
            let outcome = parse_consumer_line(&line[..cut], "t", Some(1));
            prop_assert!(typed(&outcome), "cut at {cut}: {outcome:?}");
            if cut <= cut_before_last {
                prop_assert!(outcome.is_err(), "cut at {cut} parsed");
            }
        }
        for at in 0..line.len() {
            let mask = ((at as u64 * 131 + seed) % 255 + 1) as u8;
            let outcome = parse_consumer_line(&flipped(&line, at, mask), "t", Some(1));
            prop_assert!(typed(&outcome), "flipped at {at} by {mask:#04x}: {outcome:?}");
        }
    }
}
