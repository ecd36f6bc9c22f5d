//! Property-based corruption tests for the `SMC1` codec.
//!
//! The contract mirrors the transport-frame suite: a well-formed file
//! round-trips every reading `to_bits`-exactly, and **every**
//! corruption — truncation at any point, any single flipped byte, a
//! wrong magic, a checksum mismatch anywhere — surfaces as a typed
//! [`Error::BadFormat`] naming the defect. Never a panic, never
//! silently-wrong data.

use proptest::prelude::*;
use smda_format::{Encoding, SmcFile, SmcWriter};
use smda_types::{ConsumerId, Error, FormatDefect};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique scratch path per test case (proptest runs many cases per
/// process).
fn scratch(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "smda-corrupt-{tag}-{}-{seq}.smc",
        std::process::id()
    ))
}

/// Deterministic pseudo-random reading values from a seed (splitmix64),
/// so each proptest case explores a different bit-pattern population
/// without any global randomness.
fn reading(seed: u64, i: u64) -> f64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // Keep values finite and non-negative; mix smooth and spiky.
    if z % 3 == 0 {
        (z % 1000) as f64 * 0.25
    } else {
        (z % 100_000) as f64 / 997.0
    }
}

/// Write a file of `n` consumers × `hours` readings; return its bytes.
fn build_file(path: &PathBuf, n: usize, hours: usize, seed: u64, packed: bool) -> Vec<u8> {
    let encoding = if packed {
        Encoding::Packed
    } else {
        Encoding::Raw
    };
    let mut w = SmcWriter::create_with(path, n, hours, encoding).unwrap();
    for c in 0..n {
        let values: Vec<f64> = (0..hours)
            .map(|h| reading(seed ^ (c as u64) << 32, h as u64))
            .collect();
        w.append_consumer(ConsumerId(c as u32 * 2 + 1), &values)
            .unwrap();
    }
    let temps: Vec<f64> = (0..hours).map(|h| reading(!seed, h as u64)).collect();
    w.temperature(&temps).unwrap();
    w.finish().unwrap();
    std::fs::read(path).unwrap()
}

/// Open + verify + decode every block; collapse any failure into the
/// defect it reported. `Ok` means the file fully round-trips.
fn full_read(path: &PathBuf) -> Result<(), Error> {
    let file = SmcFile::open(path)?;
    file.verify()?;
    let mut buf = Vec::new();
    for idx in 0..file.n() {
        file.read_consumer_into(idx, &mut buf)?;
    }
    Ok(())
}

fn assert_bad_format(result: Result<(), Error>, what: &str) {
    match result {
        Err(Error::BadFormat { .. }) => {}
        Ok(()) => panic!("{what}: corrupted file read back successfully"),
        Err(other) => panic!("{what}: produced a non-format error: {other}"),
    }
}

proptest! {
    #[test]
    fn round_trip_is_bit_exact(
        n in 1usize..6,
        hours in 1usize..48,
        seed in proptest::any::<u64>(),
        packed in proptest::any::<bool>(),
    ) {
        let path = scratch("rt");
        build_file(&path, n, hours, seed, packed);
        let file = SmcFile::open(&path).unwrap();
        file.verify().unwrap();
        let mut buf = Vec::new();
        for c in 0..n {
            let id = file.read_consumer_into(c, &mut buf).unwrap();
            prop_assert_eq!(id, ConsumerId(c as u32 * 2 + 1));
            for (h, v) in buf.iter().enumerate() {
                let want = reading(seed ^ (c as u64) << 32, h as u64);
                prop_assert_eq!(v.to_bits(), want.to_bits());
            }
        }
        for (h, v) in file.temperature().iter().enumerate() {
            prop_assert_eq!(v.to_bits(), reading(!seed, h as u64).to_bits());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn any_truncation_is_a_typed_error(
        n in 1usize..5,
        hours in 1usize..32,
        seed in proptest::any::<u64>(),
        packed in proptest::any::<bool>(),
        cut in proptest::any::<usize>(),
    ) {
        let path = scratch("trunc");
        let bytes = build_file(&path, n, hours, seed, packed);
        let cut = cut % bytes.len();
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert_bad_format(full_read(&path), "truncation");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn any_single_flipped_byte_is_a_typed_error(
        n in 1usize..5,
        hours in 1usize..32,
        seed in proptest::any::<u64>(),
        packed in proptest::any::<bool>(),
        pos in proptest::any::<usize>(),
        flip in 1u8..=255,
    ) {
        let path = scratch("flip");
        let mut bytes = build_file(&path, n, hours, seed, packed);
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        std::fs::write(&path, &bytes).unwrap();
        // Wherever the flip lands — header, a block, padding, the
        // temperature, the index, the footer — open-time validation,
        // a block read, or the whole-file digest must catch it.
        assert_bad_format(full_read(&path), "byte flip");
        std::fs::remove_file(&path).unwrap();
    }
}

// ---- Defect-naming cases: each corruption reports *which* structure
// ---- failed, not just that something did.

fn defect_of(path: &PathBuf) -> FormatDefect {
    match full_read(path) {
        Err(Error::BadFormat { defect, .. }) => defect,
        other => panic!("expected BadFormat, got {other:?}"),
    }
}

fn built(tag: &str, packed: bool) -> (PathBuf, Vec<u8>) {
    let path = scratch(tag);
    let bytes = build_file(&path, 3, 24, 0x5eed, packed);
    (path, bytes)
}

#[test]
fn header_magic_flip_names_bad_magic() {
    let (path, mut bytes) = built("magic", true);
    bytes[0] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(defect_of(&path), FormatDefect::BadMagic);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn version_bump_names_unsupported_version() {
    let (path, mut bytes) = built("version", true);
    bytes[4] = 3;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(
        defect_of(&path),
        FormatDefect::UnsupportedVersion {
            found: 3,
            supported: 2
        }
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn v1_file_is_refused_before_any_checksum() {
    // A version-1 file has this layout with FNV-1a in every checksum
    // field, so under the v2 digest all of them mismatch. The version
    // is what must be reported, not the first checksum that trips.
    let (path, mut bytes) = built("v1", true);
    bytes[4] = 1;
    let footer = bytes.len() - 52;
    for field in [24, 32, 40] {
        bytes[footer + field] ^= 0xa5; // temp_check, index_check, file_check
    }
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(
        defect_of(&path),
        FormatDefect::UnsupportedVersion {
            found: 1,
            supported: 2
        }
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn short_file_names_truncated() {
    let (path, bytes) = built("short", true);
    std::fs::write(&path, &bytes[..40]).unwrap();
    assert!(matches!(
        defect_of(&path),
        FormatDefect::Truncated { actual: 40, .. }
    ));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn footer_magic_flip_names_bad_footer_magic() {
    let (path, mut bytes) = built("fmagic", true);
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(defect_of(&path), FormatDefect::BadFooterMagic);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn index_flip_names_index_checksum() {
    let (path, mut bytes) = built("index", true);
    // The index sits right before the 52-byte footer; flip a byte in
    // the middle of an entry's checksum field (offset 24 into entry 0).
    let index_off = bytes.len() - 52 - 3 * 32;
    bytes[index_off + 24] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(defect_of(&path), FormatDefect::IndexChecksumMismatch);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn block_flip_names_the_consumer() {
    let (path, mut bytes) = built("block", true);
    // First block starts at the header boundary; flip one byte of it.
    // Keep open() green (index/temp untouched) so the block read is
    // what trips.
    bytes[24 + 3] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    let file = SmcFile::open(&path).expect("open validates index+temp only");
    let mut buf = Vec::new();
    match file.read_consumer_into(0, &mut buf) {
        Err(Error::BadFormat {
            defect: FormatDefect::BlockChecksumMismatch { consumer },
            ..
        }) => assert_eq!(consumer, 1),
        other => panic!("expected block checksum mismatch, got {other:?}"),
    }
    // verify() reports the same defect.
    match file.verify() {
        Err(Error::BadFormat {
            defect: FormatDefect::FileChecksumMismatch | FormatDefect::BlockChecksumMismatch { .. },
            ..
        }) => {}
        other => panic!("expected checksum mismatch from verify, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn temperature_flip_names_temperature_checksum() {
    let (path, bytes) = built("temp", false);
    // Raw layout: temperature block directly follows the 3 × 24 raw
    // consumer readings.
    let temp_off = 24 + 3 * 24 * 8;
    let mut bytes = bytes;
    bytes[temp_off + 5] ^= 0x04;
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(defect_of(&path), FormatDefect::TemperatureChecksumMismatch);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn reserved_header_flip_is_caught_by_verify() {
    let (path, mut bytes) = built("reserved", true);
    // Reserved header bytes participate in no open-time check — the
    // whole-file digest is what refuses to certify the file.
    bytes[16] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    let file = SmcFile::open(&path).expect("reserved bytes are outside open-time checks");
    match file.verify() {
        Err(Error::BadFormat {
            defect: FormatDefect::FileChecksumMismatch,
            ..
        }) => {}
        other => panic!("expected file checksum mismatch, got {other:?}"),
    }
    std::fs::remove_file(&path).unwrap();
}
