//! Re-sharding operations on sealed `SMC1` files.
//!
//! `cut` extracts a subset of consumers into a new file; `merge` joins
//! disjoint shards back together. Both move blocks as verbatim bytes
//! (verifying each block's checksum in flight) and rebuild the index
//! and footer, and the writer's layout is deterministic — so cutting a
//! file into shards and merging the shards back yields a
//! byte-identical file.

use std::path::Path;

use smda_types::{BitEq, ConsumerId, Error, Result};

use crate::layout::{ENC_RAW, FLAG_RAW_CONTIGUOUS};
use crate::reader::SmcFile;
use crate::writer::{Encoding, SmcSummary, SmcWriter};

fn shard_writer(path: &Path, n: usize, hours: usize, all_raw: bool) -> Result<SmcWriter> {
    // The encoding policy only drives the header flag and fresh
    // encodes; copied blocks keep their stored encoding. Choose Raw so
    // an all-raw source stays flagged contiguous (offsets are
    // reproduced exactly by the shared alignment rule).
    let policy = if all_raw {
        Encoding::Raw
    } else {
        Encoding::Packed
    };
    SmcWriter::create_with(path, n, hours, policy)
}

/// Copy the consumers in `keep` (any order, duplicates rejected) from
/// `src` into a new file at `dst`.
pub fn cut(
    src: impl AsRef<Path>,
    dst: impl AsRef<Path>,
    keep: &[ConsumerId],
) -> Result<SmcSummary> {
    let file = SmcFile::open(&src)?;
    let mut wanted: Vec<ConsumerId> = keep.to_vec();
    wanted.sort_unstable();
    if let Some(w) = wanted.windows(2).find(|w| w[0] == w[1]) {
        return Err(Error::Invalid(format!(
            "cut: consumer {} requested twice",
            w[0]
        )));
    }
    let mut picks = Vec::with_capacity(wanted.len());
    for id in &wanted {
        let idx = file.position(*id).ok_or_else(|| {
            Error::Invalid(format!(
                "cut: consumer {id} not present in {}",
                file.path().display()
            ))
        })?;
        picks.push(idx);
    }
    let all_raw = picks
        .iter()
        .all(|&idx| file.entries()[idx].encoding == ENC_RAW);
    let mut writer = shard_writer(dst.as_ref(), picks.len(), file.hours(), all_raw)?;
    for idx in picks {
        let entry = file.entries()[idx];
        // Verify in flight so corruption cannot silently propagate
        // into freshly-checksummed shards.
        let mut scratch = Vec::new();
        file.read_consumer_into(idx, &mut scratch)?;
        writer.append_encoded(
            entry.id,
            entry.encoding,
            file.block_bytes(&entry),
            entry.checksum,
        )?;
    }
    writer.temperature(file.temperature())?;
    writer.finish()
}

/// Merge disjoint shards into one file at `dst`. All shards must agree
/// on `hours` and carry bit-identical temperature blocks; consumer ids
/// must be globally unique.
pub fn merge<P: AsRef<Path>>(srcs: &[P], dst: impl AsRef<Path>) -> Result<SmcSummary> {
    if srcs.is_empty() {
        return Err(Error::Invalid("merge: no input files".into()));
    }
    let files: Vec<SmcFile> = srcs.iter().map(SmcFile::open).collect::<Result<_>>()?;
    let first = &files[0];
    for f in &files[1..] {
        if f.hours() != first.hours() {
            return Err(Error::Schema(format!(
                "merge: {} has {} hours, {} has {}",
                f.path().display(),
                f.hours(),
                first.path().display(),
                first.hours()
            )));
        }
        if !f.temperature().bits_eq(first.temperature()) {
            return Err(Error::Schema(format!(
                "merge: temperature series of {} differs from {}",
                f.path().display(),
                first.path().display()
            )));
        }
    }
    // Global ascending-id order across all shards.
    let mut order: Vec<(u32, usize, usize)> = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        for (ei, entry) in f.entries().iter().enumerate() {
            order.push((entry.id, fi, ei));
        }
    }
    order.sort_unstable();
    if let Some(w) = order.windows(2).find(|w| w[0].0 == w[1].0) {
        return Err(Error::Schema(format!(
            "merge: consumer {} appears in both {} and {}",
            ConsumerId(w[0].0),
            files[w[0].1].path().display(),
            files[w[1].1].path().display()
        )));
    }
    let all_raw = files
        .iter()
        .all(|f| f.entries().iter().all(|e| e.encoding == ENC_RAW));
    let mut writer = shard_writer(dst.as_ref(), order.len(), first.hours(), all_raw)?;
    let mut scratch = Vec::new();
    for (_, fi, ei) in order {
        let file = &files[fi];
        let entry = file.entries()[ei];
        file.read_consumer_into(ei, &mut scratch)?;
        writer.append_encoded(
            entry.id,
            entry.encoding,
            file.block_bytes(&entry),
            entry.checksum,
        )?;
    }
    writer.temperature(first.temperature())?;
    writer.finish()
}

const _: () = {
    // `shard_writer` relies on Raw policy implying the contiguity flag.
    assert!(FLAG_RAW_CONTIGUOUS == 1);
};
