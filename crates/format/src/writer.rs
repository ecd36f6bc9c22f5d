//! Streaming `SMC1` writer.
//!
//! The writer emits header → blocks → temperature → index → footer in
//! one forward pass. Everything the footer needs (offsets, per-region
//! checksums, the whole-file digest) is accumulated while streaming, so
//! the writer never seeks back — a sealed snapshot can be piped to disk
//! block by block.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use smda_types::{ConsumerId, Error, Result};

use crate::block;
use crate::digest::Digest;
use crate::layout::{
    align8, Footer, Header, IndexEntry, ENC_PACKED, ENC_RAW, FLAG_RAW_CONTIGUOUS, HEADER_BYTES,
    SMC_VERSION,
};

/// Block encoding policy for a file being written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Encoding {
    /// Every block raw `f64` — largest files, but the data region is an
    /// `n × hours` matrix the reader can reinterpret in place (the
    /// mmap zero-copy cold-start path).
    Raw,
    /// Xor-delta bit-pack each block, falling back to raw per block
    /// when packing would not shrink it — smallest files.
    #[default]
    Packed,
}

/// What [`SmcWriter::finish`] reports about the file it sealed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmcSummary {
    /// Consumers written.
    pub consumers: usize,
    /// Readings per consumer.
    pub hours: usize,
    /// Total file size in bytes.
    pub file_bytes: u64,
    /// Blocks stored raw.
    pub raw_blocks: usize,
    /// Blocks stored xor-delta bit-packed.
    pub packed_blocks: usize,
}

/// Streaming writer for one `SMC1` file.
///
/// Usage: [`SmcWriter::create_with`], then [`append_consumer`] once per
/// consumer in ascending-id order, then [`temperature`], then
/// [`finish`]. Each step validates its precondition with a typed
/// error.
///
/// [`append_consumer`]: SmcWriter::append_consumer
/// [`temperature`]: SmcWriter::temperature
/// [`finish`]: SmcWriter::finish
#[derive(Debug)]
pub struct SmcWriter {
    out: BufWriter<File>,
    path: PathBuf,
    declared: usize,
    hours: usize,
    encoding: Encoding,
    entries: Vec<IndexEntry>,
    pos: u64,
    digest: Digest,
    temp: Option<(u64, u64)>,
    scratch: Vec<u8>,
}

impl SmcWriter {
    /// Start a file with an explicit encoding policy.
    pub fn create_with(
        path: impl AsRef<Path>,
        n: usize,
        hours: usize,
        encoding: Encoding,
    ) -> Result<SmcWriter> {
        let path = path.as_ref().to_path_buf();
        if hours == 0 {
            return Err(Error::Invalid(
                "SMC1 file must have at least one reading per consumer".into(),
            ));
        }
        if u32::try_from(n).is_err() || u32::try_from(hours).is_err() {
            return Err(Error::Invalid(format!(
                "SMC1 dimensions n={n} hours={hours} exceed the u32 header fields"
            )));
        }
        let file = File::create(&path).map_err(|e| Error::io(format!("create {path:?}"), e))?;
        let mut writer = SmcWriter {
            out: BufWriter::new(file),
            path,
            declared: n,
            hours,
            encoding,
            entries: Vec::with_capacity(n),
            pos: 0,
            digest: Digest::default(),
            temp: None,
            scratch: Vec::new(),
        };
        let header = Header {
            version: SMC_VERSION,
            // Set optimistically for the raw policy; per-block raw
            // fallback under Packed never yields contiguity because the
            // flag is cleared whenever the policy is Packed.
            flags: if encoding == Encoding::Raw {
                FLAG_RAW_CONTIGUOUS
            } else {
                0
            },
            n: n as u32,
            hours: hours as u32,
        };
        writer.write(&header.encode())?;
        Ok(writer)
    }

    fn write(&mut self, bytes: &[u8]) -> Result<()> {
        self.digest.update(bytes);
        self.out
            .write_all(bytes)
            .map_err(|e| Error::io(format!("write {:?}", self.path), e))?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    fn pad_to_8(&mut self) -> Result<()> {
        let pad = (align8(self.pos) - self.pos) as usize;
        self.write(&[0u8; 8][..pad])
    }

    /// Append one consumer's readings. Ids must be strictly ascending
    /// and `kwh.len()` must equal the declared `hours`.
    pub fn append_consumer(&mut self, id: ConsumerId, kwh: &[f64]) -> Result<()> {
        if self.temp.is_some() {
            return Err(Error::Invalid(
                "SMC1 writer: consumers must be appended before the temperature block".into(),
            ));
        }
        if self.entries.len() == self.declared {
            return Err(Error::Invalid(format!(
                "SMC1 writer: file declared {} consumers, got more",
                self.declared
            )));
        }
        if kwh.len() != self.hours {
            return Err(Error::Invalid(format!(
                "SMC1 writer: consumer {id} has {} readings, file declares {}",
                kwh.len(),
                self.hours
            )));
        }
        if let Some(last) = self.entries.last() {
            if id.raw() <= last.id {
                return Err(Error::Invalid(format!(
                    "SMC1 writer: consumer ids must be strictly ascending ({} after {})",
                    id.raw(),
                    last.id
                )));
            }
        }
        self.pad_to_8()?;
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        let packed = match self.encoding {
            Encoding::Raw => None,
            Encoding::Packed => Some(block::encode_packed_digested(kwh, &mut buf)),
        };
        let (encoding, checksum) = match packed {
            Some(digest) if buf.len() < kwh.len() * 8 => (ENC_PACKED, digest),
            _ => {
                buf.clear();
                block::encode_raw(kwh, &mut buf);
                (ENC_RAW, Digest::of(&buf))
            }
        };
        let entry = IndexEntry {
            id: id.raw(),
            encoding,
            offset: self.pos,
            length: buf.len() as u64,
            checksum,
        };
        let res = self.write(&buf);
        self.scratch = buf;
        res?;
        self.entries.push(entry);
        Ok(())
    }

    /// Copy an already-encoded block verbatim (the `cut`/`merge` path):
    /// same ordering rules as [`SmcWriter::append_consumer`], but the
    /// bytes and their checksum are taken as-is.
    pub(crate) fn append_encoded(
        &mut self,
        id: u32,
        encoding: u32,
        bytes: &[u8],
        checksum: u64,
    ) -> Result<()> {
        if self.temp.is_some() || self.entries.len() == self.declared {
            return Err(Error::Invalid(
                "SMC1 writer: block appended out of sequence".into(),
            ));
        }
        if let Some(last) = self.entries.last() {
            if id <= last.id {
                return Err(Error::Invalid(format!(
                    "SMC1 writer: consumer ids must be strictly ascending ({id} after {})",
                    last.id
                )));
            }
        }
        self.pad_to_8()?;
        self.entries.push(IndexEntry {
            id,
            encoding,
            offset: self.pos,
            length: bytes.len() as u64,
            checksum,
        });
        self.write(bytes)
    }

    /// Write the shared temperature block. Must follow the final
    /// consumer and precede [`SmcWriter::finish`].
    pub fn temperature(&mut self, values: &[f64]) -> Result<()> {
        if self.temp.is_some() {
            return Err(Error::Invalid(
                "SMC1 writer: temperature block written twice".into(),
            ));
        }
        if self.entries.len() != self.declared {
            return Err(Error::Invalid(format!(
                "SMC1 writer: temperature written after {} of {} consumers",
                self.entries.len(),
                self.declared
            )));
        }
        if values.len() != self.hours {
            return Err(Error::Invalid(format!(
                "SMC1 writer: temperature has {} readings, file declares {}",
                values.len(),
                self.hours
            )));
        }
        self.pad_to_8()?;
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        block::encode_raw(values, &mut buf);
        let off = self.pos;
        let check = Digest::of(&buf);
        let res = self.write(&buf);
        self.scratch = buf;
        res?;
        self.temp = Some((off, check));
        Ok(())
    }

    /// Seal the file: write index and footer, flush, and report.
    pub fn finish(mut self) -> Result<SmcSummary> {
        let (temp_off, temp_check) = self.temp.ok_or_else(|| {
            Error::Invalid("SMC1 writer: finish() before the temperature block".into())
        })?;
        let index_off = self.pos;
        let mut index_digest = Digest::default();
        let entries = std::mem::take(&mut self.entries);
        for entry in &entries {
            let bytes = entry.encode();
            index_digest.update(&bytes);
            self.write(&bytes)?;
        }
        let mut footer = Footer {
            index_off,
            index_len: (entries.len() * crate::layout::INDEX_ENTRY_BYTES) as u64,
            temp_off,
            temp_check,
            index_check: index_digest.finish(),
            file_check: 0,
        };
        // Stream the checksummed prefix of the footer, then read off
        // the digest: file_check covers [0, file_len − 12).
        let encoded = footer.encode();
        self.write(&encoded[..40])?;
        footer.file_check = self.digest.finish();
        let encoded = footer.encode();
        self.out
            .write_all(&encoded[40..])
            .map_err(|e| Error::io(format!("write {:?}", self.path), e))?;
        self.pos += (encoded.len() - 40) as u64;
        self.out
            .flush()
            .map_err(|e| Error::io(format!("flush {:?}", self.path), e))?;
        let raw_blocks = entries.iter().filter(|e| e.encoding == ENC_RAW).count();
        Ok(SmcSummary {
            consumers: entries.len(),
            hours: self.hours,
            file_bytes: self.pos,
            raw_blocks,
            packed_blocks: entries.len() - raw_blocks,
        })
    }
}

/// Write a whole [`Dataset`](smda_types::Dataset) to `path` in one
/// call. Consumers are laid out in ascending-id order regardless of
/// their order in the dataset.
pub fn write_dataset(
    path: impl AsRef<Path>,
    dataset: &smda_types::Dataset,
    encoding: Encoding,
) -> Result<SmcSummary> {
    let hours = dataset
        .consumers()
        .first()
        .map(|c| c.readings().len())
        .unwrap_or_else(|| dataset.temperature().values().len());
    let mut writer = SmcWriter::create_with(&path, dataset.len(), hours, encoding)?;
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    order.sort_by_key(|&i| dataset.consumers()[i].id);
    for i in order {
        let c = &dataset.consumers()[i];
        writer.append_consumer(c.id, c.readings())?;
    }
    writer.temperature(dataset.temperature().values())?;
    writer.finish()
}

const _: () = {
    // `HEADER_BYTES` is the first block offset; blocks require 8-byte
    // alignment, so the header size must already be a multiple of 8.
    assert!(HEADER_BYTES.is_multiple_of(8));
};
