//! `SMC1` reader: memory-mapped, validated on open, zero-copy where
//! the layout allows it.
//!
//! [`SmcFile::open`] maps the file and validates everything cheap —
//! magics, version, footer geometry, the index and temperature
//! checksums, and every structural invariant of the index (ascending
//! ids, known encodings, in-bounds 8-aligned blocks). It does **not**
//! touch the consumer blocks, so opening an n=1M file costs a handful
//! of page faults. Every decode of a block verifies its checksum (a
//! packed block's in the same pass that unpacks it), and no decoded
//! value is handed out before it compares equal; [`SmcFile::verify`]
//! additionally recomputes the whole-file digest.
//!
//! When the file was written raw ([`FLAG_RAW_CONTIGUOUS`]), the data
//! region *is* an `n × hours` matrix of little-endian `f64` and
//! [`SmcFile::rows`] reinterprets it in place: a cold-start load is
//! page faults only, zero parse, zero copy.
//!
//! The out-of-core tier's band reads ([`SmcFile::read_raw_rows`],
//! [`SmcFile::read_rows_into`]) go through the file descriptor instead:
//! no page of the mapping is faulted, and a file truncated under a run
//! is a typed error, not a `SIGBUS`.

use std::cell::RefCell;
use std::fs::File;
use std::path::{Path, PathBuf};

use mmap::Mmap;
use smda_types::{
    ConsumerId, ConsumerSeries, Dataset, Error, FormatDefect, Result, TemperatureSeries,
};

use crate::block;
use crate::digest::Digest;
use crate::layout::{
    bad, Footer, Header, IndexEntry, ENC_PACKED, ENC_RAW, FLAG_RAW_CONTIGUOUS, FOOTER_BYTES,
    HEADER_BYTES, INDEX_ENTRY_BYTES,
};
use crate::writer::SmcSummary;

/// Most stored bytes [`SmcFile::read_rows_into`] reads at once: a run of
/// blocks past it is read in pieces, at block boundaries, and a block
/// past it alone. A few packed years (about 66 KB each on generator
/// data), so a band costs a few reads, and little held per thread: at
/// 1 MiB the buffer alone read +2 % on the benchmark's peak RSS.
const READ_SPAN_BYTES: usize = 256 << 10;

thread_local! {
    /// The stored blocks [`SmcFile::read_rows_into`] decodes from, reused
    /// by each reading thread: at most `READ_SPAN_BYTES`, or one block.
    static SPAN: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// An open, validated `SMC1` file.
#[derive(Debug)]
pub struct SmcFile {
    /// Kept open for [`SmcFile::read_raw_rows`] and
    /// [`SmcFile::read_rows_into`].
    file: File,
    map: Mmap,
    path: PathBuf,
    header: Header,
    footer: Footer,
    entries: Vec<IndexEntry>,
    temperature: Vec<f64>,
    contiguous_raw: bool,
}

impl SmcFile {
    /// Map and validate `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<SmcFile> {
        let path = path.as_ref().to_path_buf();
        let context = format!("opening {}", path.display());
        let file = File::open(&path).map_err(|e| Error::io(format!("open {path:?}"), e))?;
        let map = Mmap::map(&file).map_err(|e| Error::io(format!("map {path:?}"), e))?;
        let len = map.len() as u64;
        let min = (HEADER_BYTES + FOOTER_BYTES) as u64;
        if len < min {
            return Err(bad(
                &context,
                FormatDefect::Truncated {
                    expected: min,
                    actual: len,
                },
            ));
        }
        let header = Header::decode(&map, &context)?;
        let footer = Footer::decode(&map[map.len() - FOOTER_BYTES..], &context)?;

        let n = header.n as u64;
        let hours = header.hours as u64;
        let geometry = |what: &str| bad(&context, FormatDefect::CorruptIndex(what.into()));
        if hours == 0 {
            return Err(geometry("hours field is zero"));
        }
        let expected_index_len = n
            .checked_mul(INDEX_ENTRY_BYTES as u64)
            .ok_or_else(|| geometry("index length overflows"))?;
        if footer.index_len != expected_index_len {
            return Err(geometry("index length disagrees with the header count"));
        }
        let footer_off = len - FOOTER_BYTES as u64;
        if footer.index_off < HEADER_BYTES as u64
            || !footer.index_off.is_multiple_of(8)
            || footer.index_off.checked_add(footer.index_len) != Some(footer_off)
        {
            return Err(geometry("index region does not abut the footer"));
        }
        let temp_len = hours
            .checked_mul(8)
            .ok_or_else(|| geometry("temperature length overflows"))?;
        if footer.temp_off < HEADER_BYTES as u64
            || !footer.temp_off.is_multiple_of(8)
            || footer
                .temp_off
                .checked_add(temp_len)
                .is_none_or(|end| end > footer.index_off)
        {
            return Err(geometry("temperature block out of bounds"));
        }

        let index_bytes =
            &map[footer.index_off as usize..(footer.index_off + footer.index_len) as usize];
        if Digest::of(index_bytes) != footer.index_check {
            return Err(bad(&context, FormatDefect::IndexChecksumMismatch));
        }
        let temp_bytes = &map[footer.temp_off as usize..(footer.temp_off + temp_len) as usize];
        if Digest::of(temp_bytes) != footer.temp_check {
            return Err(bad(&context, FormatDefect::TemperatureChecksumMismatch));
        }

        let mut entries = Vec::with_capacity(header.n as usize);
        let mut contiguous_raw = true;
        for (i, chunk) in index_bytes.chunks_exact(INDEX_ENTRY_BYTES).enumerate() {
            let entry = IndexEntry::decode(chunk);
            if let Some(prev) = entries.last() {
                let prev: &IndexEntry = prev;
                if entry.id <= prev.id {
                    return Err(geometry("consumer ids not strictly ascending"));
                }
            }
            if entry.encoding != ENC_RAW && entry.encoding != ENC_PACKED {
                return Err(geometry("unknown block encoding"));
            }
            if entry.encoding == ENC_RAW && entry.length != temp_len {
                return Err(geometry("raw block length disagrees with hours"));
            }
            if entry.offset < HEADER_BYTES as u64
                || !entry.offset.is_multiple_of(8)
                || entry
                    .offset
                    .checked_add(entry.length)
                    .is_none_or(|end| end > footer.temp_off)
            {
                return Err(geometry("block out of bounds"));
            }
            if entry.encoding != ENC_RAW
                || entry.offset != HEADER_BYTES as u64 + i as u64 * temp_len
            {
                contiguous_raw = false;
            }
            entries.push(entry);
        }
        contiguous_raw &= header.flags & FLAG_RAW_CONTIGUOUS != 0;

        // The temperature block is shared, tiny, and read by every
        // task; decode it once so lookups are infallible after open.
        let mut temperature = Vec::new();
        block::decode_raw(temp_bytes, header.hours as usize, &mut temperature)?;

        Ok(SmcFile {
            file,
            map,
            path,
            header,
            footer,
            entries,
            temperature,
            contiguous_raw,
        })
    }

    /// Path this file was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Consumer count.
    pub fn n(&self) -> usize {
        self.header.n as usize
    }

    /// Readings per consumer.
    pub fn hours(&self) -> usize {
        self.header.hours as usize
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.map.len() as u64
    }

    /// Consumer ids, ascending.
    pub fn consumer_ids(&self) -> Vec<ConsumerId> {
        self.entries.iter().map(|e| ConsumerId(e.id)).collect()
    }

    /// Position of `id` in the file's consumer order.
    pub fn position(&self, id: ConsumerId) -> Option<usize> {
        self.entries.binary_search_by_key(&id.raw(), |e| e.id).ok()
    }

    /// The shared temperature series (decoded once at open).
    pub fn temperature(&self) -> &[f64] {
        &self.temperature
    }

    fn entry(&self, idx: usize) -> Result<&IndexEntry> {
        self.entries.get(idx).ok_or_else(|| {
            Error::Invalid(format!(
                "consumer index {idx} out of range (file has {})",
                self.entries.len()
            ))
        })
    }

    pub(crate) fn block_bytes(&self, entry: &IndexEntry) -> &[u8] {
        // Bounds were validated at open.
        &self.map[entry.offset as usize..(entry.offset + entry.length) as usize]
    }

    fn checksum_mismatch(&self, entry: &IndexEntry) -> Error {
        bad(
            format!("reading {}", self.path.display()),
            FormatDefect::BlockChecksumMismatch { consumer: entry.id },
        )
    }

    /// Decode `entry`'s block, whose stored bytes are `bytes`, onto the
    /// end of `out`, verifying its digest; on `Err`, `out` is as it was.
    /// A packed block is digested as it decodes, so a structural defect
    /// stops the fused digest short: the block is then digested whole,
    /// and a mismatch still outranks the defect — a damaged block
    /// reports the checksum.
    fn decode_checked(&self, entry: &IndexEntry, bytes: &[u8], out: &mut Vec<f64>) -> Result<()> {
        crate::metrics::record_bytes_checksummed(bytes.len() as u64);
        let start = out.len();
        let decoded = match entry.encoding {
            ENC_RAW => block::decode_raw(bytes, self.hours(), out).map(|()| Digest::of(bytes)),
            _ => block::decode_packed_digested(bytes, self.hours(), out),
        };
        let error = match decoded {
            Ok(digest) if digest == entry.checksum => return Ok(()),
            Err(defect) if Digest::of(bytes) == entry.checksum => defect,
            _ => self.checksum_mismatch(entry),
        };
        out.truncate(start);
        Err(error)
    }

    /// Decode the readings of the consumer at `idx` into `out`
    /// (cleared first). Verifies the block checksum; on `Err`, `out` is
    /// left empty.
    pub fn read_consumer_into(&self, idx: usize, out: &mut Vec<f64>) -> Result<ConsumerId> {
        out.clear();
        let entry = *self.entry(idx)?;
        self.decode_checked(&entry, self.block_bytes(&entry), out)?;
        crate::metrics::record_blocks_decoded(1, out.len() as u64 * 8);
        Ok(ConsumerId(entry.id))
    }

    /// Decode the consecutive consumers `rows.start..rows.end` into
    /// `out` (cleared first), row-major: `rows.len() * hours` values.
    /// Every block's checksum is verified — this is the band-loading
    /// primitive of the out-of-core tier, usable on either encoding.
    /// The blocks are read from the file, not the mapping: one
    /// positioned read per run of adjacent blocks up to 256 KiB into a
    /// buffer each thread reuses, decoded
    /// from there. So no page of the file enters this process's resident
    /// set, and a file truncated since open is an [`Error::BadFormat`]
    /// where a decode out of the mapping would fault (`SIGBUS`). On
    /// `Err`, `out` is left empty.
    pub fn read_rows_into(&self, rows: std::ops::Range<usize>, out: &mut Vec<f64>) -> Result<()> {
        out.clear();
        if rows.end > self.n() || rows.start > rows.end {
            return Err(Error::Invalid(format!(
                "row range {rows:?} out of bounds (file has {})",
                self.n()
            )));
        }
        out.reserve(rows.len() * self.hours());
        let count = rows.len() as u64;
        let mut rest = &self.entries[rows];
        let decoded = SPAN.with_borrow_mut(|span| {
            while let Some(first) = rest.first() {
                // The blocks after `first` that follow it in the file,
                // while the span stays inside the bound.
                let (start, mut end, mut take) = (first.offset, first.offset + first.length, 1);
                for next in &rest[1..] {
                    let next_end = next.offset + next.length;
                    if next.offset < end || next_end - start > READ_SPAN_BYTES as u64 {
                        break;
                    }
                    (end, take) = (next_end, take + 1);
                }
                let len = (end - start) as usize;
                if span.len() < len {
                    span.resize(len, 0);
                }
                self.read_exact_at(&mut span[..len], start)?;
                for entry in &rest[..take] {
                    let at = (entry.offset - start) as usize;
                    self.decode_checked(entry, &span[at..at + entry.length as usize], out)?;
                }
                rest = &rest[take..];
            }
            Ok(())
        });
        if let Err(e) = decoded {
            out.clear();
            return Err(e);
        }
        crate::metrics::record_blocks_decoded(count, out.len() as u64 * 8);
        Ok(())
    }

    /// Fill `bytes` from the file at offset `start`. A file that ends
    /// first — truncated since open — is an [`Error::BadFormat`].
    fn read_exact_at(&self, bytes: &mut [u8], start: u64) -> Result<()> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(bytes, start).map_err(|e| {
            let context = format!("reading {}", self.path.display());
            match e.kind() {
                std::io::ErrorKind::UnexpectedEof => bad(
                    context,
                    FormatDefect::Truncated {
                        expected: start + bytes.len() as u64,
                        actual: self.file.metadata().map_or(0, |m| m.len()),
                    },
                ),
                _ => Error::io(context, e),
            }
        })
    }

    /// Read rows `rows.start..rows.end` of a raw-contiguous file
    /// ([`SmcFile::rows`] serves a view) into `out`, row-major, with one
    /// positioned read from the file: `rows.len() * hours` values, the
    /// bits that view holds, unverified as it is. No page of the file
    /// enters this process's resident set, and a file truncated since
    /// open makes a short read, an [`Error::BadFormat`], where a copy out
    /// of the mapping would fault (`SIGBUS`). [`Error::Invalid`] on a
    /// file that is not raw-contiguous or a span out of range. On `Err`,
    /// `out` is left empty.
    pub fn read_raw_rows(&self, rows: std::ops::Range<usize>, out: &mut Vec<f64>) -> Result<()> {
        if !self.contiguous_raw || rows.end > self.n() || rows.start > rows.end {
            out.clear();
            return Err(Error::Invalid(format!(
                "raw rows {rows:?} of {} (raw-contiguous: {}, {} rows)",
                self.path.display(),
                self.contiguous_raw,
                self.n()
            )));
        }
        let count = rows.len() * self.hours();
        // Every value is overwritten: only a buffer that grows is zeroed.
        out.truncate(count);
        out.resize(count, 0.0);
        let start = (HEADER_BYTES + rows.start * self.hours() * 8) as u64;
        // SAFETY: `out` holds `count` initialized `f64`s, 8 bytes each
        // with no padding, so the view covers exactly its initialized
        // bytes; every bit pattern is a valid `f64`, so any bytes the
        // read leaves there are valid values.
        let bytes =
            unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr().cast::<u8>(), count * 8) };
        if let Err(e) = self.read_exact_at(bytes, start) {
            out.clear();
            return Err(e);
        }
        // Raw blocks are little-endian.
        if cfg!(target_endian = "big") {
            for v in out.iter_mut() {
                *v = f64::from_bits(u64::from_le(v.to_bits()));
            }
        }
        Ok(())
    }

    /// Zero-copy view of one consumer's readings, available when the
    /// block is raw and the backing bytes are 8-aligned in memory
    /// (always true for a real mapping; an owned fallback buffer may
    /// land unaligned, in which case callers decode instead). Does
    /// **not** checksum — the caller opted into the raw page view.
    pub fn row(&self, idx: usize) -> Option<&[f64]> {
        let entry = self.entries.get(idx)?;
        if entry.encoding != ENC_RAW {
            return None;
        }
        let bytes = self.block_bytes(entry);
        // SAFETY: any bit pattern is a valid f64; align_to only yields
        // the aligned middle.
        let (prefix, vals, _) = unsafe { bytes.align_to::<f64>() };
        let view = (prefix.is_empty() && vals.len() == self.hours()).then_some(vals);
        if view.is_some() {
            crate::metrics::record_zero_copy_hit();
        }
        view
    }

    /// Zero-copy view of the whole data region as one row-major
    /// `n × hours` matrix — the mmap cold-start path. Available only
    /// for [`FLAG_RAW_CONTIGUOUS`] files whose bytes are 8-aligned in
    /// memory. Does **not** checksum.
    pub fn rows(&self) -> Option<&[f64]> {
        if !self.contiguous_raw {
            return None;
        }
        let count = self.n() * self.hours();
        let bytes = &self.map[HEADER_BYTES..HEADER_BYTES + count * 8];
        // SAFETY: as in `row` — validated region, any bits are an f64.
        let (prefix, vals, _) = unsafe { bytes.align_to::<f64>() };
        let view = (prefix.is_empty() && vals.len() == count).then_some(vals);
        if view.is_some() {
            crate::metrics::record_zero_copy_hit();
        }
        view
    }

    /// Decode the whole file into a validated [`Dataset`]. Requires
    /// `hours == 8760` (a [`ConsumerSeries`] is one year by contract).
    pub fn read_dataset(&self) -> Result<Dataset> {
        let mut consumers = Vec::with_capacity(self.n());
        let mut buf = Vec::with_capacity(self.hours());
        for idx in 0..self.n() {
            let id = self.read_consumer_into(idx, &mut buf)?;
            consumers.push(ConsumerSeries::new(id, buf.clone())?);
        }
        let temperature = TemperatureSeries::new(self.temperature.clone())?;
        Dataset::new(consumers, temperature)
    }

    /// Recompute every checksum the open-time validation skipped: the
    /// whole-file digest and each block's digest. Returns the same
    /// summary shape the writer reports.
    pub fn verify(&self) -> Result<SmcSummary> {
        let check_until = self.map.len() - 12;
        crate::metrics::record_bytes_checksummed(check_until as u64);
        if Digest::of(&self.map[..check_until]) != self.footer.file_check {
            return Err(bad(
                format!("verifying {}", self.path.display()),
                FormatDefect::FileChecksumMismatch,
            ));
        }
        let mut raw_blocks = 0;
        for entry in &self.entries {
            let bytes = self.block_bytes(entry);
            crate::metrics::record_bytes_checksummed(bytes.len() as u64);
            if Digest::of(bytes) != entry.checksum {
                return Err(self.checksum_mismatch(entry));
            }
            if entry.encoding == ENC_RAW {
                raw_blocks += 1;
            }
        }
        Ok(SmcSummary {
            consumers: self.n(),
            hours: self.hours(),
            file_bytes: self.file_bytes(),
            raw_blocks,
            packed_blocks: self.n() - raw_blocks,
        })
    }

    pub(crate) fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }
}
