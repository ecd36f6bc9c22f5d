//! The `SMC1` on-disk layout: constants and the fixed-size header /
//! index-entry / footer records. Every checksum field holds the
//! word-wise [`Digest`](crate::digest::Digest) of the bytes it covers.
//!
//! ```text
//! file  := header | block* | temperature | index | footer
//!
//! header (24 bytes)
//!   0   magic     [u8;4] = "SMC1"
//!   4   version   u16 LE = 2
//!   6   flags     u16 LE          bit 0: RAW_CONTIGUOUS
//!   8   n         u32 LE          consumer count
//!   12  hours     u32 LE          readings per consumer
//!   16  reserved  u64 LE = 0
//!
//! block                           one per consumer, ascending id, each
//!                                 starting 8-byte aligned (zero padding
//!                                 between blocks); raw or xor-packed
//!                                 (see `block.rs`)
//!
//! temperature                     hours × f64 LE, 8-byte aligned
//!
//! index (n × 32 bytes)
//!   0   id        u32 LE
//!   4   encoding  u32 LE          0 raw, 1 xor-delta bit-packed
//!   8   offset    u64 LE          absolute, 8-byte aligned
//!   16  length    u64 LE          block bytes (padding excluded)
//!   24  checksum  u64 LE          digest of the block bytes
//!
//! footer (52 bytes)
//!   0   index_off   u64 LE
//!   8   index_len   u64 LE        n × 32
//!   16  temp_off    u64 LE
//!   24  temp_check  u64 LE        digest of the temperature bytes
//!   32  index_check u64 LE        digest of the index bytes
//!   40  file_check  u64 LE        digest of bytes [0, file_len − 12)
//!   48  magic       [u8;4] = "SMCE"
//! ```
//!
//! The whole-file checksum covers everything written before its own
//! field (that is, all but the final 12 bytes), so the writer computes
//! it in one streaming pass and never seeks back.
//!
//! Version 1 used a byte-serial FNV-1a in every checksum field; the
//! layout is otherwise unchanged. A v1 file is refused at open with
//! `UnsupportedVersion` (before any checksum is looked at) and is
//! re-created with `smda convert` or `smda generate`.

use smda_types::{Error, FormatDefect};

/// Header magic, first four bytes of every file.
pub const SMC_MAGIC: [u8; 4] = *b"SMC1";

/// Footer magic, last four bytes of every file.
pub const SMC_FOOTER_MAGIC: [u8; 4] = *b"SMCE";

/// The format version this crate reads and writes.
pub const SMC_VERSION: u16 = 2;

/// Fixed header size in bytes; the first block starts here (8-aligned).
pub const HEADER_BYTES: usize = 24;

/// Fixed footer size in bytes.
pub const FOOTER_BYTES: usize = 52;

/// One index entry per consumer.
pub const INDEX_ENTRY_BYTES: usize = 32;

/// Flag bit: every block is raw `f64` and blocks are laid out
/// back-to-back in consumer order directly after the header — the data
/// region *is* an `n × hours` series matrix and can be reinterpreted
/// in place.
pub const FLAG_RAW_CONTIGUOUS: u16 = 1;

/// Block encoding tag: `hours` × `f64` LE, reinterpretable in place.
pub const ENC_RAW: u32 = 0;

/// Block encoding tag: xor-delta bit-packed (see `block.rs`).
pub const ENC_PACKED: u32 = 1;

/// The little-endian `u64` at `bytes[at..at + 8]`.
#[inline(always)]
pub(crate) fn le_u64(bytes: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(word)
}

/// The little-endian `u32` at `bytes[at..at + 4]`.
fn le_u32(bytes: &[u8], at: usize) -> u32 {
    let mut word = [0u8; 4];
    word.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(word)
}

/// Round `pos` up to the next multiple of 8 (block alignment).
pub fn align8(pos: u64) -> u64 {
    (pos + 7) & !7
}

/// Build the typed error every validation failure in this crate uses.
pub fn bad(context: impl Into<String>, defect: FormatDefect) -> Error {
    Error::BadFormat {
        context: context.into(),
        defect,
    }
}

/// The decoded fixed header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Format version (always [`SMC_VERSION`] once decoded).
    pub version: u16,
    /// Layout flags ([`FLAG_RAW_CONTIGUOUS`]).
    pub flags: u16,
    /// Consumer count.
    pub n: u32,
    /// Readings per consumer.
    pub hours: u32,
}

impl Header {
    /// Serialize to the 24 fixed header bytes.
    pub fn encode(&self) -> [u8; HEADER_BYTES] {
        let mut out = [0u8; HEADER_BYTES];
        out[0..4].copy_from_slice(&SMC_MAGIC);
        out[4..6].copy_from_slice(&self.version.to_le_bytes());
        out[6..8].copy_from_slice(&self.flags.to_le_bytes());
        out[8..12].copy_from_slice(&self.n.to_le_bytes());
        out[12..16].copy_from_slice(&self.hours.to_le_bytes());
        out
    }

    /// Decode and validate magic + version. `context` names the file
    /// for error messages.
    pub fn decode(bytes: &[u8], context: &str) -> Result<Header, Error> {
        if bytes.len() < HEADER_BYTES {
            return Err(bad(
                context,
                FormatDefect::Truncated {
                    expected: HEADER_BYTES as u64,
                    actual: bytes.len() as u64,
                },
            ));
        }
        if bytes[0..4] != SMC_MAGIC {
            return Err(bad(context, FormatDefect::BadMagic));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        // Checked before anything else is read: the checksum fields of
        // another version hold another digest.
        if version != SMC_VERSION {
            return Err(bad(
                context,
                FormatDefect::UnsupportedVersion {
                    found: version,
                    supported: SMC_VERSION,
                },
            ));
        }
        Ok(Header {
            version,
            flags: u16::from_le_bytes([bytes[6], bytes[7]]),
            n: le_u32(bytes, 8),
            hours: le_u32(bytes, 12),
        })
    }
}

/// One consumer's entry in the index region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Raw consumer id.
    pub id: u32,
    /// Block encoding ([`ENC_RAW`] or [`ENC_PACKED`]).
    pub encoding: u32,
    /// Absolute, 8-aligned file offset of the block.
    pub offset: u64,
    /// Block length in bytes (inter-block padding excluded).
    pub length: u64,
    /// Digest of the block bytes.
    pub checksum: u64,
}

impl IndexEntry {
    /// Serialize to the 32 fixed entry bytes.
    pub fn encode(&self) -> [u8; INDEX_ENTRY_BYTES] {
        let mut out = [0u8; INDEX_ENTRY_BYTES];
        out[0..4].copy_from_slice(&self.id.to_le_bytes());
        out[4..8].copy_from_slice(&self.encoding.to_le_bytes());
        out[8..16].copy_from_slice(&self.offset.to_le_bytes());
        out[16..24].copy_from_slice(&self.length.to_le_bytes());
        out[24..32].copy_from_slice(&self.checksum.to_le_bytes());
        out
    }

    /// Decode one entry from exactly [`INDEX_ENTRY_BYTES`] bytes.
    pub fn decode(bytes: &[u8]) -> IndexEntry {
        IndexEntry {
            id: le_u32(bytes, 0),
            encoding: le_u32(bytes, 4),
            offset: le_u64(bytes, 8),
            length: le_u64(bytes, 16),
            checksum: le_u64(bytes, 24),
        }
    }
}

/// The decoded footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    /// Absolute offset of the index region.
    pub index_off: u64,
    /// Index region length (`n × 32`).
    pub index_len: u64,
    /// Absolute offset of the temperature block.
    pub temp_off: u64,
    /// Digest of the temperature block bytes.
    pub temp_check: u64,
    /// Digest of the index region bytes.
    pub index_check: u64,
    /// Digest of every byte before this field (`[0, file_len − 12)`).
    pub file_check: u64,
}

impl Footer {
    /// Serialize to the 52 fixed footer bytes.
    pub fn encode(&self) -> [u8; FOOTER_BYTES] {
        let mut out = [0u8; FOOTER_BYTES];
        out[0..8].copy_from_slice(&self.index_off.to_le_bytes());
        out[8..16].copy_from_slice(&self.index_len.to_le_bytes());
        out[16..24].copy_from_slice(&self.temp_off.to_le_bytes());
        out[24..32].copy_from_slice(&self.temp_check.to_le_bytes());
        out[32..40].copy_from_slice(&self.index_check.to_le_bytes());
        out[40..48].copy_from_slice(&self.file_check.to_le_bytes());
        out[48..52].copy_from_slice(&SMC_FOOTER_MAGIC);
        out
    }

    /// Decode the footer from the *last* [`FOOTER_BYTES`] bytes of a
    /// file, validating the trailing magic.
    pub fn decode(tail: &[u8], context: &str) -> Result<Footer, Error> {
        if tail.len() != FOOTER_BYTES {
            return Err(bad(
                context,
                FormatDefect::Truncated {
                    expected: FOOTER_BYTES as u64,
                    actual: tail.len() as u64,
                },
            ));
        }
        if tail[48..52] != SMC_FOOTER_MAGIC {
            return Err(bad(context, FormatDefect::BadFooterMagic));
        }
        Ok(Footer {
            index_off: le_u64(tail, 0),
            index_len: le_u64(tail, 8),
            temp_off: le_u64(tail, 16),
            temp_check: le_u64(tail, 24),
            index_check: le_u64(tail, 32),
            file_check: le_u64(tail, 40),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let h = Header {
            version: SMC_VERSION,
            flags: FLAG_RAW_CONTIGUOUS,
            n: 1234,
            hours: 8760,
        };
        assert_eq!(Header::decode(&h.encode(), "t").unwrap(), h);
    }

    #[test]
    fn header_rejects_bad_magic_and_version() {
        let h = Header {
            version: SMC_VERSION,
            flags: 0,
            n: 1,
            hours: 1,
        };
        let mut bytes = h.encode();
        bytes[0] = b'X';
        assert!(matches!(
            Header::decode(&bytes, "t"),
            Err(Error::BadFormat {
                defect: FormatDefect::BadMagic,
                ..
            })
        ));
        let mut bytes = h.encode();
        bytes[4] = 9;
        assert!(matches!(
            Header::decode(&bytes, "t"),
            Err(Error::BadFormat {
                defect: FormatDefect::UnsupportedVersion { found: 9, .. },
                ..
            })
        ));
        assert!(matches!(
            Header::decode(&bytes[..10], "t"),
            Err(Error::BadFormat {
                defect: FormatDefect::Truncated { .. },
                ..
            })
        ));
    }

    #[test]
    fn index_entry_round_trips() {
        let e = IndexEntry {
            id: 77,
            encoding: ENC_PACKED,
            offset: 1024,
            length: 333,
            checksum: 0xdead_beef_cafe_f00d,
        };
        assert_eq!(IndexEntry::decode(&e.encode()), e);
    }

    #[test]
    fn footer_round_trips_and_checks_magic() {
        let f = Footer {
            index_off: 4096,
            index_len: 320,
            temp_off: 2048,
            temp_check: 1,
            index_check: 2,
            file_check: 3,
        };
        assert_eq!(Footer::decode(&f.encode(), "t").unwrap(), f);
        let mut bytes = f.encode();
        bytes[51] = 0;
        assert!(matches!(
            Footer::decode(&bytes, "t"),
            Err(Error::BadFormat {
                defect: FormatDefect::BadFooterMagic,
                ..
            })
        ));
    }

    #[test]
    fn alignment_rounds_up() {
        assert_eq!(align8(0), 0);
        assert_eq!(align8(1), 8);
        assert_eq!(align8(8), 8);
        assert_eq!(align8(24), 24);
        assert_eq!(align8(25), 32);
    }
}
