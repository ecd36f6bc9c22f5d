//! The one checksummed record of the workspace: a *frame*.
//!
//! A frame is a fixed 16-byte header — 4-byte magic `SMF1`, a
//! little-endian `u32` payload length, and a little-endian `u64` FNV-1a
//! checksum of the payload — followed by the payload itself. Every
//! message between the real cluster's coordinator and a worker process
//! is one frame, and the append-only logs in `smda-storage` (the
//! shuffle spill log, the ingest shard WAL) are frames back to back.
//!
//! The reader rejects a frame with a typed [`Error::BadFrame`] carrying
//! the exact [`FrameDefect`]: wrong magic, a length prefix over the cap,
//! bytes that end early, or a checksum mismatch. Corruption is therefore
//! always *detected*, never silently decoded, and never a panic — the
//! property the frame and log proptests pin down.

use std::io::{Read, Write};

use crate::error::{Error, FrameDefect, Result};

/// First four bytes of every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"SMF1";

/// Fixed header size: magic + u32 length + u64 checksum.
pub const FRAME_HEADER_BYTES: usize = 16;

/// Largest payload a receiver accepts. Sized for a full normalized
/// series matrix shipped to a similarity reducer (n × 8760 × 8 bytes).
pub const MAX_FRAME_BYTES: u64 = 256 * 1024 * 1024;

/// 64-bit FNV-1a over `bytes`. A single corrupted byte always changes
/// the digest: each step `state ← (state ⊕ byte) × prime` is a
/// bijection of the state, so differing intermediate states can never
/// re-converge.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The header that precedes `payload` in its frame.
pub fn frame_header(payload: &[u8]) -> [u8; FRAME_HEADER_BYTES] {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4..8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[8..].copy_from_slice(&fnv1a64(payload).to_le_bytes());
    header
}

/// Encode `payload` as a complete frame (header + payload).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&frame_header(payload));
    out.extend_from_slice(payload);
    out
}

/// Write one frame to `w` and flush it.
pub fn write_frame(w: &mut impl Write, payload: &[u8], context: &str) -> Result<()> {
    w.write_all(&encode_frame(payload))
        .and_then(|()| w.flush())
        .map_err(|e| Error::io(format!("writing frame while {context}"), e))
}

fn bad(context: &str, defect: FrameDefect) -> Error {
    Error::BadFrame {
        context: context.to_string(),
        defect,
    }
}

/// Read exactly `buf.len()` bytes, mapping a premature end of stream
/// to [`FrameDefect::Truncated`].
fn read_exact_or_truncated(r: &mut impl Read, buf: &mut [u8], context: &str) -> Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            bad(context, FrameDefect::Truncated)
        } else {
            Error::io(format!("reading frame while {context}"), e)
        }
    })
}

/// Read one frame from `r`, enforcing `max` payload bytes. Every
/// defect — bad magic, oversized length prefix, truncation, checksum
/// mismatch — surfaces as a typed [`Error::BadFrame`].
pub fn read_frame(r: &mut impl Read, max: u64, context: &str) -> Result<Vec<u8>> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    read_exact_or_truncated(r, &mut header, context)?;
    if header[..4] != FRAME_MAGIC {
        return Err(bad(context, FrameDefect::BadMagic));
    }
    let len = u64::from(u32::from_le_bytes([
        header[4], header[5], header[6], header[7],
    ]));
    if len > max {
        return Err(bad(context, FrameDefect::Oversized { len, max }));
    }
    let expected = u64::from_le_bytes([
        header[8], header[9], header[10], header[11], header[12], header[13], header[14],
        header[15],
    ]);
    let mut payload = vec![0u8; len as usize];
    read_exact_or_truncated(r, &mut payload, context)?;
    if fnv1a64(&payload) != expected {
        return Err(bad(context, FrameDefect::ChecksumMismatch));
    }
    Ok(payload)
}

/// Decode a frame from an in-memory buffer (proptest convenience over
/// [`read_frame`]).
pub fn decode_frame(bytes: &[u8], max: u64, context: &str) -> Result<Vec<u8>> {
    let mut cursor = bytes;
    read_frame(&mut cursor, max, context)
}
