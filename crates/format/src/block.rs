//! Reading-block codecs: raw `f64` and lossless xor-delta bit-packing.
//!
//! The packed encoding exploits the shape of hourly meter readings:
//! consecutive hours are close in magnitude, so the xor of adjacent
//! IEEE-754 bit patterns has long runs of leading zeros. The stream is
//!
//! ```text
//! first_bits  u64 LE                      bits of values[0]
//! miniblock*                              per ≤64 consecutive deltas
//!   width     u8   (0..=64)               significant bits per stored
//!                                         delta; 0 ⇒ all deltas 0
//!   shift     u8   (0..=63)               shared trailing-zero count;
//!                                         delta = stored << shift
//!   packed    ceil(count × width / 8)     stored deltas LSB-first
//! ```
//!
//! where `delta[i] = bits[i] ⊻ bits[i−1]`. The shared shift matters
//! because readings that are exact binary fractions xor to patterns
//! with long trailing-zero runs; stripping both ends is what the
//! Gorilla paper's value compression does per value — here it is
//! amortized per miniblock. Packing is exact on the bit
//! patterns — decode returns `to_bits`-identical values, the invariant
//! every load path in this workspace is held to. The writer compares
//! the packed size against the raw size per block and keeps whichever
//! is smaller, so an incompressible block costs at most its raw bytes.
//!
//! Packing and unpacking each have two tiers: the portable one here,
//! which is also the oracle, and an AVX-512 VBMI one (`block/vbmi.rs`)
//! that folds the block's digest into its loop. The dispatching entry
//! points, [`encode_packed_digested`] and [`decode_packed_digested`],
//! choose once per process; every tier writes and reads the same bytes.

use smda_types::{Error, FormatDefect};

use crate::digest::Digest;
use crate::layout::{bad, le_u64};

#[cfg(target_arch = "x86_64")]
mod vbmi;

/// Deltas per miniblock (one `width` byte amortized over up to 64).
pub const MINIBLOCK: usize = 64;

/// Append `values` as raw little-endian `f64` bytes.
pub fn encode_raw(values: &[f64], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + values.len() * 8, 0);
    for (word, v) in out[start..].chunks_exact_mut(8).zip(values) {
        word.copy_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Decode a raw block of exactly `count` values into `out`.
pub fn decode_raw(bytes: &[u8], count: usize, out: &mut Vec<f64>) -> Result<(), Error> {
    if bytes.len() != count * 8 {
        return Err(bad(
            "decoding raw block",
            FormatDefect::Truncated {
                expected: (count * 8) as u64,
                actual: bytes.len() as u64,
            },
        ));
    }
    out.extend(
        bytes
            .chunks_exact(8)
            .map(|word| f64::from_bits(le_u64(word, 0))),
    );
    Ok(())
}

/// Append `values` xor-delta bit-packed: the portable tier, and the
/// oracle the vector tier is tested against. An empty slice appends
/// nothing, as [`Stream::open`] reads nothing for a block of 0 values.
fn encode_packed(values: &[f64], out: &mut Vec<u8>) {
    let Some((first, rest)) = values.split_first() else {
        return;
    };
    let mut prev = first.to_bits();
    out.extend_from_slice(&prev.to_le_bytes());
    let mut deltas = [0u64; MINIBLOCK];
    let mut filled = 0usize;
    for v in rest {
        let bits = v.to_bits();
        deltas[filled] = bits ^ prev;
        prev = bits;
        filled += 1;
        if filled == MINIBLOCK {
            pack_miniblock(&deltas[..filled], out);
            filled = 0;
        }
    }
    if filled > 0 {
        pack_miniblock(&deltas[..filled], out);
    }
}

fn pack_miniblock(deltas: &[u64], out: &mut Vec<u8>) {
    let (width, shift) = push_header(deltas.iter().fold(0u64, |a, &d| a | d), out);
    pack_bits(deltas, width, shift, out);
}

/// Append the `[width, shift]` header of a miniblock whose deltas OR to
/// `or_all`, and return its width and shift: `(0, 0)` when every delta
/// is 0.
fn push_header(or_all: u64, out: &mut Vec<u8>) -> (u32, u32) {
    if or_all == 0 {
        out.extend_from_slice(&[0, 0]);
        return (0, 0);
    }
    let shift = or_all.trailing_zeros();
    let width = 64 - (or_all >> shift).leading_zeros();
    out.extend_from_slice(&[width as u8, shift as u8]);
    (width, shift)
}

/// Append `deltas`, each shifted down by `shift`, as `width`-bit fields
/// LSB-first from a byte boundary: a whole miniblock, or the tail the
/// vector tier leaves after its groups of eight (each of which ends on
/// a byte boundary). Width 0 appends nothing.
fn pack_bits(deltas: &[u64], width: u32, shift: u32, out: &mut Vec<u8>) {
    // One whole word out at a time: `acc` holds the `nbits < 64` bits
    // not yet written.
    let mut acc = 0u64;
    let mut nbits = 0u32;
    for &d in deltas {
        let stored = d >> shift;
        acc |= stored << nbits;
        nbits += width;
        if nbits >= 64 {
            out.extend_from_slice(&acc.to_le_bytes());
            nbits -= 64;
            // The high bits of `stored` that did not fit (none when it
            // ended exactly on the word boundary).
            acc = if nbits == 0 {
                0
            } else {
                stored >> (width - nbits)
            };
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..nbits.div_ceil(8) as usize]);
}

/// A packed encoder tier: appends `values` packed to `out` and returns
/// the [`Digest`] of the bytes it appended.
pub type PackedEncoder = fn(&[f64], &mut Vec<u8>) -> u64;

/// Append `values` xor-delta bit-packed and return the [`Digest`] of the
/// bytes appended. On a CPU with AVX-512 VBMI the vector tier packs
/// eight deltas per group and folds the digest into its loop
/// (`block/vbmi.rs`); elsewhere the block is packed, then digested. The
/// bytes are the same on every tier.
pub fn encode_packed_digested(values: &[f64], out: &mut Vec<u8>) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if vbmi::supported() {
        // SAFETY: the CPU has every feature the kernel enables.
        return unsafe { vbmi::encode_packed_digested(values, out) };
    }
    encode_packed_portable(values, out)
}

fn encode_packed_portable(values: &[f64], out: &mut Vec<u8>) -> u64 {
    let start = out.len();
    encode_packed(values, out);
    Digest::of(&out[start..])
}

/// Every packed encoder tier this CPU runs, the portable one first: on
/// a CPU with AVX-512 VBMI, `("vbmi", encode_packed_digested)` follows
/// it. What the block tests and `smda-bench --check format` hold
/// byte-identical.
pub fn encoder_tiers() -> Vec<(&'static str, PackedEncoder)> {
    let mut tiers: Vec<(&'static str, PackedEncoder)> = vec![("portable", encode_packed_portable)];
    #[cfg(target_arch = "x86_64")]
    if vbmi::supported() {
        tiers.push(("vbmi", encode_packed_digested));
    }
    tiers
}

/// The 64 stream bits starting at bit `bit` of `packed`, LSB-first,
/// zero-extended past its end: one unaligned `u64` window plus the
/// ninth byte a window that starts mid-byte spills into.
#[inline(always)]
fn window(packed: &[u8], bit: usize) -> u64 {
    let (byte, sub) = (bit >> 3, (bit & 7) as u32);
    let (low, ninth) = match packed.get(byte..byte + 9) {
        Some(nine) => (le_u64(nine, 0), nine[8]),
        None => {
            let mut nine = [0u8; 9];
            let rest = &packed[byte..];
            nine[..rest.len()].copy_from_slice(rest);
            (le_u64(&nine, 0), nine[8])
        }
    };
    // Two shifts so that `sub == 0` contributes nothing from `ninth`.
    (low >> sub) | ((u64::from(ninth) << (63 - sub)) << 1)
}

fn corrupt(what: &str) -> Error {
    bad(
        "decoding packed block",
        FormatDefect::CorruptIndex(what.into()),
    )
}

/// A packed stream walked one miniblock at a time. Every structural
/// check of a packed block is made here, so each decoding tier reaches
/// the same verdict with the same defect on any input.
struct Stream<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Deltas not yet handed out.
    remaining: usize,
}

/// One miniblock: `len` stored deltas of `width` bits, LSB-first from
/// the start of `packed`, each to be shifted up by `shift`.
struct Miniblock<'a> {
    /// From this miniblock's first packed byte to the end of the
    /// stream. Windows may run past the miniblock into the next one (or
    /// the zero extension); the mask drops what is not ours.
    packed: &'a [u8],
    len: usize,
    width: u32,
    shift: u32,
}

impl<'a> Stream<'a> {
    /// The stream of a block of `count` values and the bits of its
    /// first value; `None` for the empty block.
    fn open(bytes: &'a [u8], count: usize) -> Result<Option<(Stream<'a>, u64)>, Error> {
        if count == 0 {
            return if bytes.is_empty() {
                Ok(None)
            } else {
                Err(corrupt("trailing bytes after packed stream"))
            };
        }
        if bytes.len() < 8 {
            return Err(bad(
                "decoding packed block",
                FormatDefect::Truncated {
                    expected: 8,
                    actual: bytes.len() as u64,
                },
            ));
        }
        let stream = Stream {
            bytes,
            pos: 8,
            remaining: count - 1,
        };
        Ok(Some((stream, le_u64(bytes, 0))))
    }

    /// The next miniblock, its header checked and its bytes present;
    /// `None` once every delta has been handed out.
    #[inline(always)]
    fn miniblock(&mut self) -> Result<Option<Miniblock<'a>>, Error> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let len = self.remaining.min(MINIBLOCK);
        let header = |at: usize, what: &str| {
            self.bytes
                .get(at)
                .map(|&b| u32::from(b))
                .ok_or_else(|| corrupt(what))
        };
        let width = header(self.pos, "missing width byte")?;
        let shift = header(self.pos + 1, "missing shift byte")?;
        self.pos += 2;
        if width > 64 || shift > 63 || width + shift > 64 {
            return Err(corrupt("miniblock width/shift exceed 64 bits"));
        }
        let nbytes = (len * width as usize).div_ceil(8);
        if self.bytes.len() - self.pos < nbytes {
            return Err(corrupt("packed miniblock shorter than its width declares"));
        }
        let packed = &self.bytes[self.pos..];
        self.pos += nbytes;
        self.remaining -= len;
        Ok(Some(Miniblock {
            packed,
            len,
            width,
            shift,
        }))
    }

    /// After the last miniblock: nothing may follow it.
    fn finish(self) -> Result<(), Error> {
        if self.pos != self.bytes.len() {
            return Err(corrupt("trailing bytes after packed stream"));
        }
        Ok(())
    }
}

impl Miniblock<'_> {
    /// Delta `i`, shifted into place. `width` is not 0.
    #[inline(always)]
    fn delta(&self, i: usize) -> u64 {
        let mask = u64::MAX >> (64 - self.width);
        (window(self.packed, i * self.width as usize) & mask) << self.shift
    }
}

/// Decode a packed block of exactly `count` values into `out`: the
/// portable tier, and the oracle the vector tier is tested against.
///
/// Structural damage (bad width byte, short stream, trailing bytes) is
/// reported as a typed error, never a panic — the block checksum
/// normally catches corruption first, but decode must hold on any
/// input.
fn decode_packed(bytes: &[u8], count: usize, out: &mut Vec<f64>) -> Result<(), Error> {
    let Some((mut stream, mut prev)) = Stream::open(bytes, count)? else {
        return Ok(());
    };
    out.reserve(count);
    out.push(f64::from_bits(prev));
    while let Some(miniblock) = stream.miniblock()? {
        if miniblock.width == 0 {
            // All deltas zero: the value repeats.
            out.resize(out.len() + miniblock.len, f64::from_bits(prev));
            continue;
        }
        out.extend((0..miniblock.len).map(|i| {
            prev ^= miniblock.delta(i);
            f64::from_bits(prev)
        }));
    }
    stream.finish()
}

/// Decode a packed block like [`decode_packed`] and return the
/// [`Digest`] of its bytes. On a CPU with AVX-512 VBMI the vector tier
/// folds the digest into its unpack loop (`block/vbmi.rs`); elsewhere
/// the block is digested, then decoded. On `Err` the digest is not
/// known: the decode stopped where the block broke.
pub fn decode_packed_digested(
    bytes: &[u8],
    count: usize,
    out: &mut Vec<f64>,
) -> Result<u64, Error> {
    #[cfg(target_arch = "x86_64")]
    if vbmi::supported() {
        // SAFETY: the CPU has every feature the kernel enables.
        return unsafe { vbmi::decode_packed_digested(bytes, count, out) };
    }
    let digest = Digest::of(bytes);
    decode_packed(bytes, count, out)?;
    Ok(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[f64]) {
        let mut packed = Vec::new();
        encode_packed(values, &mut packed);
        let mut back = Vec::new();
        decode_packed(&packed, values.len(), &mut back).unwrap();
        let want: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        let got: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
        assert_eq!(want, got);

        let mut raw = Vec::new();
        encode_raw(values, &mut raw);
        let mut back = Vec::new();
        decode_raw(&raw, values.len(), &mut back).unwrap();
        let got: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
        assert_eq!(want, got);
    }

    #[test]
    fn single_value_round_trips() {
        round_trip(&[42.5]);
    }

    #[test]
    fn empty_block_round_trips_on_every_tier() {
        for (tier, encode) in encoders() {
            assert!(encoded(tier, encode, &[]).is_empty(), "{tier}");
        }
        for (tier, decode) in tiers() {
            assert_eq!(decode(&[], 0), Some(Vec::new()), "{tier}");
        }
    }

    #[test]
    fn constant_series_packs_to_zero_width() {
        let values = vec![1.25; 500];
        let mut packed = Vec::new();
        encode_packed(&values, &mut packed);
        // 8 bytes first + a two-byte header per miniblock of 64.
        assert_eq!(packed.len(), 8 + 2 * 499usize.div_ceil(MINIBLOCK));
        round_trip(&values);
    }

    #[test]
    fn smooth_series_beats_raw() {
        let values: Vec<f64> = (0..8760).map(|h| 1.0 + 0.25 * ((h % 24) as f64)).collect();
        let mut packed = Vec::new();
        encode_packed(&values, &mut packed);
        assert!(
            packed.len() < values.len() * 8 / 2,
            "packed {} vs raw {}",
            packed.len(),
            values.len() * 8
        );
        round_trip(&values);
    }

    #[test]
    fn adversarial_bits_round_trip() {
        // Alternating extremes force 64-bit widths — worst case must
        // still be exact.
        let values: Vec<f64> = (0..200)
            .map(|i| {
                if i % 2 == 0 {
                    f64::from_bits(u64::MAX >> 1) // NaN pattern avoided: keep finite max
                } else {
                    f64::MIN_POSITIVE
                }
            })
            .collect();
        round_trip(&values);
        round_trip(&[0.0, -0.0, f64::MAX, f64::MIN, 1e-300, -1e300]);
    }

    #[test]
    fn boundary_lengths_round_trip() {
        for len in [1, 2, 63, 64, 65, 128, 129, 8760] {
            let values: Vec<f64> = (0..len).map(|i| (i as f64).sqrt()).collect();
            round_trip(&values);
        }
    }

    #[test]
    fn decode_rejects_structural_damage() {
        let values: Vec<f64> = (0..100).map(|i| i as f64 * 0.3).collect();
        let mut packed = Vec::new();
        encode_packed(&values, &mut packed);

        // Too short for even the first value.
        let mut out = Vec::new();
        assert!(decode_packed(&packed[..4], 100, &mut out).is_err());
        // Truncated mid-stream.
        let mut out = Vec::new();
        assert!(decode_packed(&packed[..packed.len() - 1], 100, &mut out).is_err());
        // Trailing garbage.
        let mut extended = packed.clone();
        extended.push(0);
        let mut out = Vec::new();
        assert!(decode_packed(&extended, 100, &mut out).is_err());
        // Absurd width byte.
        let mut broken = packed.clone();
        broken[8] = 200;
        let mut out = Vec::new();
        assert!(decode_packed(&broken, 100, &mut out).is_err());
        // Raw block with wrong length.
        let mut out = Vec::new();
        assert!(decode_raw(&[0u8; 12], 2, &mut out).is_err());
    }

    // ---- Oracles: the byte-at-a-time packer and decoder the word-wise
    // ---- ones replaced. The packed stream is defined by these; the
    // ---- tests below hold new ≡ old on bytes out and on bits back.

    fn pack_miniblock_bytewise(deltas: &[u64], out: &mut Vec<u8>) {
        let or_all = deltas.iter().fold(0u64, |a, &d| a | d);
        if or_all == 0 {
            out.extend_from_slice(&[0, 0]);
            return;
        }
        let shift = or_all.trailing_zeros();
        let width = 64 - (or_all >> shift).leading_zeros();
        out.push(width as u8);
        out.push(shift as u8);
        let mut acc: u128 = 0;
        let mut nbits: u32 = 0;
        for &d in deltas {
            acc |= u128::from(d >> shift) << nbits;
            nbits += width;
            while nbits >= 8 {
                out.push((acc & 0xff) as u8);
                acc >>= 8;
                nbits -= 8;
            }
        }
        if nbits > 0 {
            out.push((acc & 0xff) as u8);
        }
    }

    fn encode_packed_bytewise(values: &[f64], out: &mut Vec<u8>) {
        out.extend_from_slice(&values[0].to_bits().to_le_bytes());
        let deltas: Vec<u64> = values
            .windows(2)
            .map(|w| w[0].to_bits() ^ w[1].to_bits())
            .collect();
        for miniblock in deltas.chunks(MINIBLOCK) {
            pack_miniblock_bytewise(miniblock, out);
        }
    }

    /// `None` wherever the word-wise decoder must return an error.
    fn decode_packed_bytewise(bytes: &[u8], count: usize) -> Option<Vec<u64>> {
        if count == 0 {
            return bytes.is_empty().then(Vec::new);
        }
        let mut prev = u64::from_le_bytes(bytes.get(..8)?.try_into().unwrap());
        let mut out = vec![prev];
        let mut pos = 8usize;
        let mut remaining = count - 1;
        while remaining > 0 {
            let in_block = remaining.min(MINIBLOCK);
            let width = u32::from(*bytes.get(pos)?);
            let shift = u32::from(*bytes.get(pos + 1)?);
            pos += 2;
            if width > 64 || shift > 63 || width + shift > 64 {
                return None;
            }
            let nbytes = (in_block * width as usize).div_ceil(8);
            let packed = bytes.get(pos..pos + nbytes)?;
            pos += nbytes;
            let mask = (1u128 << width) - 1;
            let mut acc: u128 = 0;
            let mut nbits: u32 = 0;
            let mut cursor = 0usize;
            for _ in 0..in_block {
                while nbits < width {
                    acc |= u128::from(packed[cursor]) << nbits;
                    cursor += 1;
                    nbits += 8;
                }
                prev ^= ((acc & mask) as u64) << shift;
                acc >>= width;
                nbits -= width;
                out.push(prev);
            }
            remaining -= in_block;
        }
        (pos == bytes.len()).then_some(out)
    }

    fn decode_packed_bits(bytes: &[u8], count: usize) -> Option<Vec<u64>> {
        let mut out = Vec::new();
        decode_packed(bytes, count, &mut out).ok()?;
        Some(out.iter().map(|v| v.to_bits()).collect())
    }

    /// The vector tier's bits, or `None` where it must return an error.
    /// It appends to what `out` holds, adds nothing on `Err`, and the
    /// digest it returns with `Ok` is `Digest::of` the same bytes.
    #[cfg(target_arch = "x86_64")]
    fn decode_vbmi_bits(bytes: &[u8], count: usize) -> Option<Vec<u64>> {
        let held = f64::from_bits(0x5eed);
        let mut out = vec![held];
        // SAFETY: `tiers` lists this decoder only where the CPU runs it.
        let decoded = unsafe { vbmi::decode_packed_digested(bytes, count, &mut out) };
        assert_eq!(
            out[0].to_bits(),
            held.to_bits(),
            "the vector tier overwrote `out`"
        );
        match decoded {
            Ok(digest) => {
                assert_eq!(digest, Digest::of(bytes), "fused digest");
                Some(out[1..].iter().map(|v| v.to_bits()).collect())
            }
            Err(_) => {
                assert_eq!(out.len(), 1, "the vector tier published a broken block");
                None
            }
        }
    }

    type Decoder = fn(&[u8], usize) -> Option<Vec<u64>>;

    fn say_skipped() {
        static SKIPPED: std::sync::Once = std::sync::Once::new();
        SKIPPED.call_once(|| {
            eprintln!("no AVX-512 VBMI on this CPU: the vector tier's legs were skipped")
        });
    }

    /// The decoders every tier test runs: the scalar one, and the
    /// vector one where this CPU has it (else the skip is said once).
    fn tiers() -> Vec<(&'static str, Decoder)> {
        #[cfg(target_arch = "x86_64")]
        if vbmi::supported() {
            return vec![("scalar", decode_packed_bits), ("vbmi", decode_vbmi_bits)];
        }
        say_skipped();
        vec![("scalar", decode_packed_bits)]
    }

    /// The encoders every tier test runs: [`encoder_tiers`], the skip
    /// said as for [`tiers`].
    fn encoders() -> Vec<(&'static str, PackedEncoder)> {
        let encoders = encoder_tiers();
        if encoders.len() == 1 {
            say_skipped();
        }
        encoders
    }

    /// What `encode` appends for `values`. It must leave what `out`
    /// already holds untouched (an odd-length prefix, so the digest's
    /// stripes must count from the block's start) and return
    /// `Digest::of` the bytes it appended.
    fn encoded(tier: &str, encode: PackedEncoder, values: &[f64]) -> Vec<u8> {
        let held = [0xa5, 0x5a, 0xc3];
        let mut out = held.to_vec();
        let digest = encode(values, &mut out);
        assert_eq!(out[..3], held, "{tier} overwrote `out`");
        assert_eq!(digest, Digest::of(&out[3..]), "{tier}: folded digest");
        out.split_off(3)
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// `fill` deltas whose shared geometry is exactly `width`/`shift`.
    fn deltas_of(width: u32, shift: u32, fill: usize, rng: &mut u64) -> Vec<u64> {
        if width == 0 {
            return vec![0; fill];
        }
        let mask = u64::MAX >> (64 - width);
        let mut deltas: Vec<u64> = (0..fill).map(|_| (splitmix(rng) & mask) << shift).collect();
        deltas[0] |= (1 | 1 << (width - 1)) << shift;
        deltas
    }

    fn values_of(first: u64, deltas: &[u64]) -> Vec<f64> {
        let mut bits = first;
        std::iter::once(first)
            .chain(deltas.iter().map(|d| {
                bits ^= d;
                bits
            }))
            .map(f64::from_bits)
            .collect()
    }

    #[test]
    fn word_wise_equals_byte_wise_on_every_width_shift_and_fill() {
        let mut rng = 0x5eed;
        for width in 0..=64u32 {
            for shift in 0..=(64 - width).min(63) {
                for fill in 1..=MINIBLOCK {
                    let deltas = deltas_of(width, shift, fill, &mut rng);
                    let (mut new, mut old) = (Vec::new(), Vec::new());
                    pack_miniblock(&deltas, &mut new);
                    pack_miniblock_bytewise(&deltas, &mut old);
                    assert_eq!(new, old, "pack w={width} s={shift} fill={fill}");

                    let values = values_of(splitmix(&mut rng), &deltas);
                    let mut block = Vec::new();
                    encode_packed_bytewise(&values, &mut block);
                    for (tier, encode) in encoders() {
                        let got = encoded(tier, encode, &values);
                        assert_eq!(got, block, "{tier} pack w={width} s={shift} fill={fill}");
                    }
                    let want: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
                    let oracle = decode_packed_bytewise(&block, values.len());
                    for (tier, decode) in tiers() {
                        let got = decode(&block, values.len());
                        let at = format!("{tier} w={width} s={shift} fill={fill}");
                        assert_eq!(got.as_ref(), Some(&want), "{at}");
                        assert_eq!(got, oracle, "{at}");
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn word_wise_equals_byte_wise_on_ragged_blocks(
            pick in 0usize..6,
            seed in proptest::any::<u64>(),
        ) {
            let len = [1usize, 2, 63, 64, 65, 8760][pick];
            // Every miniblock draws its own geometry, so neighbours of
            // different widths sit back to back in one stream.
            let mut rng = seed;
            let mut deltas = Vec::with_capacity(len);
            while deltas.len() < len - 1 {
                let width = (splitmix(&mut rng) % 65) as u32;
                let shift = (splitmix(&mut rng) % u64::from(65 - width)).min(63) as u32;
                let fill = (len - 1 - deltas.len()).min(MINIBLOCK);
                deltas.extend(deltas_of(width, shift, fill, &mut rng));
            }
            let values = values_of(splitmix(&mut rng), &deltas);
            let (mut new, mut old) = (Vec::new(), Vec::new());
            encode_packed(&values, &mut new);
            encode_packed_bytewise(&values, &mut old);
            proptest::prop_assert_eq!(&new, &old);
            for (tier, encode) in encoders() {
                proptest::prop_assert_eq!(&encoded(tier, encode, &values), &old, "{}", tier);
            }
            let want: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
            let oracle = decode_packed_bytewise(&new, len);
            for (tier, decode) in tiers() {
                let got = decode(&new, len);
                proptest::prop_assert_eq!(got.as_ref(), Some(&want), "{}", tier);
                proptest::prop_assert_eq!(got, oracle.clone(), "{}", tier);
            }
        }

        #[test]
        fn word_wise_is_as_strict_as_byte_wise_on_damaged_streams(
            seed in proptest::any::<u64>(),
            len in 2usize..100,
        ) {
            let mut rng = seed;
            let width = 1 + (splitmix(&mut rng) % 64) as u32;
            let deltas = deltas_of(width, 0, len - 1, &mut rng);
            let values = values_of(splitmix(&mut rng), &deltas);
            let mut block = Vec::new();
            encode_packed(&values, &mut block);
            // Every truncation, then a damaged byte anywhere (headers
            // included): same verdict, and the same bits when accepted.
            let tiers = tiers();
            for cut in 0..block.len() {
                let oracle = decode_packed_bytewise(&block[..cut], len);
                for (tier, decode) in &tiers {
                    let got = decode(&block[..cut], len);
                    proptest::prop_assert_eq!(got, oracle.clone(), "{} cut {}", tier, cut);
                }
            }
            for at in 0..block.len() {
                let mut damaged = block.clone();
                damaged[at] = splitmix(&mut rng) as u8;
                let oracle = decode_packed_bytewise(&damaged, len);
                let mut extended = damaged.clone();
                extended.push(0);
                for (tier, decode) in &tiers {
                    let got = decode(&damaged, len);
                    proptest::prop_assert_eq!(got, oracle.clone(), "{} at {}", tier, at);
                    proptest::prop_assert_eq!(decode(&extended, len), None, "{} at {}", tier, at);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(8))]

        /// The vector tiers' digests, folded while they unpack and while
        /// they pack, are `Digest::of` the block: for every width 0..=64,
        /// over block lengths that end in every phase of the two stripes
        /// a group folds in.
        #[test]
        fn fused_digest_equals_digest_of_the_same_bytes(seed in proptest::any::<u64>()) {
            #[cfg(target_arch = "x86_64")]
            if vbmi::supported() {
                let mut rng = seed;
                let mut phases = std::collections::BTreeSet::new();
                for width in 0..=64u32 {
                    for len in 1..=2 * MINIBLOCK + 2 {
                        let mut deltas = Vec::with_capacity(len);
                        while deltas.len() < len - 1 {
                            let fill = (len - 1 - deltas.len()).min(MINIBLOCK);
                            deltas.extend(deltas_of(width, 0, fill, &mut rng));
                        }
                        let values = values_of(splitmix(&mut rng), &deltas);
                        let mut block = Vec::new();
                        encode_packed(&values, &mut block);
                        phases.insert(block.len() % 64);
                        // `encoded` checks the folded digest.
                        let packed = encoded("vbmi", encode_packed_digested, &values);
                        proptest::prop_assert_eq!(&packed, &block, "w={} len={}", width, len);
                        let mut out = Vec::new();
                        // SAFETY: the CPU runs the tier (checked above).
                        let digest = unsafe { vbmi::decode_packed_digested(&block, len, &mut out) };
                        let want = Some(Digest::of(&block));
                        proptest::prop_assert_eq!(digest.ok(), want, "w={} len={}", width, len);
                    }
                }
                proptest::prop_assert_eq!(phases.len(), 64);
                return Ok(());
            }
            // Says that the vector tier was skipped.
            let _ = (seed, tiers());
        }
    }
}
