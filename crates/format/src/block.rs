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

use smda_types::{Error, FormatDefect};

use crate::layout::{bad, le_u64};

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

/// Append `values` xor-delta bit-packed. `values` must be non-empty.
pub fn encode_packed(values: &[f64], out: &mut Vec<u8>) {
    let first = values[0].to_bits();
    out.extend_from_slice(&first.to_le_bytes());
    let mut prev = first;
    let mut deltas = [0u64; MINIBLOCK];
    let mut filled = 0usize;
    for v in &values[1..] {
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
    let or_all = deltas.iter().fold(0u64, |a, &d| a | d);
    if or_all == 0 {
        out.extend_from_slice(&[0, 0]);
        return;
    }
    let shift = or_all.trailing_zeros();
    let width = 64 - (or_all >> shift).leading_zeros();
    out.push(width as u8);
    out.push(shift as u8);
    // LSB-first bitstream, one whole word out at a time: `acc` holds
    // the `nbits < 64` bits not yet written.
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

/// Decode a packed block of exactly `count` values into `out`.
///
/// Structural damage (bad width byte, short stream, trailing bytes) is
/// reported as a typed error, never a panic — the block checksum
/// normally catches corruption first, but decode must hold on any
/// input.
pub fn decode_packed(bytes: &[u8], count: usize, out: &mut Vec<f64>) -> Result<(), Error> {
    let corrupt = |what: &str| {
        bad(
            "decoding packed block",
            FormatDefect::CorruptIndex(what.into()),
        )
    };
    if count == 0 {
        return if bytes.is_empty() {
            Ok(())
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
    let mut prev = le_u64(bytes, 0);
    out.reserve(count);
    out.push(f64::from_bits(prev));
    let mut pos = 8usize;
    let mut remaining = count - 1;
    while remaining > 0 {
        let in_block = remaining.min(MINIBLOCK);
        let width = u32::from(
            *bytes
                .get(pos)
                .ok_or_else(|| corrupt("missing width byte"))?,
        );
        let shift = u32::from(
            *bytes
                .get(pos + 1)
                .ok_or_else(|| corrupt("missing shift byte"))?,
        );
        pos += 2;
        if width > 64 || shift > 63 || width + shift > 64 {
            return Err(corrupt("miniblock width/shift exceed 64 bits"));
        }
        if width == 0 {
            // All deltas zero: the value repeats.
            let v = f64::from_bits(prev);
            out.resize(out.len() + in_block, v);
            remaining -= in_block;
            continue;
        }
        let nbytes = (in_block * width as usize).div_ceil(8);
        if bytes.len() - pos < nbytes {
            return Err(corrupt("packed miniblock shorter than its width declares"));
        }
        // Windows may run past this miniblock into the next one (or
        // the zero extension); the mask drops what is not ours.
        let packed = &bytes[pos..];
        pos += nbytes;
        let mask = u64::MAX >> (64 - width);
        out.extend((0..in_block).map(|i| {
            prev ^= (window(packed, i * width as usize) & mask) << shift;
            f64::from_bits(prev)
        }));
        remaining -= in_block;
    }
    if pos != bytes.len() {
        return Err(corrupt("trailing bytes after packed stream"));
    }
    Ok(())
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
                    encode_packed(&values, &mut block);
                    let want: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
                    let got = decode_packed_bits(&block, values.len());
                    assert_eq!(got.as_ref(), Some(&want), "w={width} s={shift} fill={fill}");
                    assert_eq!(got, decode_packed_bytewise(&block, values.len()));
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
            let want: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
            proptest::prop_assert_eq!(decode_packed_bits(&new, len), Some(want));
            proptest::prop_assert_eq!(
                decode_packed_bits(&new, len),
                decode_packed_bytewise(&new, len)
            );
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
            for cut in 0..block.len() {
                proptest::prop_assert_eq!(
                    decode_packed_bits(&block[..cut], len),
                    decode_packed_bytewise(&block[..cut], len)
                );
            }
            for at in 0..block.len() {
                let mut damaged = block.clone();
                damaged[at] = splitmix(&mut rng) as u8;
                proptest::prop_assert_eq!(
                    decode_packed_bits(&damaged, len),
                    decode_packed_bytewise(&damaged, len)
                );
                damaged.push(0);
                proptest::prop_assert_eq!(decode_packed_bits(&damaged, len), None);
            }
        }
    }
}
