//! The AVX-512 VBMI tier of the packed decoder and of the packer, each
//! with the block digest folded into its loop.
//!
//! Inside a miniblock the eight values of group `k` span exactly
//! `width` bytes, from byte `k × width`, so one masked 64-byte load
//! feeds eight lanes. Two `vpermb` place each value's 8-byte window and
//! its ninth byte in its lane; their index tables and the lanes'
//! sub-byte offsets depend on the width alone ([`GEOMETRY`]). Then
//! `vpsrlvq` / `vpsllvq` by the offset (a count of 64 yields 0, which
//! is what `sub == 0` needs), the mask and `<< shift`: the scalar
//! `window`, lane by lane. The xor-delta prefix is a three-step
//! `valignq` scan, xored with lane 7 of the previous group broadcast.
//! Integer xor is associative, so no bit can differ from the scalar
//! decoder's. A tail of fewer than eight values takes the scalar
//! `window`, and [`Stream`] makes the same structural checks for both
//! tiers.
//!
//! The digest rides along: two 32-byte stripes of the block per group,
//! a scalar `imul` chain on the integer ports under the vector unpack.
//!
//! The packer runs the same geometry backwards, eight deltas per pair
//! of `vpermt2b` and one store masked to `width` bytes, and folds the
//! digest of the bytes it appends the same way
//! ([`encode_packed_digested`]).

use std::arch::x86_64::*;
use std::mem::MaybeUninit;
use std::sync::OnceLock;

use smda_types::Error;

use super::{Stream, MINIBLOCK};
use crate::digest::Digest;

/// Whether this CPU runs the tier: detected once, then cached.
pub(super) fn supported() -> bool {
    static SUPPORTED: OnceLock<bool> = OnceLock::new();
    *SUPPORTED.get_or_init(|| {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vbmi")
    })
}

/// One width's constants, one `u64` per lane.
#[derive(Clone, Copy)]
struct Geometry {
    /// `vpermb` indices of the lane's 8-byte window.
    low: [u64; 8],
    /// `vpermb` index of the byte after the window, in the lane's low
    /// byte (`vpermb` reads an index's low six bits: at width 64 the
    /// last lane's wraps, where its offset is 0 and the byte unused).
    ninth: [u64; 8],
    /// The lane's bit offset inside its window's first byte.
    sub: [u64; 8],
    /// The packer's `vpermt2b` indices over `(lo, hi)`, widths 8..=64:
    /// for output byte `p`, the lane holding bit `8p` of the group.
    first: [u8; 64],
    /// The same for bit `8p + 7`. For width ≥ 8 a byte spans at most
    /// two lanes, so `first` and `second` name every lane it takes bits
    /// from (the same one twice when it lies inside one lane).
    second: [u8; 64],
}

/// Where output byte `bit / 8` of a group finds the bits the lane
/// holding `bit` gives it: byte `from` of that lane's window in `lo`,
/// or the lane's ninth byte, the low byte of its `hi` (`vpermt2b` reads
/// index bit 6 as "from `hi`").
const fn source(width: usize, bit: usize) -> u8 {
    let lane = bit / width;
    let from = bit / 8 - lane * width / 8;
    (lane * 8 + if from < 8 { from } else { 64 }) as u8
}

const fn geometry(width: usize) -> Geometry {
    let mut g = Geometry {
        low: [0; 8],
        ninth: [0; 8],
        sub: [0; 8],
        first: [0; 64],
        second: [0; 64],
    };
    let mut p = 0;
    while width >= 8 && p < width {
        g.first[p] = source(width, 8 * p);
        g.second[p] = source(width, 8 * p + 7);
        p += 1;
    }
    let mut lane = 0;
    while lane < 8 {
        let bit = lane * width;
        let byte = (bit >> 3) as u64;
        let mut b = 0;
        while b < 8 {
            g.low[lane] |= (byte + b) << (8 * b);
            b += 1;
        }
        g.ninth[lane] = byte + 8;
        g.sub[lane] = (bit & 7) as u64;
        lane += 1;
    }
    g
}

/// [`Geometry`] of every width `0..=64` (width 0 is never unpacked, and
/// widths below 8 are never packed on this tier).
static GEOMETRY: [Geometry; 65] = {
    let mut table = [geometry(0); 65];
    let mut width = 1;
    while width <= 64 {
        table[width] = geometry(width);
        width += 1;
    }
    table
};

#[target_feature(enable = "avx512f")]
#[inline]
fn lanes(v: &[u64; 8]) -> __m512i {
    let [a, b, c, d, e, f, g, h] = v.map(|x| x as i64);
    _mm512_set_epi64(h, g, f, e, d, c, b, a)
}

/// [`super::decode_packed`] on this tier, returning the block's
/// [`Digest`] as well. Values are added to `out` only when the whole
/// block decoded: on `Err`, `out` is as it was.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
pub(super) fn decode_packed_digested(
    bytes: &[u8],
    count: usize,
    out: &mut Vec<f64>,
) -> Result<u64, Error> {
    let Some((mut stream, mut prev)) = Stream::open(bytes, count)? else {
        return Ok(Digest::of(bytes));
    };
    let mut digest = Digest::default();
    let mut ahead = bytes.chunks_exact(64);
    out.reserve(count);
    let start = out.len();
    let slots = &mut out.spare_capacity_mut()[..count];
    slots[0].write(f64::from_bits(prev));
    let mut written = 1;
    while let Some(miniblock) = stream.miniblock()? {
        let dst = &mut slots[written..written + miniblock.len];
        written += miniblock.len;
        if miniblock.width == 0 {
            dst.fill(MaybeUninit::new(f64::from_bits(prev)));
            continue;
        }
        let width = miniblock.width as usize;
        let g = &GEOMETRY[width];
        let (low, ninth, sub) = (lanes(&g.low), lanes(&g.ninth), lanes(&g.sub));
        let sub_up = _mm512_sub_epi64(_mm512_set1_epi64(64), sub);
        let mask = _mm512_set1_epi64((u64::MAX >> (64 - width)) as i64);
        let shift = _mm512_set1_epi64(i64::from(miniblock.shift));
        let load: __mmask64 = u64::MAX >> (64 - width);
        let (zero, last) = (_mm512_setzero_si512(), _mm512_set1_epi64(7));
        let mut carry = _mm512_set1_epi64(prev as i64);
        let (groups, tail) = dst.as_chunks_mut::<8>();
        let mut sources = &miniblock.packed[..groups.len() * width];
        for group in groups.iter_mut() {
            let (src, rest) = sources.split_at(width);
            sources = rest;
            if let Some(stripes) = ahead.next() {
                digest.update_stripes(stripes);
            }
            // SAFETY: `load` enables exactly the `width` bytes of `src`;
            // a masked-off byte is never read, so it cannot fault.
            let words = unsafe { _mm512_maskz_loadu_epi8(load, src.as_ptr().cast()) };
            let lo = _mm512_permutexvar_epi8(low, words);
            let hi = _mm512_permutexvar_epi8(ninth, words);
            let stored = _mm512_or_si512(_mm512_srlv_epi64(lo, sub), _mm512_sllv_epi64(hi, sub_up));
            let mut d = _mm512_sllv_epi64(_mm512_and_si512(stored, mask), shift);
            d = _mm512_xor_si512(d, _mm512_alignr_epi64::<7>(d, zero));
            d = _mm512_xor_si512(d, _mm512_alignr_epi64::<6>(d, zero));
            d = _mm512_xor_si512(d, _mm512_alignr_epi64::<4>(d, zero));
            let values = _mm512_xor_si512(d, carry);
            carry = _mm512_permutexvar_epi64(last, values);
            // SAFETY: `group` is eight writable `f64` slots, 64 bytes, and
            // the store has no alignment requirement.
            unsafe { _mm512_storeu_si512(group.as_mut_ptr().cast(), values) };
        }
        prev = _mm_cvtsi128_si64(_mm512_castsi512_si128(carry)) as u64;
        let done = groups.len() * 8;
        for (i, slot) in tail.iter_mut().enumerate() {
            prev ^= miniblock.delta(done + i);
            slot.write(f64::from_bits(prev));
        }
    }
    stream.finish()?;
    assert_eq!(written, count, "a packed block decodes to `count` values");
    // SAFETY: `reserve` made room for `count` more values, and the
    // `written` slots from `start` were each written above.
    unsafe { out.set_len(start + count) };
    for stripes in ahead.by_ref() {
        digest.update_stripes(stripes);
    }
    // A copy takes the rest: were `digest` itself lent to `update`, its
    // lanes would live on the stack through the loop, not in registers.
    let mut rest = digest.clone();
    rest.update(ahead.remainder());
    Ok(rest.finish())
}

/// How many bytes the packer's digest trails the end of what it has
/// stored: a masked store cannot forward its bytes to a load, so a
/// stripe read while its store is still in flight would wait for it.
const LAG: usize = 256;

/// [`super::encode_packed`] on this tier, returning the [`Digest`] of
/// the bytes it appended to `out`.
///
/// Per miniblock, the deltas come eight at a time: one unaligned load of
/// `bits[i..i + 8]`, xored with the same lanes moved up one by
/// `valignq`, the previous load's last lane coming in below. Their OR
/// gives the header. At width ≥ 8 each group of eight deltas fills
/// exactly `width` bytes, so the unpack's geometry runs backwards:
/// `vpsrlq` by `shift`, `vpsllvq` by each lane's sub-byte offset (`lo`)
/// and `vpsrlvq` by 64 minus it (`hi`, the byte spilled past the lane's
/// window; a count of 64 yields 0), two `vpermt2b` over `(lo, hi)` with
/// the width's `first` / `second` tables, their OR, and a store masked
/// to `width` bytes. The tail of fewer than eight deltas, and any
/// miniblock of width 1–7, goes through the portable
/// [`super::pack_bits`], so every byte is the portable packer's.
///
/// Each group folds the next two 32-byte stripes of the block into the
/// digest once they lie [`LAG`] bytes behind the end; what trails at
/// the end is folded after the loop.
#[target_feature(enable = "avx512f,avx512bw,avx512vbmi")]
pub(super) fn encode_packed_digested(values: &[f64], out: &mut Vec<u8>) -> u64 {
    let start = out.len();
    let Some(first) = values.first() else {
        return Digest::of(&[]);
    };
    out.extend_from_slice(&first.to_bits().to_le_bytes());
    let mut digest = Digest::default();
    let mut folded = start;
    let mut deltas = [0u64; MINIBLOCK];
    let mut at = 1;
    while at < values.len() {
        let len = (values.len() - at).min(MINIBLOCK);
        // Values `at − 1 ..= at + len − 1`: delta `j` is `src[j + 1] ⊻ src[j]`.
        let src = &values[at - 1..at + len];
        at += len;
        let (groups, tail) = deltas[..len].as_chunks_mut::<8>();
        let mut any = _mm512_setzero_si512();
        let mut before = _mm512_set1_epi64(src[0].to_bits() as i64);
        for (group, cur) in groups.iter_mut().zip(src[1..].chunks_exact(8)) {
            // SAFETY: `cur` is eight `f64` and `group` eight `u64`;
            // neither access needs alignment.
            let d = unsafe {
                let cur = _mm512_loadu_si512(cur.as_ptr().cast());
                let d = _mm512_xor_si512(cur, _mm512_alignr_epi64::<7>(cur, before));
                before = cur;
                _mm512_storeu_si512(group.as_mut_ptr().cast(), d);
                d
            };
            any = _mm512_or_si512(any, d);
        }
        let done = groups.len() * 8;
        let mut or_all = _mm512_reduce_or_epi64(any) as u64;
        for (slot, pair) in tail.iter_mut().zip(src[done..].windows(2)) {
            *slot = pair[1].to_bits() ^ pair[0].to_bits();
            or_all |= *slot;
        }
        let (width, shift) = super::push_header(or_all, out);
        let deltas = &deltas[..len];
        if width < 8 {
            super::pack_bits(deltas, width, shift, out);
            continue;
        }
        let width = width as usize;
        let g = &GEOMETRY[width];
        let sub = lanes(&g.sub);
        let sub_up = _mm512_sub_epi64(_mm512_set1_epi64(64), sub);
        let shift_by = _mm_cvtsi64_si128(i64::from(shift));
        // SAFETY: `first` and `second` are 64 bytes each, read unaligned.
        let (first, second) = unsafe {
            (
                _mm512_loadu_si512(g.first.as_ptr().cast()),
                _mm512_loadu_si512(g.second.as_ptr().cast()),
            )
        };
        let keep: __mmask64 = u64::MAX >> (64 - width);
        out.reserve(done * width / 8);
        let mut end = out.len();
        for group in deltas[..done].chunks_exact(8) {
            if folded + 64 + LAG <= end {
                digest.update_stripes(&out[folded..][..64]);
                folded += 64;
            }
            // SAFETY: `group` is eight `u64`, read unaligned.
            let d = unsafe { _mm512_loadu_si512(group.as_ptr().cast()) };
            let stored = _mm512_srl_epi64(d, shift_by);
            let lo = _mm512_sllv_epi64(stored, sub);
            let hi = _mm512_srlv_epi64(stored, sub_up);
            let bytes = _mm512_or_si512(
                _mm512_permutex2var_epi8(lo, first, hi),
                _mm512_permutex2var_epi8(lo, second, hi),
            );
            // SAFETY: `reserve` left room for every group's `width`
            // bytes past the length this miniblock's groups start at;
            // `keep` stores exactly `width` of them and no byte past
            // them, and `set_len` publishes only those, now written.
            unsafe {
                _mm512_mask_storeu_epi8(out.as_mut_ptr().add(end).cast(), keep, bytes);
                end += width;
                out.set_len(end);
            }
        }
        super::pack_bits(&deltas[done..], width as u32, shift, out);
    }
    let ready = out.len() - (out.len() - folded) % 32;
    digest.update_stripes(&out[folded..ready]);
    // A copy takes the rest, as in the unpack: the lanes stay in
    // registers through the loop.
    let mut rest = digest.clone();
    rest.update(&out[ready..]);
    rest.finish()
}
