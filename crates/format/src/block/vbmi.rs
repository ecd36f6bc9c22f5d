//! The AVX-512 VBMI tier of the packed decoder, with the block digest
//! folded into its loop.
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

use std::arch::x86_64::*;
use std::mem::MaybeUninit;
use std::sync::OnceLock;

use smda_types::Error;

use super::Stream;
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
}

const fn geometry(width: usize) -> Geometry {
    let mut g = Geometry {
        low: [0; 8],
        ninth: [0; 8],
        sub: [0; 8],
    };
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

/// [`Geometry`] of every width `0..=64` (width 0 is never unpacked).
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
