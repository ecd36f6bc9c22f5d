//! The `.smc` corruption check: a 4-lane word-wise multiply–fold digest.
//!
//! Input is consumed in 32-byte stripes, one little-endian `u64` word
//! per lane. A lane absorbs its word with
//!
//! ```text
//! h ← (h ⊕ w) × P          P odd, so a bijection of h (and of w)
//! h ← h ⊕ (h >> 32)        fold the high half back down (bijection)
//! ```
//!
//! The four lanes carry no dependency on one another, so the multiplies
//! overlap and the loop runs at a fraction of memory speed instead of
//! one multiplier latency per byte. The final partial stripe is
//! zero-padded; [`Digest::finish`] absorbs the byte length and then the
//! four lane states through the same step and avalanches the result.
//!
//! Why this is a sound corruption check: one damaged byte changes one
//! word, hence one lane; every later step of that lane and every step
//! of `finish` is a bijection of the state it updates, so the digest
//! **always** changes. The fold is what stops the top bit being a blind
//! spot — under a bare `(h ⊕ w) × P`, bit 63 of a word only ever reaches
//! bit 63 of the state, so the same flip in a later word cancels it.
//! Zero padding cannot hide appended zero bytes because the length is
//! part of the digest.
//!
//! Why each lane stays a scalar `imul` chain: left alone, LLVM's SLP
//! vectorizer packs the four lanes into two SSE2 `v2i64` multiplies,
//! each emulated with three `pmuludq` plus shifts and adds (x86-64 has
//! no 64-bit vector multiply below AVX-512DQ). That makes a lane step
//! about 12 cycles where `xor → imul → shr → xor` takes about 6, and it
//! halves the digest's speed. `opaque` stops it; ci.sh checks that
//! the release `Digest::update` holds no `pmuludq`. The same scalar
//! chain also leaves the vector ports free, so the packed decoder's
//! AVX-512 tier folds stripes in under its unpack (`block/vbmi.rs`).

use crate::layout::le_u64;

const STRIPE: usize = 32;

/// Lane multiplier (odd; 2⁶⁴ / φ).
const MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Initial lane states — distinct, so swapping words between lanes
/// changes the digest (fractional digits of π).
const SEEDS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// `x`, through a value the optimizer cannot see into: the four lanes'
/// products are then four scalars, not two vectors to be rebuilt with
/// `pmuludq` (see the module doc). Emits no instruction.
#[inline(always)]
fn opaque(mut x: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the template is a comment. It reads and writes only the
    // register holding `x`, touches no memory, stack or flags, and
    // leaves the value as it was.
    unsafe {
        std::arch::asm!("/* {0} */", inout(reg) x, options(pure, nomem, nostack, preserves_flags));
    }
    x
}

#[inline(always)]
fn step(h: u64, w: u64) -> u64 {
    let h = opaque((h ^ w).wrapping_mul(MUL));
    h ^ (h >> 32)
}

#[inline(always)]
fn absorb(lanes: &mut [u64; 4], stripe: &[u8]) {
    for (lane, at) in lanes.iter_mut().zip([0, 8, 16, 24]) {
        *lane = step(*lane, le_u64(stripe, at));
    }
}

/// Streaming digest state: start from [`Digest::default`],
/// [`update`](Digest::update) any number of times, then
/// [`finish`](Digest::finish). How the input is split across `update`
/// calls does not affect the result.
#[derive(Debug, Clone)]
pub struct Digest {
    lanes: [u64; 4],
    /// The current, incomplete stripe: `total % STRIPE` bytes, then
    /// zeros.
    pending: [u8; STRIPE],
    total: u64,
}

impl Default for Digest {
    /// The state of a digest over zero bytes.
    fn default() -> Digest {
        Digest {
            lanes: SEEDS,
            pending: [0; STRIPE],
            total: 0,
        }
    }
}

impl Digest {
    /// Digest of `bytes` in one call.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut digest = Digest::default();
        digest.update(bytes);
        digest.finish()
    }

    /// Fold more bytes into the digest.
    pub fn update(&mut self, mut bytes: &[u8]) {
        let held = (self.total % STRIPE as u64) as usize;
        if held > 0 {
            let take = bytes.len().min(STRIPE - held);
            self.pending[held..held + take].copy_from_slice(&bytes[..take]);
            self.total += take as u64;
            bytes = &bytes[take..];
            if held + take < STRIPE {
                return;
            }
            absorb(&mut self.lanes, &self.pending);
            self.pending = [0; STRIPE];
        }
        let (stripes, rest) = bytes.split_at(bytes.len() - bytes.len() % STRIPE);
        self.update_stripes(stripes);
        self.pending[..rest.len()].copy_from_slice(rest);
        self.total += rest.len() as u64;
    }

    /// [`update`](Digest::update) with whole stripes that follow whole
    /// stripes: how the packed decoder's vector tier folds a block in
    /// as it unpacks it, without `update`'s bookkeeping per call.
    #[inline(always)]
    pub(crate) fn update_stripes(&mut self, stripes: &[u8]) {
        debug_assert!(
            self.total.is_multiple_of(STRIPE as u64) && stripes.len().is_multiple_of(STRIPE)
        );
        self.total += stripes.len() as u64;
        for stripe in stripes.chunks_exact(STRIPE) {
            absorb(&mut self.lanes, stripe);
        }
    }

    /// The digest of everything fed to [`update`](Digest::update) so
    /// far. Does not consume the state: more bytes may follow.
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        if !self.total.is_multiple_of(STRIPE as u64) {
            absorb(&mut lanes, &self.pending);
        }
        let mut h = lanes.iter().fold(self.total, |h, &lane| step(h, lane));
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic filler (splitmix64 bytes).
    fn filler(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                (z >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn digest_is_pinned() {
        // Format v2 is defined by these values: a change here is a
        // format break and needs a version bump.
        assert_eq!(Digest::of(b""), Digest::default().finish());
        assert_eq!(Digest::of(b""), 0x048a_12fc_4cc9_a380);
        assert_eq!(Digest::of(b"0123456789"), 0x7d9d_e63b_2102_f708);
        assert_eq!(Digest::of(&filler(1, 100)), 0x8482_e348_380a_5a99);
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        for len in [1usize, 7, 8, 9, 31, 32, 33, 64, 100] {
            let data = filler(len as u64, len);
            let base = Digest::of(&data);
            for bit in 0..len * 8 {
                let mut flipped = data.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(
                    Digest::of(&flipped),
                    base,
                    "len {len}: bit {bit} undetected"
                );
            }
        }
    }

    #[test]
    fn the_same_bit_flipped_in_two_words_never_cancels() {
        // Words 0, 4, 8 and 12 share a lane; the others land in
        // different lanes. Bit 63 is the one a fold-less multiply
        // loses.
        let data = filler(7, 128);
        let base = Digest::of(&data);
        for bit in 0..64 {
            for a in 0..16 {
                for b in a + 1..16 {
                    let mut flipped = data.clone();
                    flipped[a * 8 + bit / 8] ^= 1 << (bit % 8);
                    flipped[b * 8 + bit / 8] ^= 1 << (bit % 8);
                    assert_ne!(
                        Digest::of(&flipped),
                        base,
                        "bit {bit} of words {a} and {b} cancelled"
                    );
                }
            }
        }
    }

    #[test]
    fn appending_zero_bytes_changes_the_digest() {
        for len in [0usize, 1, 8, 24, 31, 32, 33, 64] {
            let mut data = filler(3, len);
            let mut seen = vec![Digest::of(&data)];
            for _ in 0..40 {
                data.push(0);
                let d = Digest::of(&data);
                assert!(
                    !seen.contains(&d),
                    "len {len}: {} zero-extended",
                    data.len()
                );
                seen.push(d);
            }
        }
    }

    proptest! {
        #[test]
        fn any_split_into_updates_equals_one_shot(
            len in 0usize..300,
            seed in proptest::any::<u64>(),
            cuts in proptest::collection::vec(0usize..300, 0..8),
        ) {
            let data = filler(seed, len);
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (len + 1)).collect();
            cuts.sort_unstable();
            let mut digest = Digest::default();
            let mut from = 0;
            for cut in cuts {
                digest.update(&data[from..cut]);
                from = cut;
            }
            digest.update(&data[from..]);
            prop_assert_eq!(digest.finish(), Digest::of(&data));
        }
    }
}
