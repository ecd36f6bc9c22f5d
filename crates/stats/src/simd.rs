//! Explicit SIMD kernels with runtime dispatch — the vector substrate
//! under [`dot`](crate::dot), the tiled similarity sweep, and the
//! normal-equation gram accumulation.
//!
//! # Bit-exact lanes
//!
//! Float addition is not associative, so "vectorize it" is not a free
//! move: any kernel that changes the order in which partial sums are
//! combined changes the answer's low bits, and the whole workspace's
//! cross-platform story is built on `f64::to_bits` equality. Every
//! kernel here is therefore **lane-preserving** (DESIGN.md §14):
//! [`dot_block`] (of which [`crate::dot`] is the 1 × 1 instance) and
//! [`axpy`] map the reference kernel's independent accumulators onto
//! vector lanes one-for-one, and the final reduction reuses the scalar
//! tree (`((a0+a1)+(a2+a3)) + tail`). No FMA — a fused multiply-add
//! rounds once where the reference rounds twice. [`lagged_moments`] and
//! [`lagged_residuals`] — the PAR fit's two passes — are the same idea
//! with nothing to reduce: a lane *is* one hour's scalar accumulator, so
//! any width computes the same lanes (as it does for the Histogram's range
//! and counting passes, which use this vocabulary too).
//! Every kernel is one generic loop nest over one lane vocabulary, and
//! each tier is an instantiation of it; all are **bit-identical** to
//! their scalar references, pinned by proptests and
//! `smda-bench --check kernels,simd,fits`.
//!
//! # Dispatch
//!
//! One process-global tier ([`active_tier`]) decides what runs: scalar,
//! AVX2, or AVX-512 — the AVX2 tier with the pair sweep's register block
//! widened to [`WIDE_ROWS`] × [`WIDE_COLS`] on `zmm`, and the kernels
//! whose lanes are never reduced across at eight lanes to a `zmm`
//! (`Widest`). It is detected once
//! (`is_x86_feature_detected!`, which for `avx512f` also checks that the
//! OS saves `zmm` state), and every entry point reads it with one relaxed
//! atomic load before a year-long loop, so there is exactly one place
//! where scalar-vs-SIMD is decided. What the tier hands out is a
//! zero-sized token per vector tier, the only proof the `#[target_feature]`
//! frames and the lane methods accept: those methods are safe, and
//! `unsafe` is left at the calls into the frames, the intrinsics inside
//! the methods, and the block kernel's one pointer cast. Tests walk every
//! tier with [`under_every_tier`], which forces each in turn; forcing a
//! tier the hardware lacks clamps to the widest one it has.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use smda_types::HOURS_PER_DAY;

use crate::similarity::dot_scalar;

/// Which implementation family the dispatched kernels run. Ordered by
/// width: a tier runs every kernel of the tiers below it that it does
/// not widen, so it hands out their tokens too; a kernel asks for the
/// token of its vocabulary, never for an exact tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// The fixed-order scalar reference kernels.
    Scalar,
    /// Lane-preserving AVX2 `f64x4` kernels (bit-identical to scalar).
    Avx2,
    /// The AVX2 kernels, except that the pair sweep's register block is
    /// [`WIDE_ROWS`] × [`WIDE_COLS`] with two pairs' four-lane
    /// accumulators side by side in each `zmm`, and that PAR's and the
    /// Histogram's passes run eight lanes to a `zmm` (bit-identical to
    /// scalar).
    Avx512,
}

impl SimdTier {
    /// Every tier, narrowest first.
    pub const ALL: [SimdTier; 3] = [SimdTier::Scalar, SimdTier::Avx2, SimdTier::Avx512];

    /// Stable lowercase label (`scalar` / `avx2` / `avx512`) for exports
    /// and logs.
    pub fn label(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
            SimdTier::Avx512 => "avx512",
        }
    }
}

/// 0 = undetected, 1 = scalar, 2 = AVX2, 3 = AVX-512.
static TIER: AtomicU8 = AtomicU8::new(0);

/// The widest tier this CPU (and, for `zmm` state, this OS) runs. The
/// AVX-512 tier also runs the AVX2 kernels, so it asks for both.
fn detect() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return SimdTier::Avx512;
        }
        return SimdTier::Avx2;
    }
    SimdTier::Scalar
}

/// The active lane-preserving tier, detecting on first use.
pub fn active_tier() -> SimdTier {
    match TIER.load(Ordering::Relaxed) {
        3 => SimdTier::Avx512,
        2 => SimdTier::Avx2,
        1 => SimdTier::Scalar,
        _ => {
            let detected = detect() as u8 + 1;
            // A concurrent `force_tier` may land first; keep whatever won.
            let _ = TIER.compare_exchange(0, detected, Ordering::Relaxed, Ordering::Relaxed);
            active_tier()
        }
    }
}

/// Force the lane-preserving tier (each step of [`under_every_tier`]),
/// returning the previous tier so callers can restore it. A tier this hardware lacks clamps to the widest one it has —
/// [`SimdTier::Avx512`] to AVX2, AVX2 to scalar — so the setting can
/// never make a dispatched kernel fault.
fn force_tier(tier: SimdTier) -> SimdTier {
    let previous = active_tier();
    TIER.store(tier.min(detect()) as u8 + 1, Ordering::Relaxed);
    previous
}

/// Held by whoever pins the tier and relies on it staying pinned. A
/// panicking holder leaves nothing half-done behind the lock, so a
/// poisoned lock is taken as is.
fn pin_lock() -> MutexGuard<'static, ()> {
    static PINNED: Mutex<()> = Mutex::new(());
    PINNED.lock().unwrap_or_else(|e| e.into_inner())
}

/// Run `body` once under every tier this hardware runs, narrowest
/// first, then restore the tier in force before — how tests, gates and
/// the `simd` experiment compare the tiers. A tier that would clamp is
/// skipped, not run twice. Calls are serialized on a process-wide lock,
/// so each body runs the tier it is handed even beside other callers
/// (code that merely dispatches meanwhile may see any tier, which the
/// tiers' bit-identity makes harmless); `body` must not call this again.
pub fn under_every_tier(mut body: impl FnMut(SimdTier)) {
    let _pinned = pin_lock();
    let widest = detect();
    let previous = active_tier();
    for tier in SimdTier::ALL.into_iter().filter(|&t| t <= widest) {
        force_tier(tier);
        body(tier);
    }
    force_tier(previous);
}

/// The tier tokens, in a module of their own so that only [`active_tokens`] makes them.
#[cfg(target_arch = "x86_64")]
mod tokens {
    use super::{active_tier, SimdTier};

    /// Proof that this CPU runs AVX2, and the lane vocabulary on `ymm`.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2(());

    /// Proof that this CPU runs AVX-512F and AVX2 (the tier asks for
    /// both), and the lane vocabulary on `zmm`.
    #[derive(Clone, Copy)]
    pub(crate) struct Avx512(());

    /// The tokens the active tier hands out, from one read of it. Taken
    /// from the tier, not from detection ([`active_tier`] reports a vector
    /// tier only where detection found it: [`super::force_tier`] clamps),
    /// so that a forced scalar tier takes them away.
    #[inline]
    pub(super) fn active_tokens() -> (Option<Avx2>, Option<Avx512>) {
        let tier = active_tier();
        let avx2 = (tier >= SimdTier::Avx2).then_some(Avx2(()));
        (avx2, (tier == SimdTier::Avx512).then_some(Avx512(())))
    }
}

#[cfg(target_arch = "x86_64")]
use tokens::active_tokens;
#[cfg(target_arch = "x86_64")]
pub(crate) use tokens::{Avx2, Avx512};

/// The portable lane vocabulary: `N` lanes in an array, which any CPU runs.
#[derive(Clone, Copy)]
pub(crate) struct Portable<const N: usize>;

/// The lane vocabulary of a kernel whose lanes are never reduced across —
/// PAR's hours, the Histogram's range chains and bucket quotients — so
/// that any width computes the same lanes, and the widest the active
/// tier hands out is the one to run: eight lanes in a `zmm` on the
/// AVX-512 tier, four in a `ymm` on AVX2, and the portable eight, the
/// scalar tier, otherwise. Chosen once per call by [`widest_lanes`].
#[derive(Clone, Copy)]
pub(crate) enum Widest {
    Portable(Portable<8>),
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2),
    #[cfg(target_arch = "x86_64")]
    Avx512(Avx512),
}

/// The [`Widest`] vocabulary of the active tier, from one read of it.
#[inline]
pub(crate) fn widest_lanes() -> Widest {
    #[cfg(target_arch = "x86_64")]
    match active_tokens() {
        (_, Some(avx512)) => return Widest::Avx512(avx512),
        (Some(avx2), _) => return Widest::Avx2(avx2),
        _ => {}
    }
    Widest::Portable(Portable)
}

thread_local! {
    /// The [`Widest`] bodies this thread has run, as `(kernel, vocabulary,
    /// width)`: recorded only in this crate's unit tests, which pin the
    /// body each forced tier runs.
    static BODIES_RUN: std::cell::RefCell<Vec<(&'static str, &'static str, usize)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Record that `kernel` runs its body on `L` (a no-op outside this
/// crate's unit tests: `cfg!`, so that every build type-checks the call).
#[inline(always)]
pub(crate) fn note_body<L: Lanes>(kernel: &'static str) {
    if cfg!(test) {
        let body = (kernel, std::any::type_name::<L>(), L::WIDTH);
        BODIES_RUN.with_borrow_mut(|run| run.push(body));
    }
}

/// Element-wise IEEE arithmetic on `WIDTH` `f64` lanes — the one
/// vocabulary every kernel of this module is written in, so a tier is
/// an instantiation of the *same* loop nest. It is implemented by what
/// proves that its instructions may run: [`Portable`] needs no proof, and
/// the tier tokens [`Avx2`] (four lanes in a `__m256d`) and [`Avx512`]
/// (eight in a `__m512d`) exist only where the CPU runs them, so every
/// method is safe. Every operation rounds separately (no FMA), so a lane
/// holds the same bits whichever vocabulary computed it.
pub(crate) trait Lanes: Copy {
    /// Lanes per vector.
    const WIDTH: usize;
    /// One vector of `WIDTH` lanes.
    type Vector: Copy;
    /// `[f64; WIDTH]`: what a load reads and a store writes.
    type Array;
    fn splat(self, x: f64) -> Self::Vector;
    fn load(self, src: &Self::Array) -> Self::Vector;
    fn add(self, a: Self::Vector, b: Self::Vector) -> Self::Vector;
    fn sub(self, a: Self::Vector, b: Self::Vector) -> Self::Vector;
    fn mul(self, a: Self::Vector, b: Self::Vector) -> Self::Vector;
    fn div(self, a: Self::Vector, b: Self::Vector) -> Self::Vector;
    /// `v` in the lanes where `gate != 0.0` (a NaN gate counts as
    /// non-zero, as `gate == 0.0` is false for it), `+0.0` in the rest.
    fn zeroed_where_zero(self, v: Self::Vector, gate: Self::Vector) -> Self::Vector;
    /// `if a < b { then } else { otherwise }` in each lane: an ordered
    /// compare, so a NaN on either side takes `otherwise`, and so does
    /// `-0.0 < 0.0`.
    fn select_lt(
        self,
        a: Self::Vector,
        b: Self::Vector,
        then: Self::Vector,
        otherwise: Self::Vector,
    ) -> Self::Vector;
    fn store(self, v: Self::Vector) -> Self::Array;
    /// `if a < b { a } else { b }` in each lane: `b` where either is NaN,
    /// and where they tie (`-0.0` against `0.0` included).
    fn min(self, a: Self::Vector, b: Self::Vector) -> Self::Vector;
    /// `if a > b { a } else { b }` in each lane, NaN and ties as [`min`](Self::min).
    fn max(self, a: Self::Vector, b: Self::Vector) -> Self::Vector;
    /// Lane `l` of the result is lane `l ^ distance` of `v`: the partner
    /// exchange of one compare-exchange stage. `distance` is a power of
    /// two below `WIDTH`.
    fn swap_lanes(self, v: Self::Vector, distance: usize) -> Self::Vector;
    /// Which lanes a compare holds true, in the form the vocabulary keeps
    /// them: an array of flags, a sign-bit mask, a mask register.
    type Mask: Copy;
    /// `a <= b` in each lane: an ordered compare, false where either is NaN.
    fn le(self, a: Self::Vector, b: Self::Vector) -> Self::Mask;
    /// `a < b` in each lane: ordered, as [`le`](Self::le).
    fn lt(self, a: Self::Vector, b: Self::Vector) -> Self::Mask;
    /// How many lanes `mask` holds true.
    fn count(self, mask: Self::Mask) -> usize;
    /// The lanes of `v` that `keep` holds true, in lane order, written to
    /// the front of `dst`, whose first `WIDTH` slots the call may all
    /// overwrite. Returns how many lanes were kept.
    ///
    /// # Panics
    /// Panics if `dst` is shorter than `WIDTH`.
    fn compress(self, v: Self::Vector, keep: Self::Mask, dst: &mut [f64]) -> usize;
    /// `WIDTH` counters, one `u64` per lane.
    type Tally: Copy;
    /// Every counter at zero.
    fn tally_zero(self) -> Self::Tally;
    /// `tally` plus one in each lane where `a <= b`: ordered, as
    /// [`le`](Self::le), so a NaN on either side adds nothing.
    fn tally_le(self, tally: Self::Tally, a: Self::Vector, b: Self::Vector) -> Self::Tally;
    /// The sum of the counters (wrapping, as no count of values can).
    fn tally_sum(self, tally: Self::Tally) -> u64;

    /// `+0.0` in every lane.
    #[inline(always)]
    fn zero(self) -> Self::Vector {
        self.splat(0.0)
    }
}

/// The bits set in each byte: a mask's lane count in one load, where the
/// tiers' frames do not enable `popcnt`.
#[cfg(target_arch = "x86_64")]
const LANES_SET: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut mask = 0;
    while mask < 256 {
        table[mask] = (mask as u8).count_ones() as u8;
        mask += 1;
    }
    table
};

/// `v` at each position that [`Lanes::compress`] on `ymm` gathers, for
/// every four-lane mask: the `f64` lanes kept, in order, as the pairs of
/// 32-bit indices `_mm256_permutevar8x32_ps` reads.
#[cfg(target_arch = "x86_64")]
const COMPRESS_YMM: [[i32; 8]; 16] = {
    let mut table = [[0i32; 8]; 16];
    let mut mask = 0;
    while mask < 16 {
        let (mut lane, mut kept) = (0usize, 0);
        while lane < 4 {
            if mask & (1 << lane) != 0 {
                table[mask][2 * kept] = (2 * lane) as i32;
                table[mask][2 * kept + 1] = (2 * lane + 1) as i32;
                kept += 1;
            }
            lane += 1;
        }
        mask += 1;
    }
    table
};

impl<const N: usize> Lanes for Portable<N> {
    const WIDTH: usize = N;
    type Vector = [f64; N];
    type Array = [f64; N];
    #[inline(always)]
    fn splat(self, x: f64) -> [f64; N] {
        [x; N]
    }
    #[inline(always)]
    fn load(self, src: &[f64; N]) -> [f64; N] {
        *src
    }
    #[inline(always)]
    fn add(self, a: [f64; N], b: [f64; N]) -> [f64; N] {
        std::array::from_fn(|l| a[l] + b[l])
    }
    #[inline(always)]
    fn sub(self, a: [f64; N], b: [f64; N]) -> [f64; N] {
        std::array::from_fn(|l| a[l] - b[l])
    }
    #[inline(always)]
    fn mul(self, a: [f64; N], b: [f64; N]) -> [f64; N] {
        std::array::from_fn(|l| a[l] * b[l])
    }
    #[inline(always)]
    fn div(self, a: [f64; N], b: [f64; N]) -> [f64; N] {
        std::array::from_fn(|l| a[l] / b[l])
    }
    #[inline(always)]
    fn zeroed_where_zero(self, v: [f64; N], gate: [f64; N]) -> [f64; N] {
        std::array::from_fn(|l| if gate[l] == 0.0 { 0.0 } else { v[l] })
    }
    #[inline(always)]
    fn select_lt(self, a: [f64; N], b: [f64; N], then: [f64; N], otherwise: [f64; N]) -> [f64; N] {
        std::array::from_fn(|l| if a[l] < b[l] { then[l] } else { otherwise[l] })
    }
    #[inline(always)]
    fn store(self, v: [f64; N]) -> [f64; N] {
        v
    }
    #[inline(always)]
    fn min(self, a: [f64; N], b: [f64; N]) -> [f64; N] {
        std::array::from_fn(|l| if a[l] < b[l] { a[l] } else { b[l] })
    }
    #[inline(always)]
    fn max(self, a: [f64; N], b: [f64; N]) -> [f64; N] {
        std::array::from_fn(|l| if a[l] > b[l] { a[l] } else { b[l] })
    }
    #[inline(always)]
    fn swap_lanes(self, v: [f64; N], distance: usize) -> [f64; N] {
        std::array::from_fn(|l| v[l ^ distance])
    }
    type Mask = [bool; N];
    #[inline(always)]
    fn le(self, a: [f64; N], b: [f64; N]) -> [bool; N] {
        std::array::from_fn(|l| a[l] <= b[l])
    }
    #[inline(always)]
    fn lt(self, a: [f64; N], b: [f64; N]) -> [bool; N] {
        std::array::from_fn(|l| a[l] < b[l])
    }
    #[inline(always)]
    fn count(self, mask: [bool; N]) -> usize {
        mask.iter().filter(|&&kept| kept).count()
    }
    #[inline(always)]
    fn compress(self, v: [f64; N], keep: [bool; N], dst: &mut [f64]) -> usize {
        let dst = &mut dst[..N];
        let mut kept = 0;
        for (&x, &keep) in v.iter().zip(&keep) {
            dst[kept] = x;
            kept += usize::from(keep);
        }
        kept
    }
    type Tally = [u64; N];
    #[inline(always)]
    fn tally_zero(self) -> [u64; N] {
        [0; N]
    }
    #[inline(always)]
    fn tally_le(self, tally: [u64; N], a: [f64; N], b: [f64; N]) -> [u64; N] {
        std::array::from_fn(|l| tally[l] + u64::from(a[l] <= b[l]))
    }
    #[inline(always)]
    fn tally_sum(self, tally: [u64; N]) -> u64 {
        tally.iter().fold(0, |sum, &count| sum.wrapping_add(count))
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx2 {
    const WIDTH: usize = 4;
    type Vector = __m256d;
    type Array = [f64; 4];
    #[inline(always)]
    fn splat(self, x: f64) -> __m256d {
        // SAFETY: `self` is the `Avx2` token.
        unsafe { _mm256_set1_pd(x) }
    }
    #[inline(always)]
    fn load(self, src: &[f64; 4]) -> __m256d {
        // SAFETY: `self` is the `Avx2` token; the load reads exactly the
        // four `f64` of `src`.
        unsafe { _mm256_loadu_pd(src.as_ptr()) }
    }
    #[inline(always)]
    fn add(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: `self` is the `Avx2` token.
        unsafe { _mm256_add_pd(a, b) }
    }
    #[inline(always)]
    fn sub(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: `self` is the `Avx2` token.
        unsafe { _mm256_sub_pd(a, b) }
    }
    #[inline(always)]
    fn mul(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: `self` is the `Avx2` token.
        unsafe { _mm256_mul_pd(a, b) }
    }
    #[inline(always)]
    fn div(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: `self` is the `Avx2` token.
        unsafe { _mm256_div_pd(a, b) }
    }
    #[inline(always)]
    fn zeroed_where_zero(self, v: __m256d, gate: __m256d) -> __m256d {
        // NEQ_UQ is all-ones for `gate != 0.0` *or unordered*: the exact
        // complement of the scalar `gate == 0.0`.
        // SAFETY: `self` is the `Avx2` token.
        unsafe { _mm256_and_pd(v, _mm256_cmp_pd::<_CMP_NEQ_UQ>(gate, _mm256_setzero_pd())) }
    }
    #[inline(always)]
    fn select_lt(self, a: __m256d, b: __m256d, then: __m256d, otherwise: __m256d) -> __m256d {
        // LT_OQ: all-ones exactly where the scalar `a < b` is true.
        // SAFETY: `self` is the `Avx2` token.
        unsafe { _mm256_blendv_pd(otherwise, then, _mm256_cmp_pd::<_CMP_LT_OQ>(a, b)) }
    }
    #[inline(always)]
    fn store(self, v: __m256d) -> [f64; 4] {
        let mut out = [0.0f64; 4];
        // SAFETY: `self` is the `Avx2` token; the store writes exactly the
        // four `f64` of `out`.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), v) };
        out
    }
    #[inline(always)]
    fn min(self, a: __m256d, b: __m256d) -> __m256d {
        // `vminpd` is `a < b ? a : b` per lane, NaN and ties to `b`.
        // SAFETY: `self` is the `Avx2` token.
        unsafe { _mm256_min_pd(a, b) }
    }
    #[inline(always)]
    fn max(self, a: __m256d, b: __m256d) -> __m256d {
        // SAFETY: `self` is the `Avx2` token.
        unsafe { _mm256_max_pd(a, b) }
    }
    #[inline(always)]
    fn swap_lanes(self, v: __m256d, distance: usize) -> __m256d {
        // SAFETY: `self` is the `Avx2` token.
        unsafe {
            match distance {
                1 => _mm256_permute_pd::<0b0101>(v),
                2 => _mm256_permute2f128_pd::<0x01>(v, v),
                _ => panic!("lane distance {distance} on four lanes"),
            }
        }
    }
    /// The lanes' sign bits, lane `l` in bit `l`.
    type Mask = usize;
    #[inline(always)]
    fn le(self, a: __m256d, b: __m256d) -> usize {
        // SAFETY: `self` is the `Avx2` token.
        unsafe { _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LE_OQ>(a, b)) as usize }
    }
    #[inline(always)]
    fn lt(self, a: __m256d, b: __m256d) -> usize {
        // SAFETY: `self` is the `Avx2` token.
        unsafe { _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(a, b)) as usize }
    }
    #[inline(always)]
    fn count(self, mask: usize) -> usize {
        usize::from(LANES_SET[mask & 15])
    }
    #[inline(always)]
    fn compress(self, v: __m256d, keep: usize, dst: &mut [f64]) -> usize {
        let dst = &mut dst[..4];
        let gather = &COMPRESS_YMM[keep & 15];
        // SAFETY: `self` is the `Avx2` token; the index load reads exactly
        // the eight `i32` of `gather`, the store writes exactly the four
        // `f64` of `dst`.
        unsafe {
            let order = _mm256_loadu_si256(gather.as_ptr().cast());
            let packed = _mm256_permutevar8x32_ps(_mm256_castpd_ps(v), order);
            _mm256_storeu_pd(dst.as_mut_ptr(), _mm256_castps_pd(packed));
        }
        self.count(keep)
    }
    type Tally = __m256i;
    #[inline(always)]
    fn tally_zero(self) -> __m256i {
        // SAFETY: `self` is the `Avx2` token.
        unsafe { _mm256_setzero_si256() }
    }
    #[inline(always)]
    fn tally_le(self, tally: __m256i, a: __m256d, b: __m256d) -> __m256i {
        // A lane the compare holds is all ones, −1 as an integer.
        // SAFETY: `self` is the `Avx2` token.
        unsafe {
            _mm256_sub_epi64(
                tally,
                _mm256_castpd_si256(_mm256_cmp_pd::<_CMP_LE_OQ>(a, b)),
            )
        }
    }
    #[inline(always)]
    fn tally_sum(self, tally: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        // SAFETY: `self` is the `Avx2` token; the store writes exactly the
        // four `u64` of `lanes`.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), tally) };
        lanes.iter().fold(0, |sum, &count| sum.wrapping_add(count))
    }
}

#[cfg(target_arch = "x86_64")]
impl Lanes for Avx512 {
    const WIDTH: usize = 8;
    type Vector = __m512d;
    type Array = [f64; 8];
    #[inline(always)]
    fn splat(self, x: f64) -> __m512d {
        // SAFETY: `self` is the `Avx512` token.
        unsafe { _mm512_set1_pd(x) }
    }
    #[inline(always)]
    fn load(self, src: &[f64; 8]) -> __m512d {
        // SAFETY: `self` is the `Avx512` token; the load reads exactly the
        // eight `f64` of `src`.
        unsafe { _mm512_loadu_pd(src.as_ptr()) }
    }
    #[inline(always)]
    fn add(self, a: __m512d, b: __m512d) -> __m512d {
        // SAFETY: `self` is the `Avx512` token.
        unsafe { _mm512_add_pd(a, b) }
    }
    #[inline(always)]
    fn sub(self, a: __m512d, b: __m512d) -> __m512d {
        // SAFETY: `self` is the `Avx512` token.
        unsafe { _mm512_sub_pd(a, b) }
    }
    #[inline(always)]
    fn mul(self, a: __m512d, b: __m512d) -> __m512d {
        // SAFETY: `self` is the `Avx512` token.
        unsafe { _mm512_mul_pd(a, b) }
    }
    #[inline(always)]
    fn div(self, a: __m512d, b: __m512d) -> __m512d {
        // SAFETY: `self` is the `Avx512` token.
        unsafe { _mm512_div_pd(a, b) }
    }
    #[inline(always)]
    fn zeroed_where_zero(self, v: __m512d, gate: __m512d) -> __m512d {
        // As on `ymm`, with the comparison in a mask register (a 512-bit
        // `and_pd` would need AVX-512DQ).
        // SAFETY: `self` is the `Avx512` token.
        unsafe {
            let keep = _mm512_cmp_pd_mask::<_CMP_NEQ_UQ>(gate, _mm512_setzero_pd());
            _mm512_maskz_mov_pd(keep, v)
        }
    }
    #[inline(always)]
    fn select_lt(self, a: __m512d, b: __m512d, then: __m512d, otherwise: __m512d) -> __m512d {
        // As on `ymm`, with the comparison in a mask register.
        // SAFETY: `self` is the `Avx512` token.
        unsafe { _mm512_mask_blend_pd(_mm512_cmp_pd_mask::<_CMP_LT_OQ>(a, b), otherwise, then) }
    }
    #[inline(always)]
    fn store(self, v: __m512d) -> [f64; 8] {
        let mut out = [0.0f64; 8];
        // SAFETY: `self` is the `Avx512` token; the store writes exactly
        // the eight `f64` of `out`.
        unsafe { _mm512_storeu_pd(out.as_mut_ptr(), v) };
        out
    }
    #[inline(always)]
    fn min(self, a: __m512d, b: __m512d) -> __m512d {
        // As on `ymm`.
        // SAFETY: `self` is the `Avx512` token.
        unsafe { _mm512_min_pd(a, b) }
    }
    #[inline(always)]
    fn max(self, a: __m512d, b: __m512d) -> __m512d {
        // SAFETY: `self` is the `Avx512` token.
        unsafe { _mm512_max_pd(a, b) }
    }
    #[inline(always)]
    fn swap_lanes(self, v: __m512d, distance: usize) -> __m512d {
        // SAFETY: `self` is the `Avx512` token.
        unsafe {
            match distance {
                1 => _mm512_permute_pd::<0b0101_0101>(v),
                2 => _mm512_permutex_pd::<0b0100_1110>(v),
                4 => _mm512_shuffle_f64x2::<0b0100_1110>(v, v),
                _ => panic!("lane distance {distance} on eight lanes"),
            }
        }
    }
    type Mask = __mmask8;
    #[inline(always)]
    fn le(self, a: __m512d, b: __m512d) -> __mmask8 {
        // SAFETY: `self` is the `Avx512` token.
        unsafe { _mm512_cmp_pd_mask::<_CMP_LE_OQ>(a, b) }
    }
    #[inline(always)]
    fn lt(self, a: __m512d, b: __m512d) -> __mmask8 {
        // SAFETY: `self` is the `Avx512` token.
        unsafe { _mm512_cmp_pd_mask::<_CMP_LT_OQ>(a, b) }
    }
    #[inline(always)]
    fn count(self, mask: __mmask8) -> usize {
        usize::from(LANES_SET[usize::from(mask)])
    }
    #[inline(always)]
    fn compress(self, v: __m512d, keep: __mmask8, dst: &mut [f64]) -> usize {
        let dst = &mut dst[..8];
        // Compressed in a register and stored whole: a masked compressing
        // store to memory is microcoded on most AVX-512 cores.
        // SAFETY: `self` is the `Avx512` token; the store writes exactly
        // the eight `f64` of `dst`.
        unsafe { _mm512_storeu_pd(dst.as_mut_ptr(), _mm512_maskz_compress_pd(keep, v)) };
        self.count(keep)
    }
    type Tally = __m512i;
    #[inline(always)]
    fn tally_zero(self) -> __m512i {
        // SAFETY: `self` is the `Avx512` token.
        unsafe { _mm512_setzero_si512() }
    }
    #[inline(always)]
    fn tally_le(self, tally: __m512i, a: __m512d, b: __m512d) -> __m512i {
        // An add under the compare's mask register.
        // SAFETY: `self` is the `Avx512` token.
        unsafe {
            let le = _mm512_cmp_pd_mask::<_CMP_LE_OQ>(a, b);
            _mm512_mask_add_epi64(tally, le, tally, _mm512_set1_epi64(1))
        }
    }
    #[inline(always)]
    fn tally_sum(self, tally: __m512i) -> u64 {
        // SAFETY: `self` is the `Avx512` token.
        unsafe { _mm512_reduce_add_epi64(tally) as u64 }
    }
}

/// What the block kernel adds to [`Lanes`]: one accumulator vector holds
/// the four-lane partial sums of `WIDTH / 4` pairs that share a query
/// row, side by side — one pair per `__m256d`, two per `__m512d`. A
/// pair's four lanes see the same products in the same order whichever
/// vector holds them. Every load is 32 bytes wide at either width.
#[cfg(target_arch = "x86_64")]
trait PairLanes: Lanes {
    /// The query row's chunk, once per pair.
    fn query(self, chunk: &[f64; 4]) -> Self::Vector;
    /// Candidate row `p`'s chunk, `chunk_of(p)`, in pair `p`'s lanes.
    fn candidates<'a>(self, chunk_of: impl Fn(usize) -> &'a [f64; 4]) -> Self::Vector;
    /// Pair `p`'s four lanes into `lanes[p]`.
    fn store_pairs(self, v: Self::Vector, lanes: &mut [[f64; 4]]);
}

#[cfg(target_arch = "x86_64")]
impl PairLanes for Avx2 {
    #[inline(always)]
    fn query(self, chunk: &[f64; 4]) -> __m256d {
        self.load(chunk)
    }
    #[inline(always)]
    fn candidates<'a>(self, chunk_of: impl Fn(usize) -> &'a [f64; 4]) -> __m256d {
        self.load(chunk_of(0))
    }
    #[inline(always)]
    fn store_pairs(self, v: __m256d, lanes: &mut [[f64; 4]]) {
        lanes[0] = self.store(v);
    }
}

#[cfg(target_arch = "x86_64")]
impl PairLanes for Avx512 {
    #[inline(always)]
    fn query(self, chunk: &[f64; 4]) -> __m512d {
        // Both pairs of a vector share the query row: a broadcast from
        // memory, which the load ports do alone.
        // SAFETY: `self` is the `Avx512` token (AVX-512F implies the AVX
        // of the load); the load reads exactly the four `f64` of `chunk`.
        unsafe { _mm512_broadcast_f64x4(_mm256_loadu_pd(chunk.as_ptr())) }
    }
    #[inline(always)]
    fn candidates<'a>(self, chunk_of: impl Fn(usize) -> &'a [f64; 4]) -> __m512d {
        // SAFETY: as in `query`, for the two chunks read.
        unsafe {
            let low = _mm256_loadu_pd(chunk_of(0).as_ptr());
            let high = _mm256_loadu_pd(chunk_of(1).as_ptr());
            _mm512_insertf64x4::<1>(_mm512_castpd256_pd512(low), high)
        }
    }
    #[inline(always)]
    fn store_pairs(self, v: __m512d, lanes: &mut [[f64; 4]]) {
        let both = self.store(v);
        lanes[0].copy_from_slice(&both[..4]);
        lanes[1].copy_from_slice(&both[4..]);
    }
}

/// Query rows of the one [`dot_block`] shape that runs on `zmm` under
/// [`SimdTier::Avx512`] — the register block the pair sweep walks there.
pub const WIDE_ROWS: usize = 8;
/// Candidate rows of that shape: 8 × 4 is sixteen accumulator vectors,
/// two candidate vectors and one query vector of the 32 `zmm`, and two
/// inserts per 32 multiplies and adds. The insert is an ALU µop on the
/// two 512-bit ports the arithmetic needs, so a block must be this large
/// to amortise it: 4 × 2 in four `zmm` measured no faster than 4 × 2 in
/// eight `ymm` (DESIGN.md §14 has the table).
pub const WIDE_COLS: usize = 4;

/// Whether [`dot_block`] runs a `rows × cols` block on `zmm` (given the AVX-512 token).
fn runs_wide(rows: usize, cols: usize) -> bool {
    (rows, cols) == (WIDE_ROWS, WIDE_COLS)
}

/// The rows of one [`dot_block`], in a module of their own so that only
/// the length check in [`BlockRows::new`] can make them.
mod block_rows {
    /// `R` query and `C` candidate rows that all hold `len` elements.
    pub(super) struct BlockRows<'a, const R: usize, const C: usize> {
        queries: [&'a [f64]; R],
        candidates: [&'a [f64]; C],
        len: usize,
    }

    impl<'a, const R: usize, const C: usize> BlockRows<'a, R, C> {
        /// Panics unless all `R + C` rows share one length.
        #[inline]
        pub(super) fn new(queries: [&'a [f64]; R], candidates: [&'a [f64]; C]) -> Self {
            let len = queries
                .first()
                .or(candidates.first())
                .map_or(0, |row| row.len());
            assert!(
                queries.iter().chain(&candidates).all(|r| r.len() == len),
                "dot block requires equal lengths"
            );
            BlockRows {
                queries,
                candidates,
                len,
            }
        }

        /// The first `R2` queries and `C2` candidates (`R2 <= R`, `C2 <= C`).
        #[cfg(target_arch = "x86_64")]
        #[inline]
        pub(super) fn take<const R2: usize, const C2: usize>(self) -> BlockRows<'a, R2, C2> {
            BlockRows {
                queries: std::array::from_fn(|r| self.queries[r]),
                candidates: std::array::from_fn(|c| self.candidates[c]),
                len: self.len,
            }
        }

        /// The queries, the candidates, and the length every one holds.
        #[inline(always)]
        pub(super) fn parts(self) -> ([&'a [f64]; R], [&'a [f64]; C], usize) {
            (self.queries, self.candidates, self.len)
        }
    }
}

use block_rows::BlockRows;

/// `R × C` dot products at once — `out[r][c]` is bit-identical to
/// `dot(queries[r], candidates[c])` — the register-blocked form the
/// similarity sweep runs on. A single [`dot`](crate::dot) is one chain
/// of dependent vector adds (2190 for a year-long row), so it runs at
/// one add *latency* per step however many ports are free; a block
/// keeps `R · C` independent chains in flight and loads each of its
/// `R + C` row vectors once per step instead of twice per pair.
///
/// Bit-identity is the lane argument applied per pair:
/// every pair owns four accumulator lanes, lane *j* of them is added the
/// products of elements `4k + j` in increasing `k` with a separate
/// multiply and add (no FMA), and each pair finishes with the scalar
/// tree `((l0+l1)+(l2+l3)) + tail`. Under AVX2 a pair's four lanes are
/// one `ymm`; under AVX-512 the [`WIDE_ROWS`] × [`WIDE_COLS`] block
/// keeps two pairs' lanes in the two halves of one `zmm` (every other
/// shape stays on `ymm`: it has nothing to amortise the insert over).
/// Which register a lane lives in changes nothing it computes. The
/// scalar tier is [`dot_scalar`] per pair.
///
/// # Panics
/// Panics unless all `R + C` rows share one length.
#[inline]
pub fn dot_block<const R: usize, const C: usize>(
    queries: [&[f64]; R],
    candidates: [&[f64]; C],
) -> [[f64; C]; R] {
    let rows = BlockRows::new(queries, candidates);
    #[cfg(target_arch = "x86_64")]
    match active_tokens() {
        (_, Some(avx512)) if runs_wide(R, C) => {
            // SAFETY: the token proves AVX-512F; `take` re-types R × C.
            let wide = unsafe { dot_block_avx512(avx512, rows.take()) };
            return std::array::from_fn(|r| std::array::from_fn(|c| wide[r][c]));
        }
        // SAFETY: the token proves AVX2.
        (Some(avx2), _) => return unsafe { dot_block_avx2(avx2, rows) },
        _ => {}
    }
    let (queries, candidates, _) = rows.parts();
    queries.map(|q| candidates.map(|c| dot_scalar(q, c)))
}

/// The block kernel on `ymm`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot_block_avx2<const R: usize, const C: usize>(
    avx2: Avx2,
    rows: BlockRows<R, C>,
) -> [[f64; C]; R] {
    dot_block_lanes::<Avx2, R, C, C>(avx2, rows)
}

/// The block kernel on `zmm`, at its one shape.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn dot_block_avx512(
    avx512: Avx512,
    rows: BlockRows<WIDE_ROWS, WIDE_COLS>,
) -> [[f64; WIDE_COLS]; WIDE_ROWS] {
    const VECTORS: usize = WIDE_COLS / 2;
    dot_block_lanes::<Avx512, WIDE_ROWS, WIDE_COLS, VECTORS>(avx512, rows)
}

/// The block kernel's one loop nest: `R` query rows against `C`
/// candidate rows held as `P = C / (L::WIDTH / 4)` vectors per query
/// row. (`P` is its own parameter because stable Rust cannot spell that
/// in an array length.)
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn dot_block_lanes<L: PairLanes, const R: usize, const C: usize, const P: usize>(
    simd: L,
    rows: BlockRows<R, C>,
) -> [[f64; C]; R] {
    let pairs = L::WIDTH / 4;
    const {
        assert!(
            P * (L::WIDTH / 4) == C,
            "P vectors of WIDTH / 4 pairs cover C candidates"
        )
    };
    let (queries, candidates, len) = rows.parts();
    // SAFETY: `BlockRows` proves that every row holds `len` elements, and
    // the loop below asks only for elements `4 * k..4 * k + 4 <= len`.
    let chunk = |row: &[f64], k: usize| unsafe { &*row.as_ptr().add(4 * k).cast::<[f64; 4]>() };
    let chunks = len / 4;
    let mut acc = [[simd.zero(); P]; R];
    for k in 0..chunks {
        let mut vc = [simd.zero(); P];
        for (v, rows) in vc.iter_mut().zip(candidates.chunks_exact(pairs)) {
            *v = simd.candidates(|p| chunk(rows[p], k));
        }
        for (pairs, row) in acc.iter_mut().zip(&queries) {
            let vq = simd.query(chunk(row, k));
            for (pair, v) in pairs.iter_mut().zip(&vc) {
                // mul then add, NOT fma: the scalar reference rounds the
                // product before the sum, and bit-exactness requires the
                // same here. One set of four lanes per pair: each pair
                // replays `dot_scalar`'s operations exactly.
                *pair = simd.add(*pair, simd.mul(vq, *v));
            }
        }
    }
    let done = chunks * 4;
    let mut out = [[0.0f64; C]; R];
    for ((scores, vectors), q) in out.iter_mut().zip(&acc).zip(&queries) {
        let mut lanes = [[0.0f64; 4]; C];
        for (v, pair_lanes) in vectors.iter().zip(lanes.chunks_exact_mut(pairs)) {
            simd.store_pairs(*v, pair_lanes);
        }
        for ((score, l), c) in scores.iter_mut().zip(&lanes).zip(&candidates) {
            let mut tail = 0.0;
            for (x, y) in q[done..].iter().zip(&c[done..]) {
                tail += x * y;
            }
            *score = ((l[0] + l[1]) + (l[2] + l[3])) + tail;
        }
    }
    out
}

/// `acc[j] += a * x[j]` for every `j` — the gram/`Xᵀy` update of
/// [`NormalEq`](crate::NormalEq). Dispatched, and bit-identical at every
/// tier because each `acc[j]` is an independent accumulator: vector
/// lanes neither reorder nor combine anything.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn axpy(acc: &mut [f64], a: f64, x: &[f64]) {
    assert_eq!(acc.len(), x.len(), "axpy requires equal lengths");
    #[cfg(target_arch = "x86_64")]
    if let (Some(avx2), _) = active_tokens() {
        // SAFETY: the token proves AVX2.
        unsafe { axpy_avx2_impl(avx2, acc, a, x) };
        return;
    }
    axpy_scalar(acc, a, x);
}

/// The scalar reference for [`axpy`].
pub fn axpy_scalar(acc: &mut [f64], a: f64, x: &[f64]) {
    assert_eq!(acc.len(), x.len(), "axpy requires equal lengths");
    for (dst, &v) in acc.iter_mut().zip(x) {
        *dst += a * v;
    }
}

/// [`axpy`] on `ymm`, four accumulators a step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn axpy_avx2_impl(avx2: Avx2, acc: &mut [f64], a: f64, x: &[f64]) {
    let va = avx2.splat(a);
    let (x_chunks, _) = x.as_chunks::<4>();
    for (dst, src) in acc.as_chunks_mut::<4>().0.iter_mut().zip(x_chunks) {
        *dst = avx2.store(avx2.add(avx2.load(dst), avx2.mul(va, avx2.load(src))));
    }
    for j in x_chunks.len() * 4..x.len() {
        acc[j] += a * x[j];
    }
}

/// Autoregressive lags of the hourly lane kernel ([`lagged_moments`]):
/// each hour's design is `[1, y[d−1], y[d−2], y[d−3], x[d]]`.
pub const LANE_LAGS: usize = 3;

/// Columns of that design.
pub const LANE_COLS: usize = LANE_LAGS + 2;

/// Entries in the upper triangle of its `LANE_COLS × LANE_COLS` gram.
const LANE_TRI: usize = LANE_COLS * (LANE_COLS + 1) / 2;

/// Normal-equation sums of the 24 hours' lagged regressions, one lane per
/// hour of day (see [`lagged_moments`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneMoments {
    /// Upper triangle of `XᵀX`, row-major: `(0,0), (0,1), … (4,4)`.
    pub gram: [[f64; HOURS_PER_DAY]; LANE_TRI],
    /// `Xᵀy`.
    pub xty: [[f64; HOURS_PER_DAY]; LANE_COLS],
    /// `Σ y` over the fitted days, folded as `Iterator::sum` folds.
    pub sum_y: [f64; HOURS_PER_DAY],
    /// `Σ x` over the fitted days, folded the same way.
    pub sum_x: [f64; HOURS_PER_DAY],
}

/// Accumulate, for every hour of day side by side, the moments of the
/// per-hour regression of `y[d]` on `[1, y[d−1], y[d−2], y[d−3], x[d]]`
/// over days `LANE_LAGS..days` of two day-major series (24 values per
/// day).
///
/// In that layout the hours of a day are adjacent, so for a block of
/// `WIDTH` hours every design column and the response are one unaligned
/// load, and the 22 sums of an hour live in one lane of 22 accumulator
/// vectors: eight hours to a `zmm` on the AVX-512 tier (three blocks
/// cover the day, and the 22 accumulators stay in the 32 registers),
/// four to a `ymm` on AVX2 (six blocks). Lane *h* is bit-identical to
/// what [`Matrix::gram`](crate::Matrix::gram),
/// [`Matrix::t_vec`](crate::Matrix::t_vec) and `Iterator::sum` produce
/// for hour *h* alone, whatever the width:
///
/// * each accumulator is fed one addend per day in ascending day order —
///   the reference's row order — with the product rounded before the add
///   (separate multiply and add, never an FMA);
/// * `Matrix::gram` skips a row's column *i* when `row[i] == 0.0`. Here
///   the skipped product is masked to `+0.0` and added. An accumulator
///   that starts at `+0.0` is never `−0.0` (round-to-nearest yields
///   `−0.0` only from `−0.0 + −0.0`), and `s + (+0.0)` is `s` bit for bit
///   for every other `s`, NaN included — so adding the masked product is
///   the skip. The mask, not the bare product, is what keeps a zero
///   reading beside an infinite one from turning `0 · ∞` into a NaN the
///   reference never formed;
/// * the two plain sums start from the value `Iterator::sum` starts from,
///   taken from std itself rather than assumed.
///
/// # Panics
/// Panics unless both series hold `days` whole days.
pub fn lagged_moments(y: &[f64], x: &[f64], days: usize) -> LaneMoments {
    let (y, x) = (whole_days(y, days), whole_days(x, days));
    match widest_lanes() {
        Widest::Portable(portable) => lagged_moments_lanes(portable, y, x),
        // SAFETY: the token proves AVX2.
        #[cfg(target_arch = "x86_64")]
        Widest::Avx2(avx2) => unsafe { lagged_moments_avx2(avx2, y, x) },
        // SAFETY: the token proves AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Widest::Avx512(avx512) => unsafe { lagged_moments_avx512(avx512, y, x) },
    }
}

/// The first `days` days of a day-major series.
fn whole_days(series: &[f64], days: usize) -> &[[f64; HOURS_PER_DAY]] {
    let (whole, _) = series.as_chunks::<HOURS_PER_DAY>();
    assert!(whole.len() >= days, "series shorter than {days} days");
    &whole[..days]
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lagged_moments_avx2(
    avx2: Avx2,
    y: &[[f64; HOURS_PER_DAY]],
    x: &[[f64; HOURS_PER_DAY]],
) -> LaneMoments {
    lagged_moments_lanes(avx2, y, x)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lagged_moments_avx512(
    avx512: Avx512,
    y: &[[f64; HOURS_PER_DAY]],
    x: &[[f64; HOURS_PER_DAY]],
) -> LaneMoments {
    lagged_moments_lanes(avx512, y, x)
}

/// Hours `block · W .. (block + 1) · W` of one day: a lane block.
#[inline(always)]
fn hours<const W: usize>(day: &[f64; HOURS_PER_DAY], block: usize) -> &[f64; W] {
    &day.as_chunks::<W>().0[block]
}

/// Each day's lane block of the response and its design columns, in day
/// order from day `LANE_LAGS`: `(y[d], [1, y[d−1], y[d−2], y[d−3], x[d]])`.
/// Yesterday's response is today's first lag, so a day loads two vectors
/// and shifts the lag window.
#[inline(always)]
fn for_each_row<L: Lanes<Array = [f64; W]>, const W: usize>(
    simd: L,
    y: &[[f64; HOURS_PER_DAY]],
    x: &[[f64; HOURS_PER_DAY]],
    block: usize,
    mut row: impl FnMut(L::Vector, [L::Vector; LANE_COLS]),
) {
    if y.len() <= LANE_LAGS {
        return;
    }
    let mut lags: [L::Vector; LANE_LAGS] =
        std::array::from_fn(|lag| simd.load(hours(&y[LANE_LAGS - 1 - lag], block)));
    for (y_day, x_day) in y[LANE_LAGS..].iter().zip(&x[LANE_LAGS..]) {
        let response = simd.load(hours(y_day, block));
        let exogenous = simd.load(hours(x_day, block));
        row(
            response,
            [simd.splat(1.0), lags[0], lags[1], lags[2], exogenous],
        );
        lags = [response, lags[0], lags[1]];
    }
}

#[inline(always)]
fn lagged_moments_lanes<L: Lanes<Array = [f64; W]>, const W: usize>(
    simd: L,
    y: &[[f64; HOURS_PER_DAY]],
    x: &[[f64; HOURS_PER_DAY]],
) -> LaneMoments {
    const { assert!(HOURS_PER_DAY.is_multiple_of(W), "lane blocks tile the day") };
    note_body::<L>("moments");
    let sum_start: f64 = std::iter::empty::<f64>().sum();
    let mut out = LaneMoments {
        gram: [[0.0; HOURS_PER_DAY]; LANE_TRI],
        xty: [[0.0; HOURS_PER_DAY]; LANE_COLS],
        sum_y: [0.0; HOURS_PER_DAY],
        sum_x: [0.0; HOURS_PER_DAY],
    };
    for block in 0..HOURS_PER_DAY / W {
        let mut gram = [simd.zero(); LANE_TRI];
        let mut xty = [simd.zero(); LANE_COLS];
        let mut sum_y = simd.splat(sum_start);
        let mut sum_x = simd.splat(sum_start);
        for_each_row(simd, y, x, block, |response, cols| {
            let mut entry = 0;
            for i in 0..LANE_COLS {
                for j in i..LANE_COLS {
                    let mut product = simd.mul(cols[i], cols[j]);
                    // Column 0 is the constant 1: never zero, never masked.
                    if i > 0 {
                        product = simd.zeroed_where_zero(product, cols[i]);
                    }
                    gram[entry] = simd.add(gram[entry], product);
                    entry += 1;
                }
            }
            for (acc, col) in xty.iter_mut().zip(cols) {
                *acc = simd.add(*acc, simd.mul(response, col));
            }
            sum_y = simd.add(sum_y, response);
            sum_x = simd.add(sum_x, cols[LANE_COLS - 1]);
        });
        let store = |lanes: &mut [f64; HOURS_PER_DAY], v: L::Vector| {
            lanes.as_chunks_mut::<W>().0[block] = simd.store(v);
        };
        for (lanes, v) in out.gram.iter_mut().zip(gram) {
            store(lanes, v);
        }
        for (lanes, v) in out.xty.iter_mut().zip(xty) {
            store(lanes, v);
        }
        store(&mut out.sum_y, sum_y);
        store(&mut out.sum_x, sum_x);
    }
    out
}

/// Residual and total sums of squares of the 24 hours' fitted lagged
/// regressions — the second pass of [`ols_multiple`](crate::ols_multiple),
/// one lane per hour of day, at the width [`lagged_moments`] runs: per day
/// the prediction is `Iterator::sum` over `row[i] · beta[i]` left to right
/// from std's own start value, then `sse += e·e` and `syy += d·d` from
/// `0.0`, each product rounded before its add. `beta[i]` holds
/// coefficient *i* of every hour, `mean_y` their response means. Returns
/// `(sse, syy)`.
///
/// # Panics
/// As [`lagged_moments`].
pub fn lagged_residuals(
    y: &[f64],
    x: &[f64],
    days: usize,
    beta: &[[f64; HOURS_PER_DAY]; LANE_COLS],
    mean_y: &[f64; HOURS_PER_DAY],
) -> ([f64; HOURS_PER_DAY], [f64; HOURS_PER_DAY]) {
    let (y, x) = (whole_days(y, days), whole_days(x, days));
    match widest_lanes() {
        Widest::Portable(portable) => lagged_residuals_lanes(portable, y, x, beta, mean_y),
        // SAFETY: the token proves AVX2.
        #[cfg(target_arch = "x86_64")]
        Widest::Avx2(avx2) => unsafe { lagged_residuals_avx2(avx2, y, x, beta, mean_y) },
        // SAFETY: the token proves AVX-512F.
        #[cfg(target_arch = "x86_64")]
        Widest::Avx512(avx512) => unsafe { lagged_residuals_avx512(avx512, y, x, beta, mean_y) },
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lagged_residuals_avx2(
    avx2: Avx2,
    y: &[[f64; HOURS_PER_DAY]],
    x: &[[f64; HOURS_PER_DAY]],
    beta: &[[f64; HOURS_PER_DAY]; LANE_COLS],
    mean_y: &[f64; HOURS_PER_DAY],
) -> ([f64; HOURS_PER_DAY], [f64; HOURS_PER_DAY]) {
    lagged_residuals_lanes(avx2, y, x, beta, mean_y)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lagged_residuals_avx512(
    avx512: Avx512,
    y: &[[f64; HOURS_PER_DAY]],
    x: &[[f64; HOURS_PER_DAY]],
    beta: &[[f64; HOURS_PER_DAY]; LANE_COLS],
    mean_y: &[f64; HOURS_PER_DAY],
) -> ([f64; HOURS_PER_DAY], [f64; HOURS_PER_DAY]) {
    lagged_residuals_lanes(avx512, y, x, beta, mean_y)
}

#[inline(always)]
fn lagged_residuals_lanes<L: Lanes<Array = [f64; W]>, const W: usize>(
    simd: L,
    y: &[[f64; HOURS_PER_DAY]],
    x: &[[f64; HOURS_PER_DAY]],
    beta: &[[f64; HOURS_PER_DAY]; LANE_COLS],
    mean_y: &[f64; HOURS_PER_DAY],
) -> ([f64; HOURS_PER_DAY], [f64; HOURS_PER_DAY]) {
    const { assert!(HOURS_PER_DAY.is_multiple_of(W), "lane blocks tile the day") };
    note_body::<L>("residuals");
    let sum_start: f64 = std::iter::empty::<f64>().sum();
    let (mut sse_out, mut syy_out) = ([0.0; HOURS_PER_DAY], [0.0; HOURS_PER_DAY]);
    for block in 0..HOURS_PER_DAY / W {
        let beta: [L::Vector; LANE_COLS] =
            std::array::from_fn(|i| simd.load(hours(&beta[i], block)));
        let mean_y = simd.load(hours(mean_y, block));
        let mut sse = simd.zero();
        let mut syy = simd.zero();
        for_each_row(simd, y, x, block, |response, cols| {
            let mut predicted = simd.splat(sum_start);
            for (col, b) in cols.into_iter().zip(beta) {
                predicted = simd.add(predicted, simd.mul(col, b));
            }
            let error = simd.sub(response, predicted);
            sse = simd.add(sse, simd.mul(error, error));
            let centred = simd.sub(response, mean_y);
            syy = simd.add(syy, simd.mul(centred, centred));
        });
        sse_out.as_chunks_mut::<W>().0[block] = simd.store(sse);
        syy_out.as_chunks_mut::<W>().0[block] = simd.store(syy);
    }
    (sse_out, syy_out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 2000) as f64 / 500.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn avx2_dot_is_bit_identical_to_scalar() {
        under_every_tier(|tier| {
            for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 63, 64, 8760] {
                let a = series(len, 3 + len as u64);
                let b = series(len, 11 + len as u64);
                assert_eq!(
                    crate::dot(&a, &b).to_bits(),
                    dot_scalar(&a, &b).to_bits(),
                    "{tier:?} dot diverged at len={len}"
                );
            }
        });
    }

    #[test]
    fn axpy_paths_are_bit_identical() {
        under_every_tier(|tier| {
            for len in [0usize, 1, 3, 4, 6, 9, 33] {
                let x = series(len, 5);
                let mut scalar = series(len, 9);
                let mut dispatched = scalar.clone();
                axpy_scalar(&mut scalar, 1.75, &x);
                axpy(&mut dispatched, 1.75, &x);
                for (a, b) in scalar.iter().zip(&dispatched) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{tier:?} axpy, len={len}");
                }
            }
        });
    }

    /// `dot_block::<R, C>` over the first `R + C` of `rows` against
    /// `dot_scalar`, pair by pair.
    fn assert_block_matches_scalar<const R: usize, const C: usize>(rows: &[Vec<f64>], why: &str) {
        let queries: [&[f64]; R] = std::array::from_fn(|r| &rows[r][..]);
        let candidates: [&[f64]; C] = std::array::from_fn(|c| &rows[R + c][..]);
        let got = dot_block(queries, candidates);
        for (r, q) in queries.iter().enumerate() {
            for (c, cand) in candidates.iter().enumerate() {
                assert_eq!(
                    got[r][c].to_bits(),
                    dot_scalar(q, cand).to_bits(),
                    "{R}x{C} block, pair ({r}, {c}): {why}"
                );
            }
        }
    }

    #[test]
    fn every_block_shape_is_dot_scalar_pair_by_pair_on_every_tier() {
        // Twelve distinct rows (`series` sets its seed's low bit, so the
        // seeds differ above it): a half fed the wrong candidate, halves
        // swapped at the store, or a query chunk that is not the same in
        // both halves each land some pair on another pair's score.
        under_every_tier(|tier| {
            for len in [0usize, 1, 3, 4, 5, 8, 11, 12, 67, 8760] {
                let rows: Vec<Vec<f64>> = (0..12).map(|r| series(len, 40 + 2 * r)).collect();
                let distinct = |r: usize| rows[..r].iter().all(|row| *row != rows[r]);
                assert!(len == 0 || (0..12).all(distinct), "len={len}");
                let why = format!("{tier:?}, len={len}");
                assert_block_matches_scalar::<WIDE_ROWS, WIDE_COLS>(&rows, &why);
                assert_block_matches_scalar::<4, 2>(&rows, &why);
                assert_block_matches_scalar::<1, 4>(&rows, &why);
                assert_block_matches_scalar::<1, 3>(&rows, &why);
                assert_block_matches_scalar::<1, 2>(&rows, &why);
                assert_block_matches_scalar::<1, 1>(&rows, &why);
            }
        });
    }

    #[test]
    fn the_product_is_rounded_before_the_sum_on_every_tier() {
        // (1 + 2⁻²⁷)² = 1 + 2⁻²⁶ + 2⁻⁵⁴ rounds to 1 + 2⁻²⁶, so adding −1
        // leaves exactly 2⁻²⁶; a fused multiply-add keeps the 2⁻⁵⁴. The
        // −1 is its own product, one chunk earlier in the same lane.
        let x = 1.0 + (-27f64).exp2();
        let mut q = vec![0.0; 8];
        let mut c = vec![0.0; 8];
        (q[0], c[0]) = (-1.0, 1.0);
        (q[4], c[4]) = (x, x);
        assert_eq!(dot_scalar(&q, &c), (-26f64).exp2());
        let rows: Vec<Vec<f64>> = (0..12)
            .map(|r| if r < WIDE_ROWS { q.clone() } else { c.clone() })
            .collect();
        under_every_tier(|tier| {
            let why = format!("{tier:?} fused a multiply into an add");
            assert_eq!(crate::dot(&q, &c), (-26f64).exp2(), "{why}");
            assert_block_matches_scalar::<WIDE_ROWS, WIDE_COLS>(&rows, &why);
            assert_block_matches_scalar::<4, 2>(&rows, &why);
            assert_block_matches_scalar::<1, 4>(&rows, &why);
        });
    }

    #[test]
    fn each_kernel_family_runs_the_body_its_tier_names() {
        // The tier is an order. Every kernel but the pair sweep's wide
        // block and the `Widest` kernels runs on the AVX2 token, which each
        // tier from AVX2 up hands out
        // (`a_forced_scalar_tier_hands_out_no_avx2_token`) — an equality
        // there would drop an AVX-512 host to the scalar instantiations —
        // and only the wide shape, only with the AVX-512 token, leaves
        // `ymm`.
        assert!(SimdTier::ALL.windows(2).all(|w| w[0] < w[1]));
        under_every_tier(|tier| assert_eq!(active_tier(), tier));
        assert!(runs_wide(WIDE_ROWS, WIDE_COLS));
        // The 4 × 2 block, the one-row scan and its remainders, the
        // single dot: `ymm` (or scalar) on every tier.
        for (rows, cols) in [(4, 2), (1, 4), (1, 3), (1, 2), (1, 1), (4, 8), (8, 2)] {
            assert!(!runs_wide(rows, cols), "{rows}x{cols}");
        }
        // PAR's two passes, the Histogram's two and 3-line's selection and
        // breakpoint search run the body of the widest vocabulary the tier
        // hands out, at its width: eight lanes on `zmm`, four on `ymm`, the
        // portable eight on the scalar tier.
        let days = 12;
        let (y, x) = crate::testutil::awkward_year(days, 7);
        let beta = [[0.5; HOURS_PER_DAY]; LANE_COLS];
        under_every_tier(|tier| {
            let want = match tier {
                SimdTier::Scalar => (std::any::type_name::<Portable<8>>(), 8),
                #[cfg(target_arch = "x86_64")]
                SimdTier::Avx2 => (std::any::type_name::<Avx2>(), 4),
                #[cfg(target_arch = "x86_64")]
                SimdTier::Avx512 => (std::any::type_name::<Avx512>(), 8),
                #[cfg(not(target_arch = "x86_64"))]
                _ => unreachable!("no vector tier off x86-64"),
            };
            BODIES_RUN.with_borrow_mut(Vec::clear);
            let _ = lagged_moments(&y, &x, days);
            let _ = lagged_residuals(&y, &x, days, &beta, &[1.0; HOURS_PER_DAY]);
            let _ = crate::EquiWidthHistogram::build_with_spec(
                &y,
                crate::HistogramSpec::spanning(&y, 10),
            );
            let _ = crate::RankSelect::default().quantiles(&y[..100], [0.1, 0.9]);
            let mut sums = crate::SegmentSums::default();
            sums.build(&x[..40], &y[..40]);
            let _ = sums.best_split(5);
            let ran = BODIES_RUN.with_borrow_mut(std::mem::take);
            let kernels: Vec<_> = ran.iter().map(|&(kernel, ..)| kernel).collect();
            assert_eq!(
                kernels,
                ["moments", "residuals", "range", "count", "select", "split"],
                "{tier:?}"
            );
            for (kernel, body, width) in ran {
                assert_eq!((body, width), want, "{tier:?} ran {kernel} on another body");
            }
        });
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn a_forced_scalar_tier_hands_out_no_avx2_token() {
        // The tokens follow the tier in force, not the hardware: forced to
        // scalar on an AVX2 host, no kernel can reach a `ymm` frame, and
        // only the AVX-512 tier reaches the `zmm` block.
        under_every_tier(|tier| {
            let (avx2, avx512) = active_tokens();
            assert_eq!(avx2.is_some(), tier >= SimdTier::Avx2, "{tier:?}");
            assert_eq!(avx512.is_some(), tier == SimdTier::Avx512, "{tier:?}");
        });
    }

    /// Every `Lanes` method of `simd` against the portable lanes of its
    /// width, bit for bit, with every pair of edge values meeting in a
    /// lane: `±0`, a subnormal, `±1e308`, `±∞`, NaN and two plain values.
    #[cfg(target_arch = "x86_64")]
    fn assert_lanes_are_portable<L: Lanes<Array = [f64; N]>, const N: usize>(simd: L) {
        use std::hint::black_box;
        let portable = Portable::<N>;
        let edge = [
            -0.0,
            0.0,
            5e-324,
            -1e308,
            1e308,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1.5,
            -2.25,
        ];
        for shift_a in 0..edge.len() {
            for shift_b in 0..edge.len() {
                // Opaque, so that the portable side is computed by the CPU
                // as the vector side is, not folded by the compiler.
                let a: [f64; N] =
                    black_box(std::array::from_fn(|l| edge[(l + shift_a) % edge.len()]));
                let b: [f64; N] =
                    black_box(std::array::from_fn(|l| edge[(l + shift_b) % edge.len()]));
                let (va, vb) = (simd.load(&a), simd.load(&b));
                let cases = [
                    ("zero", simd.store(simd.zero()), [0.0; N]),
                    ("splat", simd.store(simd.splat(a[0])), [a[0]; N]),
                    ("add", simd.store(simd.add(va, vb)), portable.add(a, b)),
                    ("sub", simd.store(simd.sub(va, vb)), portable.sub(a, b)),
                    ("mul", simd.store(simd.mul(va, vb)), portable.mul(a, b)),
                    ("div", simd.store(simd.div(va, vb)), portable.div(a, b)),
                    (
                        "mask",
                        simd.store(simd.zeroed_where_zero(vb, va)),
                        portable.zeroed_where_zero(b, a),
                    ),
                    (
                        "select_lt",
                        simd.store(simd.select_lt(va, vb, va, vb)),
                        portable.select_lt(a, b, a, b),
                    ),
                    (
                        "select_lt, swapped",
                        simd.store(simd.select_lt(vb, va, va, vb)),
                        portable.select_lt(b, a, a, b),
                    ),
                ];
                for (name, got, want) in cases {
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{name} on {N} lanes: {a:?}, {b:?}"
                    );
                }
                let more = [
                    ("min", simd.store(simd.min(va, vb)), portable.min(a, b)),
                    ("max", simd.store(simd.max(va, vb)), portable.max(a, b)),
                ];
                let swaps = (0..)
                    .map(|k| 1 << k)
                    .take_while(|&d| d < N)
                    .map(|distance| {
                        let got = simd.store(simd.swap_lanes(va, distance));
                        ("swap_lanes", got, portable.swap_lanes(a, distance))
                    });
                for (name, got, want) in more.into_iter().chain(swaps) {
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{name} on {N} lanes: {a:?}, {b:?}"
                    );
                }
                let masks = [
                    ("le", simd.le(va, vb), portable.le(a, b)),
                    ("lt", simd.lt(va, vb), portable.lt(a, b)),
                ];
                let tally = simd.tally_le(simd.tally_le(simd.tally_zero(), va, vb), vb, va);
                let want_tally =
                    portable.tally_le(portable.tally_le(portable.tally_zero(), a, b), b, a);
                assert_eq!(
                    simd.tally_sum(simd.tally_le(tally, va, vb)),
                    portable.tally_sum(portable.tally_le(want_tally, a, b)),
                    "tally_le on {N} lanes: {a:?}, {b:?}"
                );
                for (name, mask, want_mask) in masks {
                    let (mut got, mut want) = ([f64::NAN; N], [f64::NAN; N]);
                    let kept = simd.compress(va, mask, &mut got);
                    let want_kept = portable.compress(a, want_mask, &mut want);
                    assert_eq!(
                        (kept, simd.count(mask)),
                        (want_kept, portable.count(want_mask)),
                        "{name} on {N} lanes: {a:?}, {b:?}"
                    );
                    assert_eq!(
                        got[..kept].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want[..kept].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "compress by {name} on {N} lanes: {a:?}, {b:?}"
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn register_lanes_are_the_portable_lanes_bit_for_bit() {
        under_every_tier(|_| {
            let (avx2, avx512) = active_tokens();
            if let Some(avx2) = avx2 {
                assert_lanes_are_portable(avx2);
            }
            if let Some(avx512) = avx512 {
                assert_lanes_are_portable(avx512);
            }
        });
    }

    /// Every lane of every block of `lagged_moments`, under every tier,
    /// against `Matrix::gram`, `Matrix::t_vec` and `Iterator::sum` on that
    /// hour's materialized design.
    fn assert_moments_match_matrix(y: &[f64], x: &[f64], days: usize) {
        under_every_tier(|tier| {
            let got = lagged_moments(y, x, days);
            for hour in 0..HOURS_PER_DAY {
                let (design, response) = crate::testutil::hour_design(y, x, days, hour);
                let (gram, xty) = (design.gram(), design.t_vec(&response));
                let mut entry = 0;
                for (i, (got_xty, want_xty)) in got.xty.iter().zip(&xty).enumerate() {
                    for j in i..LANE_COLS {
                        assert_eq!(
                            got.gram[entry][hour].to_bits(),
                            gram.get(i, j).to_bits(),
                            "{tier:?}, hour {hour} gram({i},{j})"
                        );
                        entry += 1;
                    }
                    assert_eq!(
                        got_xty[hour].to_bits(),
                        want_xty.to_bits(),
                        "{tier:?}, hour {hour} xty[{i}]"
                    );
                }
                let sum_y: f64 = response.iter().sum();
                let sum_x: f64 = (LANE_LAGS..days).map(|d| x[d * HOURS_PER_DAY + hour]).sum();
                assert_eq!(
                    got.sum_y[hour].to_bits(),
                    sum_y.to_bits(),
                    "{tier:?}, hour {hour} Σy"
                );
                assert_eq!(
                    got.sum_x[hour].to_bits(),
                    sum_x.to_bits(),
                    "{tier:?}, hour {hour} Σx"
                );
            }
        });
    }

    #[test]
    fn lane_moments_are_the_matrix_moments_of_each_hour() {
        let (y, x) = crate::testutil::awkward_year(40, 29);
        assert_moments_match_matrix(&y, &x, 40);
        // All `-0.0`: every sum that `Iterator::sum` starts at `-0.0` must
        // end there too, every skipped gram entry at `+0.0`.
        let zeros = vec![-0.0; 12 * HOURS_PER_DAY];
        assert_moments_match_matrix(&zeros, &zeros, 12);
    }

    #[test]
    fn a_zero_reading_beside_an_infinite_one_stays_skipped() {
        // `Matrix::gram` never multiplies a zero column entry; the lane
        // kernel multiplies and masks. Only a non-finite partner tells the
        // two apart: 0 · ∞ is NaN, a skipped product is nothing.
        let days = 12;
        let (mut y, mut x) = crate::testutil::awkward_year(days, 31);
        for hour in 0..HOURS_PER_DAY {
            y[6 * HOURS_PER_DAY + hour] = if hour % 2 == 0 { 0.0 } else { -0.0 };
            // Day 7's design row: lag 1 is the zero, the exogenous column
            // and (for day 8) lag 1 are infinite.
            x[7 * HOURS_PER_DAY + hour] = f64::INFINITY;
            y[7 * HOURS_PER_DAY + hour] = f64::NEG_INFINITY;
        }
        assert_moments_match_matrix(&y, &x, days);
        let got = lagged_moments(&y, &x, days);
        // gram(1,4) = Σ y[d−1]·x[d] met 0 · ∞ on day 7 and must not be NaN
        // for it (entry 8 of the row-major upper triangle).
        assert!(!got.gram[8][0].is_nan(), "masked product leaked a NaN");
    }

    #[test]
    fn lane_kernels_agree_across_tiers_bitwise() {
        // Every body — portable, `ymm`, `zmm`, as many as this machine
        // runs — of PAR's two passes and the Histogram's two, on a year
        // holding ±0, NaN-free edge magnitudes and a rank-deficient hour.
        let days = 40;
        let (y, mut x) = crate::testutil::awkward_year(days, 23);
        x[100] = 5e-324;
        x[101] = -1e308;
        let beta: [[f64; HOURS_PER_DAY]; LANE_COLS] =
            std::array::from_fn(|i| std::array::from_fn(|h| 0.3 * i as f64 - 0.2 * h as f64));
        let mean_y: [f64; HOURS_PER_DAY] = std::array::from_fn(|h| [0.5, -0.0, 2.0, 0.0][h % 4]);
        let spec = crate::HistogramSpec {
            min: 0.1,
            max: 1.7,
            buckets: 7,
        };
        let bits = |values: &[f64]| -> Vec<u64> { values.iter().map(|v| v.to_bits()).collect() };
        let mut per_tier = Vec::new();
        under_every_tier(|tier| {
            let moments = lagged_moments(&y, &x, days);
            let (sse, syy) = lagged_residuals(&y, &x, days, &beta, &mean_y);
            let values = &x[..x.len() - 3];
            let spanned = crate::EquiWidthHistogram::build_with_spec(
                values,
                crate::HistogramSpec::spanning(values, 10),
            );
            let fixed = crate::EquiWidthHistogram::build_with_spec(&y, spec);
            let mut out = bits(moments.gram.as_flattened());
            out.extend(bits(moments.xty.as_flattened()));
            out.extend(bits(&moments.sum_y).into_iter().chain(bits(&moments.sum_x)));
            out.extend(bits(&sse).into_iter().chain(bits(&syy)));
            out.extend(bits(&[spanned.spec.min, spanned.spec.max]));
            out.extend(spanned.counts.into_iter().chain(fixed.counts));
            per_tier.push((tier, out));
        });
        assert_eq!(
            per_tier.len(),
            SimdTier::ALL.iter().filter(|&&t| t <= detect()).count()
        );
        let (_, scalar) = &per_tier[0];
        for (tier, out) in &per_tier[1..] {
            assert!(out == scalar, "the {tier:?} bodies left the portable ones");
        }
    }

    #[test]
    fn forcing_an_unsupported_tier_clamps_to_scalar() {
        // Avx512 → Avx2 → Scalar: a forced tier lands on the widest one
        // the hardware has that is no wider than asked, whatever this
        // machine is.
        let _pinned = pin_lock();
        let restore = active_tier();
        let widest = detect();
        for asked in SimdTier::ALL {
            let _ = force_tier(asked);
            assert_eq!(active_tier(), asked.min(widest), "asked for {asked:?}");
        }
        assert_eq!(force_tier(restore), SimdTier::Avx512.min(widest));
    }
}
