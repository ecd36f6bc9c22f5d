//! Explicit SIMD kernels with runtime dispatch — the vector substrate
//! under [`dot`](crate::dot), the tiled similarity sweep, and the
//! normal-equation gram accumulation.
//!
//! # Two equivalence tiers
//!
//! Float addition is not associative, so "vectorize it" is not a free
//! move: any kernel that changes the order in which partial sums are
//! combined changes the answer's low bits, and the whole workspace's
//! cross-platform story is built on `f64::to_bits` equality. The module
//! therefore splits its kernels into two tiers (DESIGN.md §14):
//!
//! * **Lane-preserving (bit-exact).** [`dot_avx2`], [`dot_block`],
//!   [`axpy`], and [`sumsq4`]'s AVX2 body map the reference kernel's
//!   independent accumulators onto vector lanes one-for-one: lane *j*
//!   sees exactly the additions scalar accumulator *j* saw, in the same
//!   order, and the final reduction reuses the scalar tree
//!   (`((a0+a1)+(a2+a3)) + tail`). No FMA — a fused multiply-add rounds
//!   once where the reference rounds twice. These kernels are
//!   **bit-identical** to their scalar references on every input and are
//!   pinned by proptests and `smda-bench --check kernels,simd`.
//! * **Fused (tolerance-gated).** [`sumsq4`] *as a replacement for* the
//!   canonical single-chain [`sumsq`](crate::similarity::sumsq), and
//!   scaled scoring (score raw rows and fold the two inverse norms into
//!   one post-multiply, `dot · (inv‖a‖ · inv‖b‖)`, instead of the
//!   2 × 8760 per-element divisions of pre-normalizing the matrix) change
//!   summation order or rounding-step count. They run only where a
//!   caller passes a `scaling` vector to the similarity kernels
//!   ([`crate::top_k_tiled_with`], [`crate::top_k_oooc_partial`]) — no
//!   engine does — and are gated by `smda-bench --check simd` against
//!   the scalar reference at relative error ≤ [`FUSED_REL_TOL`].
//!
//! # Dispatch
//!
//! One process-global tier ([`KernelDispatch`] snapshots it) decides
//! what runs. It is detected once (`is_x86_feature_detected!("avx2")`) and every
//! hot entry point — [`crate::dot`], [`dot_block`], [`axpy`], [`sumsq4`] — consults the
//! cached tier with a single relaxed atomic load before a year-long
//! loop. All five platforms share these entry points (the naive scan,
//! the tiled kernel, Hive's reduce-side join and Spark's broadcast join
//! all call [`crate::dot`]; the fitting engines call [`axpy`] through
//! [`NormalEq`](crate::NormalEq)), so there is exactly one place where
//! scalar-vs-SIMD is decided. Tests can pin the tier with
//! [`force_tier`]; forcing [`SimdTier::Avx2`] on hardware without AVX2
//! clamps back to scalar rather than faulting.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::similarity::dot_scalar;

/// Relative error allowed between a fused-tier kernel and its scalar
/// reference (`|fused - scalar| <= FUSED_REL_TOL * max(|scalar|, 1)`).
/// Reassociating ~8760-term sums of O(1) values moves the result by a
/// few ULPs (~1e-16 relative); 1e-12 leaves four orders of magnitude of
/// headroom while still catching any real kernel defect.
pub const FUSED_REL_TOL: f64 = 1e-12;

/// Which implementation family the dispatched kernels run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// The fixed-order scalar reference kernels.
    Scalar,
    /// Lane-preserving AVX2 `f64x4` kernels (bit-identical to scalar).
    Avx2,
}

impl SimdTier {
    /// Stable lowercase label (`scalar` / `avx2`) for exports and logs.
    pub fn label(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
        }
    }
}

/// The process-wide kernel-dispatch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelDispatch {
    /// Active implementation tier for the lane-preserving kernels.
    pub tier: SimdTier,
}

impl KernelDispatch {
    /// Snapshot the active dispatch configuration.
    pub fn current() -> KernelDispatch {
        KernelDispatch {
            tier: active_tier(),
        }
    }
}

/// 0 = undetected, 1 = scalar, 2 = AVX2.
static TIER: AtomicU8 = AtomicU8::new(0);

/// Whether this CPU supports the AVX2 kernels (cached after first call).
pub fn avx2_supported() -> bool {
    detect() == 2
}

fn detect() -> u8 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return 2;
        }
    }
    1
}

/// The active lane-preserving tier, detecting on first use.
pub fn active_tier() -> SimdTier {
    match TIER.load(Ordering::Relaxed) {
        2 => SimdTier::Avx2,
        1 => SimdTier::Scalar,
        _ => {
            let detected = detect();
            // A concurrent `force_tier` may land first; keep whatever won.
            let _ = TIER.compare_exchange(0, detected, Ordering::Relaxed, Ordering::Relaxed);
            active_tier()
        }
    }
}

/// Force the lane-preserving tier (tests, experiments, the forced
/// fallback path), returning the previous tier so callers can restore
/// it. Requesting [`SimdTier::Avx2`] on hardware without AVX2 clamps to
/// scalar — the setting can never make a dispatched kernel fault.
pub fn force_tier(tier: SimdTier) -> SimdTier {
    let clamped = match tier {
        SimdTier::Avx2 if !avx2_supported() => SimdTier::Scalar,
        t => t,
    };
    let previous = active_tier();
    TIER.store(
        match clamped {
            SimdTier::Scalar => 1,
            SimdTier::Avx2 => 2,
        },
        Ordering::Relaxed,
    );
    previous
}

/// Dispatched dot product: AVX2 lane-preserving kernel when active,
/// scalar reference otherwise. Bit-identical either way — this is the
/// body of the canonical [`crate::dot`].
#[inline]
pub(crate) fn dot_dispatch(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if active_tier() == SimdTier::Avx2 {
        // SAFETY: `active_tier` only reports Avx2 when the CPU has it
        // (detection, and `force_tier` clamps).
        return unsafe { dot_avx2_impl(a, b) };
    }
    dot_scalar(a, b)
}

/// The lane-preserving AVX2 dot product, when this CPU supports it.
/// Returns `None` without AVX2. Bit-identical to
/// [`dot_scalar`] on every input: lane
/// *j* accumulates exactly the products scalar accumulator *j* does, in
/// the same order, and the reduction tree is the scalar one.
///
/// # Panics
/// Panics if lengths differ.
pub fn dot_avx2(a: &[f64], b: &[f64]) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    #[cfg(target_arch = "x86_64")]
    if avx2_supported() {
        // SAFETY: AVX2 presence just checked.
        return Some(unsafe { dot_avx2_impl(a, b) });
    }
    let _ = (a, b);
    None
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_avx2_impl(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let chunks = a.len() / 4;
    let pa = a.as_ptr();
    let pb = b.as_ptr();
    let mut acc = _mm256_setzero_pd();
    for c in 0..chunks {
        // SAFETY: `4 * c + 3 < a.len()` for every chunk; unaligned loads.
        let va = _mm256_loadu_pd(pa.add(4 * c));
        let vb = _mm256_loadu_pd(pb.add(4 * c));
        // mul then add, NOT fma: the scalar reference rounds the product
        // before the sum, and bit-exactness requires the same here.
        acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut tail = 0.0;
    for i in chunks * 4..a.len() {
        tail += a[i] * b[i];
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

/// `R × C` dot products at once — `out[r][c]` is bit-identical to
/// `dot(queries[r], candidates[c])` — the register-blocked form the
/// similarity sweep runs on. A single [`dot`](crate::dot) is one chain
/// of dependent vector adds (2190 for a year-long row), so it runs at
/// one add *latency* per step however many ports are free; a block
/// keeps `R · C` independent chains in flight and loads each of its
/// `R + C` row vectors once per step instead of twice per pair.
///
/// Bit-identity is the lane argument of [`dot_avx2`] applied per pair:
/// every pair owns its accumulator vector, lane *j* of it is added the
/// products of elements `4k + j` in increasing `k` with a separate
/// multiply and add (no FMA), and each pair finishes with the scalar
/// tree `((l0+l1)+(l2+l3)) + tail`. The scalar tier is [`dot_scalar`]
/// per pair.
///
/// # Panics
/// Panics unless all `R + C` rows share one length.
#[inline]
pub fn dot_block<const R: usize, const C: usize>(
    queries: [&[f64]; R],
    candidates: [&[f64]; C],
) -> [[f64; C]; R] {
    let len = queries
        .first()
        .or(candidates.first())
        .map_or(0, |row| row.len());
    assert!(
        queries.iter().chain(&candidates).all(|r| r.len() == len),
        "dot block requires equal lengths"
    );
    #[cfg(target_arch = "x86_64")]
    if active_tier() == SimdTier::Avx2 {
        // SAFETY: the tier implies AVX2 (see `dot_dispatch`), and every
        // row was just checked to hold exactly `len` elements.
        return unsafe { dot_block_avx2_impl(queries, candidates, len) };
    }
    queries.map(|q| candidates.map(|c| dot_scalar(q, c)))
}

/// # Safety
/// The CPU must support AVX2 and every row must hold `len` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_block_avx2_impl<const R: usize, const C: usize>(
    queries: [&[f64]; R],
    candidates: [&[f64]; C],
    len: usize,
) -> [[f64; C]; R] {
    use std::arch::x86_64::*;
    let chunks = len / 4;
    let mut acc = [[_mm256_setzero_pd(); C]; R];
    for k in 0..chunks {
        let mut vc = [_mm256_setzero_pd(); C];
        for (v, row) in vc.iter_mut().zip(&candidates) {
            // SAFETY: `4 * k + 3 < len`, each row's length; unaligned load.
            *v = _mm256_loadu_pd(row.as_ptr().add(4 * k));
        }
        for (pairs, row) in acc.iter_mut().zip(&queries) {
            // SAFETY: as above.
            let vq = _mm256_loadu_pd(row.as_ptr().add(4 * k));
            for (pair, v) in pairs.iter_mut().zip(&vc) {
                // mul then add, NOT fma, and one accumulator per pair:
                // each pair replays `dot_avx2_impl`'s operations exactly.
                *pair = _mm256_add_pd(*pair, _mm256_mul_pd(vq, *v));
            }
        }
    }
    let done = chunks * 4;
    let mut out = [[0.0f64; C]; R];
    for ((scores, pairs), q) in out.iter_mut().zip(&acc).zip(&queries) {
        for ((score, pair), c) in scores.iter_mut().zip(pairs).zip(&candidates) {
            let mut lanes = [0.0f64; 4];
            // SAFETY: `lanes` is the four `f64` one vector stores.
            _mm256_storeu_pd(lanes.as_mut_ptr(), *pair);
            let mut tail = 0.0;
            for (x, y) in q[done..].iter().zip(&c[done..]) {
                tail += x * y;
            }
            *score = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail;
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
    if active_tier() == SimdTier::Avx2 {
        // SAFETY: tier implies AVX2 (see `dot_dispatch`).
        unsafe { axpy_avx2_impl(acc, a, x) };
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

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2_impl(acc: &mut [f64], a: f64, x: &[f64]) {
    use std::arch::x86_64::*;
    let chunks = x.len() / 4;
    let va = _mm256_set1_pd(a);
    let pacc = acc.as_mut_ptr();
    let px = x.as_ptr();
    for c in 0..chunks {
        // SAFETY: `4 * c + 3 < len` for every chunk.
        let vx = _mm256_loadu_pd(px.add(4 * c));
        let vd = _mm256_loadu_pd(pacc.add(4 * c));
        _mm256_storeu_pd(pacc.add(4 * c), _mm256_add_pd(vd, _mm256_mul_pd(va, vx)));
    }
    for j in chunks * 4..x.len() {
        acc[j] += a * x[j];
    }
}

/// Four-accumulator sum of squares — the *wide* variant of the canonical
/// single-chain [`sumsq`](crate::similarity::sumsq). Deterministic on
/// every machine (the scalar body and the AVX2 body are lane-identical),
/// but **not** bit-equal to the canonical chain, so it only serves the
/// tolerance tier; callers on the exact path must use
/// [`sumsq`](crate::similarity::sumsq).
///
/// Used by the fused scoring path to fold row norms without a
/// pre-normalization pass.
pub fn sumsq4(v: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if active_tier() == SimdTier::Avx2 {
        // SAFETY: tier implies AVX2.
        return unsafe { sumsq4_avx2_impl(v) };
    }
    sumsq4_scalar(v)
}

/// The scalar reference for [`sumsq4`] (bit-identical to its AVX2 body).
pub fn sumsq4_scalar(v: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    for chunk in v.chunks_exact(4) {
        acc[0] += chunk[0] * chunk[0];
        acc[1] += chunk[1] * chunk[1];
        acc[2] += chunk[2] * chunk[2];
        acc[3] += chunk[3] * chunk[3];
    }
    let mut tail = 0.0;
    for &x in &v[v.len() / 4 * 4..] {
        tail += x * x;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sumsq4_avx2_impl(v: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    let chunks = v.len() / 4;
    let pv = v.as_ptr();
    let mut acc = _mm256_setzero_pd();
    for c in 0..chunks {
        // SAFETY: `4 * c + 3 < v.len()` for every chunk.
        let x = _mm256_loadu_pd(pv.add(4 * c));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(x, x));
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut tail = 0.0;
    for i in chunks * 4..v.len() {
        tail += v[i] * v[i];
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
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
        let Some(_) = dot_avx2(&[], &[]) else {
            eprintln!("no AVX2 on this machine; lane test skipped");
            return;
        };
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 63, 64, 8760] {
            let a = series(len, 3 + len as u64);
            let b = series(len, 11 + len as u64);
            let simd = dot_avx2(&a, &b).expect("AVX2 present");
            assert_eq!(
                simd.to_bits(),
                dot_scalar(&a, &b).to_bits(),
                "lane-preserving dot diverged at len={len}"
            );
        }
    }

    #[test]
    fn axpy_paths_are_bit_identical() {
        for len in [0usize, 1, 3, 4, 6, 9, 33] {
            let x = series(len, 5);
            let mut scalar = series(len, 9);
            let mut dispatched = scalar.clone();
            axpy_scalar(&mut scalar, 1.75, &x);
            axpy(&mut dispatched, 1.75, &x);
            for (a, b) in scalar.iter().zip(&dispatched) {
                assert_eq!(a.to_bits(), b.to_bits(), "axpy diverged at len={len}");
            }
        }
    }

    #[test]
    fn sumsq4_bodies_agree_bitwise() {
        for len in [0usize, 1, 4, 7, 63, 8760] {
            let v = series(len, 21);
            let wide = sumsq4(&v);
            assert_eq!(
                wide.to_bits(),
                sumsq4_scalar(&v).to_bits(),
                "sumsq4 AVX2 body diverged from its scalar body at len={len}"
            );
            // Wide vs canonical chain: equal in value terms, not bits.
            let canon = crate::similarity::sumsq(&v);
            let tol = FUSED_REL_TOL * canon.abs().max(1.0);
            assert!((wide - canon).abs() <= tol, "len={len}");
        }
    }

    #[test]
    fn forcing_an_unsupported_tier_clamps_to_scalar() {
        let restore = active_tier();
        let _ = force_tier(SimdTier::Avx2);
        if avx2_supported() {
            assert_eq!(active_tier(), SimdTier::Avx2);
        } else {
            assert_eq!(active_tier(), SimdTier::Scalar);
        }
        let _ = force_tier(restore);
    }

    #[test]
    fn dispatch_snapshot_reflects_globals() {
        let d = KernelDispatch::current();
        assert_eq!(d.tier, active_tier());
        assert!(!d.tier.label().is_empty());
    }
}
