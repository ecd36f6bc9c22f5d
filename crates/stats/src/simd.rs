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
//! [`dot_avx2`], [`dot_block`] and [`axpy`] map the reference kernel's
//! independent accumulators onto vector lanes one-for-one: lane *j* sees
//! exactly the additions scalar accumulator *j* saw, in the same order,
//! and the final reduction reuses the scalar tree
//! (`((a0+a1)+(a2+a3)) + tail`). No FMA — a fused multiply-add rounds
//! once where the reference rounds twice. Width is free where fusion is
//! not: the AVX-512 block keeps *two pairs'* four lanes in one `zmm`, and
//! each half still performs its pair's operations and nothing else.
//! [`lagged_moments`] and [`lagged_residuals`] — the PAR fit's two
//! passes — are the same idea with nothing to reduce: a lane *is* one
//! hour's scalar accumulator. These kernels are **bit-identical** to
//! their scalar references on every input and are pinned by proptests
//! and `smda-bench --check kernels,simd,fits`.
//!
//! # Dispatch
//!
//! One process-global tier ([`KernelDispatch`] snapshots it) decides
//! what runs: scalar, AVX2, or AVX-512 — which is the AVX2 tier with the
//! pair sweep's register block widened ([`WIDE_ROWS`] × [`WIDE_COLS`] on
//! `zmm`); every other kernel asks only [`avx2_active`]. It is detected
//! once (`is_x86_feature_detected!`, which for `avx512f` also checks
//! that the OS saves `zmm` state) and every hot entry point —
//! [`crate::dot`], [`dot_block`], [`axpy`], [`lagged_moments`],
//! [`lagged_residuals`] — consults the cached tier with a single relaxed
//! atomic load before a year-long loop. All five
//! platforms share these entry points (the naive scan, the tiled kernel,
//! Hive's reduce-side join and Spark's broadcast join all call
//! [`crate::dot`]; the fitting engines reach [`axpy`] and the lagged
//! kernels through [`NormalEq`](crate::NormalEq)), so there is exactly
//! one place where scalar-vs-SIMD is decided. Tests pin the tier with
//! [`force_tier`] or walk every tier with [`under_every_tier`]; forcing
//! a tier the hardware lacks clamps to the widest one it has rather than
//! faulting.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};

use smda_types::HOURS_PER_DAY;

use crate::similarity::dot_scalar;

/// Which implementation family the dispatched kernels run. Ordered by
/// width: a tier runs every kernel of the tiers below it that it does
/// not widen, so dispatch sites ask "at least" ([`avx2_active`]), never
/// "exactly".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// The fixed-order scalar reference kernels.
    Scalar,
    /// Lane-preserving AVX2 `f64x4` kernels (bit-identical to scalar).
    Avx2,
    /// The AVX2 kernels, except that the pair sweep's register block is
    /// [`WIDE_ROWS`] × [`WIDE_COLS`] with two pairs' four-lane
    /// accumulators side by side in each `zmm` (bit-identical to scalar).
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

/// 0 = undetected, 1 = scalar, 2 = AVX2, 3 = AVX-512.
static TIER: AtomicU8 = AtomicU8::new(0);

/// Whether this CPU supports the AVX2 kernels.
pub fn avx2_supported() -> bool {
    detect() >= SimdTier::Avx2
}

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

/// Whether the active tier runs the `ymm` kernels — the one question
/// every kernel but the pair sweep's wide block asks of the tier.
#[inline]
pub fn avx2_active() -> bool {
    active_tier() >= SimdTier::Avx2
}

/// Force the lane-preserving tier (tests, experiments, the forced
/// fallback path), returning the previous tier so callers can restore
/// it. A tier this hardware lacks clamps to the widest one it has —
/// [`SimdTier::Avx512`] to AVX2, AVX2 to scalar — so the setting can
/// never make a dispatched kernel fault.
pub fn force_tier(tier: SimdTier) -> SimdTier {
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

/// Dispatched dot product: AVX2 lane-preserving kernel when active,
/// scalar reference otherwise. Bit-identical either way — this is the
/// body of the canonical [`crate::dot`].
#[inline]
pub(crate) fn dot_dispatch(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: `active_tier` only reports AVX2 or wider when the CPU
        // has it (detection, and `force_tier` clamps); the caller checked
        // that both rows hold `a.len()` elements.
        let [[dot]] = unsafe { dot_block_avx2([a], [b], a.len()) };
        return dot;
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
        // SAFETY: AVX2 presence and the equal lengths just checked.
        let [[dot]] = unsafe { dot_block_avx2([a], [b], a.len()) };
        return Some(dot);
    }
    None
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

/// Whether [`dot_block`] runs a `rows × cols` block on `zmm` under `tier`.
fn runs_wide(tier: SimdTier, rows: usize, cols: usize) -> bool {
    tier == SimdTier::Avx512 && (rows, cols) == (WIDE_ROWS, WIDE_COLS)
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
    let len = queries
        .first()
        .or(candidates.first())
        .map_or(0, |row| row.len());
    assert!(
        queries.iter().chain(&candidates).all(|r| r.len() == len),
        "dot block requires equal lengths"
    );
    #[cfg(target_arch = "x86_64")]
    {
        let tier = active_tier();
        if runs_wide(tier, R, C) {
            // SAFETY: the tier implies AVX-512F (see `dot_dispatch`), and
            // every row was just checked to hold exactly `len` elements.
            // The arrays are re-typed to the shape `R` and `C` equal.
            let wide = unsafe {
                dot_block_avx512(
                    std::array::from_fn(|r| queries[r]),
                    std::array::from_fn(|c| candidates[c]),
                    len,
                )
            };
            return std::array::from_fn(|r| std::array::from_fn(|c| wide[r][c]));
        }
        if tier >= SimdTier::Avx2 {
            // SAFETY: as above, for AVX2.
            return unsafe { dot_block_avx2(queries, candidates, len) };
        }
    }
    queries.map(|q| candidates.map(|c| dot_scalar(q, c)))
}

/// # Safety
/// The CPU must support AVX2 and every row must hold `len` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_block_avx2<const R: usize, const C: usize>(
    queries: [&[f64]; R],
    candidates: [&[f64]; C],
    len: usize,
) -> [[f64; C]; R] {
    dot_block_lanes::<std::arch::x86_64::__m256d, R, C, C>(queries, candidates, len)
}

/// # Safety
/// The CPU must support AVX-512F and every row must hold `len` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dot_block_avx512(
    queries: [&[f64]; WIDE_ROWS],
    candidates: [&[f64]; WIDE_COLS],
    len: usize,
) -> [[f64; WIDE_COLS]; WIDE_ROWS] {
    const VECTORS: usize = WIDE_COLS / 2;
    dot_block_lanes::<std::arch::x86_64::__m512d, WIDE_ROWS, WIDE_COLS, VECTORS>(
        queries, candidates, len,
    )
}

/// One accumulator vector of the block kernel: the four-lane partial
/// sums of [`PAIRS`](PairLanes::PAIRS) pairs that share a query row,
/// side by side — one pair in a `__m256d`, two in a `__m512d`. A pair's
/// four lanes see the same products in the same order, each rounded
/// twice (multiply, then add — never an FMA), whichever type holds them.
/// (Not [`Lanes`]: that vocabulary's vector is four hours, never split
/// or reduced; what this one is for — a query chunk in every pair's
/// lanes, a candidate chunk per pair, a per-pair store — has no meaning
/// there.)
///
/// # Safety
/// As [`Lanes`]: every method requires the instruction set its type
/// needs (AVX2, AVX-512F), so it must only be reached from a
/// `#[target_feature]` frame that a tier check guards. Memory safety
/// needs nothing more: loads go through `[f64; 4]` references — every
/// access is 32 bytes wide at either width — and stores through a slice.
#[cfg(target_arch = "x86_64")]
trait PairLanes: Copy {
    /// Pairs per vector: candidate rows one vector takes a chunk of.
    const PAIRS: usize;
    unsafe fn zero() -> Self;
    /// The query row's chunk, once per pair.
    unsafe fn query(chunk: &[f64; 4]) -> Self;
    /// Candidate row `p`'s chunk, `chunk_of(p)`, in pair `p`'s lanes.
    unsafe fn candidates<'a>(chunk_of: impl Fn(usize) -> &'a [f64; 4]) -> Self;
    unsafe fn add(self, rhs: Self) -> Self;
    unsafe fn mul(self, rhs: Self) -> Self;
    /// Pair `p`'s four lanes into `lanes[p]`.
    unsafe fn store(self, lanes: &mut [[f64; 4]]);
}

// SAFETY (every method): the trait's contract puts the caller inside an
// AVX2 frame; the loads read exactly the four `f64` their references
// cover, the store writes exactly the four of `lanes[0]`.
#[cfg(target_arch = "x86_64")]
impl PairLanes for std::arch::x86_64::__m256d {
    const PAIRS: usize = 1;
    #[inline(always)]
    unsafe fn zero() -> Self {
        std::arch::x86_64::_mm256_setzero_pd()
    }
    #[inline(always)]
    unsafe fn query(chunk: &[f64; 4]) -> Self {
        std::arch::x86_64::_mm256_loadu_pd(chunk.as_ptr())
    }
    #[inline(always)]
    unsafe fn candidates<'a>(chunk_of: impl Fn(usize) -> &'a [f64; 4]) -> Self {
        std::arch::x86_64::_mm256_loadu_pd(chunk_of(0).as_ptr())
    }
    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        std::arch::x86_64::_mm256_add_pd(self, rhs)
    }
    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        std::arch::x86_64::_mm256_mul_pd(self, rhs)
    }
    #[inline(always)]
    unsafe fn store(self, lanes: &mut [[f64; 4]]) {
        std::arch::x86_64::_mm256_storeu_pd(lanes[0].as_mut_ptr(), self)
    }
}

// SAFETY (every method): the trait's contract puts the caller inside an
// AVX-512F frame (which implies AVX for the 256-bit loads); each load
// reads exactly the four `f64` its reference covers, the store writes
// exactly the eight of a local array.
#[cfg(target_arch = "x86_64")]
impl PairLanes for std::arch::x86_64::__m512d {
    const PAIRS: usize = 2;
    #[inline(always)]
    unsafe fn zero() -> Self {
        std::arch::x86_64::_mm512_setzero_pd()
    }
    #[inline(always)]
    unsafe fn query(chunk: &[f64; 4]) -> Self {
        use std::arch::x86_64::*;
        // Both pairs of a vector share the query row: a broadcast from
        // memory, which the load ports do alone.
        _mm512_broadcast_f64x4(_mm256_loadu_pd(chunk.as_ptr()))
    }
    #[inline(always)]
    unsafe fn candidates<'a>(chunk_of: impl Fn(usize) -> &'a [f64; 4]) -> Self {
        use std::arch::x86_64::*;
        let low = _mm256_loadu_pd(chunk_of(0).as_ptr());
        let high = _mm256_loadu_pd(chunk_of(1).as_ptr());
        _mm512_insertf64x4::<1>(_mm512_castpd256_pd512(low), high)
    }
    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        std::arch::x86_64::_mm512_add_pd(self, rhs)
    }
    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        std::arch::x86_64::_mm512_mul_pd(self, rhs)
    }
    #[inline(always)]
    unsafe fn store(self, lanes: &mut [[f64; 4]]) {
        let mut both = [0.0f64; 8];
        std::arch::x86_64::_mm512_storeu_pd(both.as_mut_ptr(), self);
        lanes[0].copy_from_slice(&both[..4]);
        lanes[1].copy_from_slice(&both[4..]);
    }
}

/// The block kernel's one loop nest: `R` query rows against `C`
/// candidate rows held as `P = C / V::PAIRS` vectors per query row.
/// (`P` is its own parameter because stable Rust cannot spell
/// `C / V::PAIRS` in an array length.)
///
/// # Safety
/// As [`PairLanes`], the instruction set `V` needs; and every row must
/// hold `len` elements.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn dot_block_lanes<V: PairLanes, const R: usize, const C: usize, const P: usize>(
    queries: [&[f64]; R],
    candidates: [&[f64]; C],
    len: usize,
) -> [[f64; C]; R] {
    const {
        assert!(
            P * V::PAIRS == C,
            "P vectors of V::PAIRS pairs cover C candidates"
        )
    };
    // SAFETY (callers pass `4 * k + 3 < len`, each row's length): the
    // four elements are inside the row.
    let chunk = |row: &[f64], k: usize| unsafe { &*row.as_ptr().add(4 * k).cast::<[f64; 4]>() };
    let chunks = len / 4;
    let mut acc = [[V::zero(); P]; R];
    for k in 0..chunks {
        let mut vc = [V::zero(); P];
        for (v, rows) in vc.iter_mut().zip(candidates.chunks_exact(V::PAIRS)) {
            *v = V::candidates(|p| chunk(rows[p], k));
        }
        for (pairs, row) in acc.iter_mut().zip(&queries) {
            let vq = V::query(chunk(row, k));
            for (pair, v) in pairs.iter_mut().zip(&vc) {
                // mul then add, NOT fma: the scalar reference rounds the
                // product before the sum, and bit-exactness requires the
                // same here. One set of four lanes per pair: each pair
                // replays `dot_scalar`'s operations exactly.
                *pair = pair.add(vq.mul(*v));
            }
        }
    }
    let done = chunks * 4;
    let mut out = [[0.0f64; C]; R];
    for ((scores, vectors), q) in out.iter_mut().zip(&acc).zip(&queries) {
        let mut lanes = [[0.0f64; 4]; C];
        for (v, pairs) in vectors.iter().zip(lanes.chunks_exact_mut(V::PAIRS)) {
            v.store(pairs);
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
    if avx2_active() {
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

/// Autoregressive lags of the hourly lane kernel ([`lagged_moments`]):
/// each hour's design is `[1, y[d−1], y[d−2], y[d−3], x[d]]`.
pub const LANE_LAGS: usize = 3;

/// Columns of that design.
pub const LANE_COLS: usize = LANE_LAGS + 2;

/// Entries in the upper triangle of its `LANE_COLS × LANE_COLS` gram.
const LANE_TRI: usize = LANE_COLS * (LANE_COLS + 1) / 2;

/// Hours the lane kernels advance per step: one `f64x4`.
pub const LANE_WIDTH: usize = 4;

/// Four `f64` lanes with IEEE element-wise arithmetic — the one vector
/// vocabulary [`lagged_moments`] and [`lagged_residuals`] are written
/// in, so the scalar and the AVX2 tier are two instantiations of the
/// *same* loop nest. `[f64; 4]` is the portable tier, `__m256d` the AVX2
/// one; both round every operation separately (no FMA), so a lane holds
/// the same bits whichever type carries it.
///
/// # Safety
/// Every method requires the instruction set its lane type needs: none
/// for `[f64; 4]`, AVX2 for `__m256d` — whose methods must therefore only
/// be reached from a `#[target_feature(enable = "avx2")]` frame that a
/// tier check guards. Memory safety needs nothing more: loads and stores
/// go through `[f64; 4]` references.
trait Lanes: Copy {
    unsafe fn load(src: &[f64; LANE_WIDTH]) -> Self;
    unsafe fn splat(x: f64) -> Self;
    unsafe fn add(self, rhs: Self) -> Self;
    unsafe fn sub(self, rhs: Self) -> Self;
    unsafe fn mul(self, rhs: Self) -> Self;
    /// `self` in the lanes where `gate != 0.0` (a NaN gate counts as
    /// non-zero, as `gate == 0.0` is false for it), `+0.0` in the rest.
    unsafe fn zeroed_where_zero(self, gate: Self) -> Self;
    unsafe fn store(self) -> [f64; LANE_WIDTH];
}

impl Lanes for [f64; LANE_WIDTH] {
    #[inline(always)]
    unsafe fn load(src: &[f64; LANE_WIDTH]) -> Self {
        *src
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        [x; LANE_WIDTH]
    }
    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        std::array::from_fn(|l| self[l] + rhs[l])
    }
    #[inline(always)]
    unsafe fn sub(self, rhs: Self) -> Self {
        std::array::from_fn(|l| self[l] - rhs[l])
    }
    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        std::array::from_fn(|l| self[l] * rhs[l])
    }
    #[inline(always)]
    unsafe fn zeroed_where_zero(self, gate: Self) -> Self {
        std::array::from_fn(|l| if gate[l] == 0.0 { 0.0 } else { self[l] })
    }
    #[inline(always)]
    unsafe fn store(self) -> [f64; LANE_WIDTH] {
        self
    }
}

// SAFETY (every method): the trait's contract puts the caller inside an
// AVX2 frame, which is all these register-to-register intrinsics need;
// the load reads exactly the four `f64` its reference covers, the store
// writes exactly the four of its local array.
#[cfg(target_arch = "x86_64")]
impl Lanes for std::arch::x86_64::__m256d {
    #[inline(always)]
    unsafe fn load(src: &[f64; LANE_WIDTH]) -> Self {
        std::arch::x86_64::_mm256_loadu_pd(src.as_ptr())
    }
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        std::arch::x86_64::_mm256_set1_pd(x)
    }
    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        std::arch::x86_64::_mm256_add_pd(self, rhs)
    }
    #[inline(always)]
    unsafe fn sub(self, rhs: Self) -> Self {
        std::arch::x86_64::_mm256_sub_pd(self, rhs)
    }
    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        std::arch::x86_64::_mm256_mul_pd(self, rhs)
    }
    #[inline(always)]
    unsafe fn zeroed_where_zero(self, gate: Self) -> Self {
        use std::arch::x86_64::*;
        // NEQ_UQ is all-ones for `gate != 0.0` *or unordered*: the exact
        // complement of the scalar `gate == 0.0`.
        let keep = _mm256_cmp_pd::<_CMP_NEQ_UQ>(gate, _mm256_setzero_pd());
        _mm256_and_pd(self, keep)
    }
    #[inline(always)]
    unsafe fn store(self) -> [f64; LANE_WIDTH] {
        let mut out = [0.0f64; LANE_WIDTH];
        std::arch::x86_64::_mm256_storeu_pd(out.as_mut_ptr(), self);
        out
    }
}

/// The four hours `hour..hour + 4` of day `day` in a day-major series.
#[inline(always)]
fn lane_block(series: &[f64], day: usize, hour: usize) -> &[f64; LANE_WIDTH] {
    let at = day * HOURS_PER_DAY + hour;
    series[at..at + LANE_WIDTH]
        .try_into()
        .expect("a four-element slice is a four-element array")
}

/// Normal-equation sums of four adjacent hours' lagged regressions, one
/// lane per hour (see [`lagged_moments`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneMoments {
    /// Upper triangle of `XᵀX`, row-major: `(0,0), (0,1), … (4,4)`.
    pub gram: [[f64; LANE_WIDTH]; LANE_TRI],
    /// `Xᵀy`.
    pub xty: [[f64; LANE_WIDTH]; LANE_COLS],
    /// `Σ y` over the fitted days, folded as `Iterator::sum` folds.
    pub sum_y: [f64; LANE_WIDTH],
    /// `Σ x` over the fitted days, folded the same way.
    pub sum_x: [f64; LANE_WIDTH],
}

/// Accumulate, for the four hours `hour..hour + 4` side by side, the
/// moments of the per-hour regression of `y[d]` on
/// `[1, y[d−1], y[d−2], y[d−3], x[d]]` over days `LANE_LAGS..days` of two
/// day-major series (24 values per day).
///
/// In that layout the four hours of a day are adjacent, so every design
/// column and the response are one unaligned four-lane load, and the 22
/// sums of an hour live in lane `hour % 4` of 22 accumulator vectors. Lane
/// *l* is bit-identical to what [`Matrix::gram`](crate::Matrix::gram),
/// [`Matrix::t_vec`](crate::Matrix::t_vec) and `Iterator::sum` produce
/// for hour `hour + l` alone:
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
/// Panics unless `hour + 4 <= 24` and both series hold `days` whole days.
pub fn lagged_moments(y: &[f64], x: &[f64], days: usize, hour: usize) -> LaneMoments {
    check_lane_args(y, x, days, hour);
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: the tier implies AVX2 (see `dot_dispatch`).
        return unsafe { lagged_moments_avx2(y, x, days, hour) };
    }
    // SAFETY: the `[f64; 4]` lanes need no instruction-set extension.
    unsafe { lagged_moments_lanes::<[f64; LANE_WIDTH]>(y, x, days, hour) }
}

fn check_lane_args(y: &[f64], x: &[f64], days: usize, hour: usize) {
    assert!(
        hour + LANE_WIDTH <= HOURS_PER_DAY,
        "lane block {hour}..{} leaves the day",
        hour + LANE_WIDTH
    );
    assert!(
        y.len() >= days * HOURS_PER_DAY && x.len() >= days * HOURS_PER_DAY,
        "series shorter than {days} days"
    );
}

/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lagged_moments_avx2(y: &[f64], x: &[f64], days: usize, hour: usize) -> LaneMoments {
    lagged_moments_lanes::<std::arch::x86_64::__m256d>(y, x, days, hour)
}

/// # Safety
/// As [`Lanes`]: the instruction set `V` needs.
#[inline(always)]
unsafe fn lagged_moments_lanes<V: Lanes>(
    y: &[f64],
    x: &[f64],
    days: usize,
    hour: usize,
) -> LaneMoments {
    let sum_start: f64 = std::iter::empty::<f64>().sum();
    let mut gram = [V::splat(0.0); LANE_TRI];
    let mut xty = [V::splat(0.0); LANE_COLS];
    let mut sum_y = V::splat(sum_start);
    let mut sum_x = V::splat(sum_start);
    if days > LANE_LAGS {
        // Yesterday's response is today's first lag: each day loads two
        // new vectors and shifts the lag window.
        let mut lags: [V; LANE_LAGS] =
            std::array::from_fn(|lag| V::load(lane_block(y, LANE_LAGS - 1 - lag, hour)));
        for day in LANE_LAGS..days {
            let response = V::load(lane_block(y, day, hour));
            let exogenous = V::load(lane_block(x, day, hour));
            let cols = [V::splat(1.0), lags[0], lags[1], lags[2], exogenous];
            let mut entry = 0;
            for i in 0..LANE_COLS {
                for j in i..LANE_COLS {
                    let mut product = cols[i].mul(cols[j]);
                    // Column 0 is the constant 1: never zero, never masked.
                    if i > 0 {
                        product = product.zeroed_where_zero(cols[i]);
                    }
                    gram[entry] = gram[entry].add(product);
                    entry += 1;
                }
            }
            for (acc, col) in xty.iter_mut().zip(cols) {
                *acc = acc.add(response.mul(col));
            }
            sum_y = sum_y.add(response);
            sum_x = sum_x.add(exogenous);
            lags = [response, lags[0], lags[1]];
        }
    }
    LaneMoments {
        gram: gram.map(|v| v.store()),
        xty: xty.map(|v| v.store()),
        sum_y: sum_y.store(),
        sum_x: sum_x.store(),
    }
}

/// Residual and total sums of squares of four adjacent hours' fitted
/// lagged regressions — the second pass of
/// [`ols_multiple`](crate::ols_multiple), one lane per hour: per day the
/// prediction is `Iterator::sum` over `row[i] · beta[i]` left to right
/// from std's own start value, then `sse += e·e` and `syy += d·d` from
/// `0.0`, each product rounded before its add. `beta[i]` holds
/// coefficient *i* of the four hours, `mean_y` their response means.
/// Returns `(sse, syy)`.
///
/// # Panics
/// As [`lagged_moments`].
pub fn lagged_residuals(
    y: &[f64],
    x: &[f64],
    days: usize,
    hour: usize,
    beta: &[[f64; LANE_WIDTH]; LANE_COLS],
    mean_y: [f64; LANE_WIDTH],
) -> ([f64; LANE_WIDTH], [f64; LANE_WIDTH]) {
    check_lane_args(y, x, days, hour);
    #[cfg(target_arch = "x86_64")]
    if avx2_active() {
        // SAFETY: the tier implies AVX2 (see `dot_dispatch`).
        return unsafe { lagged_residuals_avx2(y, x, days, hour, beta, mean_y) };
    }
    // SAFETY: the `[f64; 4]` lanes need no instruction-set extension.
    unsafe { lagged_residuals_lanes::<[f64; LANE_WIDTH]>(y, x, days, hour, beta, mean_y) }
}

/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lagged_residuals_avx2(
    y: &[f64],
    x: &[f64],
    days: usize,
    hour: usize,
    beta: &[[f64; LANE_WIDTH]; LANE_COLS],
    mean_y: [f64; LANE_WIDTH],
) -> ([f64; LANE_WIDTH], [f64; LANE_WIDTH]) {
    lagged_residuals_lanes::<std::arch::x86_64::__m256d>(y, x, days, hour, beta, mean_y)
}

/// # Safety
/// As [`Lanes`]: the instruction set `V` needs.
#[inline(always)]
unsafe fn lagged_residuals_lanes<V: Lanes>(
    y: &[f64],
    x: &[f64],
    days: usize,
    hour: usize,
    beta: &[[f64; LANE_WIDTH]; LANE_COLS],
    mean_y: [f64; LANE_WIDTH],
) -> ([f64; LANE_WIDTH], [f64; LANE_WIDTH]) {
    let sum_start: f64 = std::iter::empty::<f64>().sum();
    let beta: [V; LANE_COLS] = std::array::from_fn(|i| V::load(&beta[i]));
    let mean_y = V::load(&mean_y);
    let mut sse = V::splat(0.0);
    let mut syy = V::splat(0.0);
    if days > LANE_LAGS {
        let mut lags: [V; LANE_LAGS] =
            std::array::from_fn(|lag| V::load(lane_block(y, LANE_LAGS - 1 - lag, hour)));
        for day in LANE_LAGS..days {
            let response = V::load(lane_block(y, day, hour));
            let exogenous = V::load(lane_block(x, day, hour));
            let cols = [V::splat(1.0), lags[0], lags[1], lags[2], exogenous];
            let mut predicted = V::splat(sum_start);
            for (col, b) in cols.into_iter().zip(beta) {
                predicted = predicted.add(col.mul(b));
            }
            let error = response.sub(predicted);
            sse = sse.add(error.mul(error));
            let centred = response.sub(mean_y);
            syy = syy.add(centred.mul(centred));
            lags = [response, lags[0], lags[1]];
        }
    }
    (sse.store(), syy.store())
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
        // block asks "at least AVX2" — an equality there would drop an
        // AVX-512 host to the scalar instantiations — and only the wide
        // shape, only under AVX-512, leaves `ymm`.
        assert!(SimdTier::ALL.windows(2).all(|w| w[0] < w[1]));
        under_every_tier(|tier| {
            assert_eq!(active_tier(), tier);
            assert_eq!(KernelDispatch::current().tier, tier);
            // dot, axpy, lagged_moments, lagged_residuals, and
            // every dot_block that is not wide.
            assert_eq!(avx2_active(), tier != SimdTier::Scalar, "{tier:?}");
        });
        for tier in SimdTier::ALL {
            let wide = tier == SimdTier::Avx512;
            assert_eq!(runs_wide(tier, WIDE_ROWS, WIDE_COLS), wide, "{tier:?}");
            // The 4 × 2 block, the one-row scan and its remainders, the
            // single dot: `ymm` (or scalar) on every tier.
            for (rows, cols) in [(4, 2), (1, 4), (1, 3), (1, 2), (1, 1), (4, 8), (8, 2)] {
                assert!(!runs_wide(tier, rows, cols), "{tier:?} {rows}x{cols}");
            }
        }
    }

    /// Every lane of every block of `lagged_moments` against
    /// `Matrix::gram`, `Matrix::t_vec` and `Iterator::sum` on that hour's
    /// materialized design.
    fn assert_moments_match_matrix(y: &[f64], x: &[f64], days: usize) {
        for hour in 0..HOURS_PER_DAY {
            let (block, lane) = (hour / LANE_WIDTH * LANE_WIDTH, hour % LANE_WIDTH);
            let got = lagged_moments(y, x, days, block);
            let (design, response) = crate::testutil::hour_design(y, x, days, hour);
            let (gram, xty) = (design.gram(), design.t_vec(&response));
            let mut entry = 0;
            for (i, (got_xty, want_xty)) in got.xty.iter().zip(&xty).enumerate() {
                for j in i..LANE_COLS {
                    assert_eq!(
                        got.gram[entry][lane].to_bits(),
                        gram.get(i, j).to_bits(),
                        "hour {hour} gram({i},{j})"
                    );
                    entry += 1;
                }
                assert_eq!(
                    got_xty[lane].to_bits(),
                    want_xty.to_bits(),
                    "hour {hour} xty[{i}]"
                );
            }
            let sum_y: f64 = response.iter().sum();
            let sum_x: f64 = (LANE_LAGS..days).map(|d| x[d * HOURS_PER_DAY + hour]).sum();
            assert_eq!(got.sum_y[lane].to_bits(), sum_y.to_bits(), "hour {hour} Σy");
            assert_eq!(got.sum_x[lane].to_bits(), sum_x.to_bits(), "hour {hour} Σx");
        }
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
        let got = lagged_moments(&y, &x, days, 0);
        // gram(1,4) = Σ y[d−1]·x[d] met 0 · ∞ on day 7 and must not be NaN
        // for it (entry 8 of the row-major upper triangle).
        assert!(!got.gram[8][0].is_nan(), "masked product leaked a NaN");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_kernels_agree_across_tiers_bitwise() {
        if !avx2_supported() {
            eprintln!("no AVX2 on this machine; lane test skipped");
            return;
        }
        let days = 40;
        let (y, x) = crate::testutil::awkward_year(days, 23);
        let beta: [[f64; LANE_WIDTH]; LANE_COLS] =
            std::array::from_fn(|i| std::array::from_fn(|l| 0.3 * i as f64 - 0.2 * l as f64));
        let mean_y = [0.5, -0.0, 2.0, 0.0];
        for hour in (0..HOURS_PER_DAY).step_by(LANE_WIDTH) {
            // SAFETY: the portable lanes need nothing; AVX2 was just checked.
            let (scalar, avx2) = unsafe {
                (
                    lagged_moments_lanes::<[f64; LANE_WIDTH]>(&y, &x, days, hour),
                    lagged_moments_avx2(&y, &x, days, hour),
                )
            };
            let bits = |m: &LaneMoments| -> Vec<u64> {
                m.gram
                    .iter()
                    .chain(&m.xty)
                    .chain([&m.sum_y, &m.sum_x])
                    .flatten()
                    .map(|v| v.to_bits())
                    .collect()
            };
            assert_eq!(bits(&scalar), bits(&avx2), "moments, block at hour {hour}");
            // SAFETY: as above.
            let (scalar, avx2) = unsafe {
                (
                    lagged_residuals_lanes::<[f64; LANE_WIDTH]>(&y, &x, days, hour, &beta, mean_y),
                    lagged_residuals_avx2(&y, &x, days, hour, &beta, mean_y),
                )
            };
            for lane in 0..LANE_WIDTH {
                assert_eq!(scalar.0[lane].to_bits(), avx2.0[lane].to_bits(), "sse");
                assert_eq!(scalar.1[lane].to_bits(), avx2.1[lane].to_bits(), "syy");
            }
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
        assert_eq!(avx2_supported(), widest >= SimdTier::Avx2);
        for asked in SimdTier::ALL {
            let _ = force_tier(asked);
            assert_eq!(active_tier(), asked.min(widest), "asked for {asked:?}");
        }
        assert_eq!(force_tier(restore), SimdTier::Avx512.min(widest));
    }

    #[test]
    fn dispatch_snapshot_reflects_globals() {
        let d = KernelDispatch::current();
        assert_eq!(d.tier, active_tier());
        assert!(!d.tier.label().is_empty());
    }
}
