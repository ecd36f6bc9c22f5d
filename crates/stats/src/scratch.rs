//! Reusable fitting scratch: allocation-free inner loops for the
//! per-consumer model fits.
//!
//! The 3-line (Section 3.2) and PAR (Section 3.3) tasks run thousands of
//! small least-squares problems — one batch per consumer — and the naive
//! implementations allocate per call: a fresh `BTreeMap<i32, Vec<f64>>`
//! for percentile grouping, fresh prefix-sum vectors per curve, a fresh
//! design [`Matrix`] (plus its gram/factor/rhs vectors) per hour. A
//! [`FitScratch`] owns all of those buffers once, per worker thread, and
//! is reused across consumers; after the first few fits the steady state
//! allocates nothing.
//!
//! **Bit-exactness contract.** Every routine here reproduces the output
//! of the allocating implementation it replaces *to the bit*: the same
//! values are added in the same order with the same tie-breaking. The
//! obligations, per component:
//!
//! * [`BinPlan`] replaces `BTreeMap<i32, Vec<f64>>` grouping of one
//!   series' values by the integer key of *another* series (3-line T1:
//!   readings by rounded temperature). Which hours share a bin, and the
//!   ascending order of the bins, are functions of the key series alone
//!   — the same `round` per hour, the same `i32` order the map iterated
//!   in — so they are planned once per key series and reused for every
//!   consumer measured against it. The plan is a cache checked **by
//!   content** on every use (bit-equal to the copy it was built from, or
//!   rebuilt; never by address), so a reused plan is the plan a fresh
//!   arena would build. Within a bin the plan lists hours ascending, the
//!   order `Vec::push` produced under the map — but nothing reads it any
//!   more: a bin's values are only *selected* from, and a rank's order
//!   statistic does not depend on the order the values arrive in.
//!   Whether the hours were ordered by counting (dense keys) or by
//!   sorting `(key, hour)` (keys spread wider than the series is long) is
//!   invisible for the same reason twice over.
//! * [`SegmentSums`] rebuilds the 3-line fitter's prefix sums into
//!   retained buffers, every slot overwritten, so a dirty instance and a
//!   fresh one (what the baseline fit passes) hold the same values. Its
//!   breakpoint search ([`SegmentSums::best_split`], 3-line T2) scores a
//!   vector of second breakpoints at a time: lane `l` runs
//!   [`SegmentSums::fit`]'s operations in their order for its own `j`,
//!   both branches computed and the one `|den| < 1e-9` picks selected, and
//!   the lanes' first strict minima meet in `(i, j)` order, which is the
//!   scalar loop's `total < best`.
//! * [`NormalEq::solve`] reproduces [`ols_multiple`](crate::regression::ols_multiple): the gram and
//!   `Xᵀy` accumulations copy [`Matrix::gram`] / [`Matrix::t_vec`]
//!   element-for-element (including the `a == 0.0` skip), the Cholesky
//!   factorization and the two substitutions copy
//!   [`cholesky_solve`](crate::linalg::cholesky_solve), and the rare
//!   ill-conditioned fallback calls the *same*
//!   [`qr_least_squares`] on a design
//!   materialized into a retained buffer. Gram and `Xᵀy` are accumulated
//!   in a single pass over rows here where the originals used two; each
//!   accumulator is independent, so every individual sum still sees the
//!   same addends in the same order.
//! * [`NormalEq::fit_hourly_ar`] reproduces 24 such fits — one per hour
//!   of day, design `[1, y[d−1], y[d−2], y[d−3], x[d]]` — without ever
//!   forming a design row. The hours are accumulated *side by side*: in
//!   the day-major year the hours of a lane block are adjacent, so hour
//!   *h*'s 15 gram sums, 5 `Xᵀy` sums, `Σy` and `Σx` are one lane of 22
//!   accumulator vectors, eight hours to a vector on the AVX-512 tier and
//!   four on AVX2 ([`lagged_moments`], which carries the
//!   per-lane argument: same addends, same day order, product rounded
//!   before the add, the zero skip reproduced by masking the product to
//!   `+0.0`). Each hour's moments then go through the same scalar
//!   moments-in → β-out step as [`NormalEq::solve`] (Cholesky, else QR on
//!   that hour's materialized design), and the residual pass is lane-wise
//!   again ([`lagged_residuals`]). The
//!   response mean is summed once and serves both the fit's `r²` and the
//!   caller's fallback — it was the same `Iterator::sum` twice.
//! * [`RankSelect`] replaces "sort the bin, read two quantiles" in 3-line
//!   T1 with selection of the at most four ranks the interpolation reads,
//!   in one pass per bin: 16 strided values sorted by a compare-exchange
//!   network give a threshold past the low percentile's pair of ranks and
//!   one short of the high one's, one compress pass splits both tails off
//!   into retained buffers, and three-way partitions inside each buffer
//!   finish the pair (inside the whole bin, where a threshold missed). It
//!   compares the `f64` readings themselves, which, as under the
//!   baseline's `partial_cmp`, orders `−0.0` and `+0.0` as equal, but may
//!   leave the other sign on a rank than the stable sort did; the docs of
//!   [`quantiles_by_selection`](crate::quantile::quantiles_by_selection)
//!   show why which of several tied `±0.0` lands on a rank cannot reach
//!   the interpolated value. The readings' finiteness verdict is taken in
//!   the gather that brings them into bin order, the key series' when its
//!   plan is built.
//!
//! The contract is enforced by proptests in this crate (dirty scratch ≡
//! fresh scratch ≡ allocating reference, scalar tier ≡ AVX2 tier) and by
//! `smda-bench --check fits` end to end.

// Triangular factorizations index several buffers with mutually offset
// ranges; explicit indices mirror `linalg` and read better here.
#![allow(clippy::needless_range_loop)]

use std::cell::RefCell;
use std::time::Duration;

use smda_types::HOURS_PER_DAY;

use crate::linalg::{qr_least_squares, Matrix};
use crate::quantile::RankSelect;
use crate::simd::{
    lagged_moments, lagged_residuals, note_body, widest_lanes, Lanes, Widest, LANE_COLS, LANE_LAGS,
};
#[cfg(target_arch = "x86_64")]
use crate::simd::{Avx2, Avx512};

/// Widest design matrix the in-place solver accepts (columns). The 3-line
/// hinge basis uses 4, PAR uses `PAR_ORDER + 2 = 5`; 6 leaves headroom.
pub const SCRATCH_MAX_COLS: usize = 6;

/// Per-worker scratch arena for model fitting, reused across consumers.
///
/// The sub-buffers are independent public fields so a caller can borrow
/// them disjointly (e.g. fill [`FitScratch::curves`] while visiting
/// [`FitScratch::plan`]'s bins).
#[derive(Debug, Default)]
pub struct FitScratch {
    /// Bins of the shared key series (3-line T1 percentile extraction).
    pub plan: BinPlan,
    /// The buffers T1 selects each bin's percentile ranks through.
    pub select: RankSelect,
    /// Two (x, y) point buffers: `curves[0]` low, `curves[1]` high.
    pub curves: [CurveBuffer; 2],
    /// Prefix sums for O(1) segment fits (3-line T2).
    pub segments: SegmentSums,
    /// In-place normal-equation solver (3-line T3 hinge, PAR hours).
    pub solver: NormalEq,
    used: bool,
    pending_reuses: u64,
    pending_phase_times: [Duration; 3],
}

impl FitScratch {
    /// A fresh arena with empty buffers.
    pub fn new() -> Self {
        FitScratch::default()
    }

    /// Record that a fit is starting. Counts a *reuse* whenever the
    /// arena has already served an earlier fit.
    pub fn note_fit(&mut self) {
        if self.used {
            self.pending_reuses += 1;
        }
        self.used = true;
    }

    /// Drain the reuse count accumulated since the last call — feeds the
    /// `fits.scratch_reuses` observability counter.
    pub fn take_reuses(&mut self) -> u64 {
        std::mem::take(&mut self.pending_reuses)
    }

    /// Drain the count of [`BinPlan`] builds since the last call — feeds
    /// the `fits.plan_builds` counter. Consumers fitted against one key
    /// series through one arena cost one build between them, so a count
    /// that grows with the consumers means grouping is being redone per
    /// consumer.
    pub fn take_plan_builds(&mut self) -> u64 {
        std::mem::take(&mut self.plan.pending_builds)
    }

    /// Add the wall-clock one fit spent in each of its phases — the
    /// 3-line fit's T1 (percentiles), T2 (regression), T3 (adjustment).
    /// A measurement of the fit, kept here and not in its result, so what
    /// a fit returns is a function of its inputs alone.
    pub fn note_phase_times(&mut self, times: [Duration; 3]) {
        for (pending, spent) in self.pending_phase_times.iter_mut().zip(times) {
            *pending += spent;
        }
    }

    /// Drain the per-phase wall-clock accumulated since the last call —
    /// feeds the `fan_out/t1..t3` phases (Figure 6's split).
    pub fn take_phase_times(&mut self) -> [Duration; 3] {
        std::mem::take(&mut self.pending_phase_times)
    }
}

thread_local! {
    static TLS_SCRATCH: RefCell<FitScratch> = RefCell::new(FitScratch::new());
}

/// Run `f` with this thread's fitting arena.
///
/// Worker threads are persistent (`smda-engines`' pool), so the
/// thread-local amounts to one arena per pool slot, warm across runs. If
/// the arena is already borrowed further up the stack (a fit callback
/// fitting again), `f` gets a fresh temporary arena instead — correctness
/// never depends on which arena is handed out.
pub fn with_fit_scratch<R>(f: impl FnOnce(&mut FitScratch) -> R) -> R {
    TLS_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut FitScratch::new()),
    })
}

/// `t.round() as i32` — half away from zero, saturating, NaN to 0 —
/// without the libm call `f64::round` is on baseline x86-64. The
/// truncating cast gives the integer part; `t` minus it is the fractional
/// part, exact in `f64` whenever the cast did not saturate; and when it
/// did, the saturating step leaves the saturated value `round` would cast
/// to as well.
fn round_to_i32(t: f64) -> i32 {
    let whole = t as i32;
    let fraction = t - whole as f64;
    if fraction >= 0.5 {
        whole.saturating_add(1)
    } else if fraction <= -0.5 {
        whole.saturating_sub(1)
    } else {
        whole
    }
}

/// Hours `start..end` of a [`BinPlan`]'s order share the integer `key`.
#[derive(Debug, Clone, Copy)]
struct Bin {
    key: i32,
    start: usize,
    end: usize,
}

/// Groups one series' values by the `round_to_i32` key of another —
/// a drop-in for building a `BTreeMap<i32, Vec<f64>>` per consumer and
/// iterating it — with everything that depends on the key series alone
/// (which hours share a bin, the bins' ascending order) planned once and
/// kept until a different key series is handed in.
///
/// The plan holds a copy of the key series it was built from and
/// [`prepare`](Self::prepare) compares it bit for bit on every use, so
/// reuse never depends on where a slice lives or on who held the arena
/// before. One plan holds one key series: a caller alternating two on one
/// arena rebuilds each time.
#[derive(Debug, Default)]
pub struct BinPlan {
    /// Bit patterns of the key series the plan was built from.
    built_from: Vec<u64>,
    /// Hour indices in bin order: ascending key, ascending hour within.
    /// Empty when the key series holds a non-finite value — such a series
    /// has no bins.
    order: Vec<usize>,
    /// The non-empty bins, ascending by key.
    bins: Vec<Bin>,
    /// One consumer's values, in `order`.
    gathered: Vec<f64>,
    /// Build-time tables: each hour's key, and the counting sort's
    /// per-key cursors (never longer than the series, see `build`).
    hour_keys: Vec<i32>,
    cursors: Vec<usize>,
    pending_builds: u64,
}

impl BinPlan {
    /// Make this the plan of `key_series`: a content compare against the
    /// series the plan already describes, and a rebuild only if they
    /// differ in any bit of any hour (or in length).
    pub fn prepare(&mut self, key_series: &[f64]) {
        let same = self.built_from.len() == key_series.len()
            && self
                .built_from
                .iter()
                .zip(key_series)
                .fold(0, |differing, (&built, x)| {
                    differing | (built ^ x.to_bits())
                })
                == 0;
        if !same {
            self.build(key_series);
        }
    }

    fn build(&mut self, key_series: &[f64]) {
        self.pending_builds += 1;
        self.built_from.clear();
        self.built_from
            .extend(key_series.iter().map(|x| x.to_bits()));
        self.order.clear();
        self.bins.clear();
        // A NaN has no bin, and one poisons the year (as in the baseline).
        if !key_series.iter().fold(true, |ok, x| ok & x.is_finite()) {
            return;
        }
        self.hour_keys.clear();
        self.hour_keys
            .extend(key_series.iter().map(|&x| round_to_i32(x)));
        let (Some(&min), Some(&max)) = (self.hour_keys.iter().min(), self.hour_keys.iter().max())
        else {
            return;
        };
        let n = key_series.len();
        // In `i64`: the span of two saturated keys does not fit an `i32`.
        let span = max as i64 - min as i64 + 1;
        if span <= n as i64 {
            // Dense keys: a stable counting sort of the hours.
            let slot = |key: i32| (key as i64 - min as i64) as usize;
            self.cursors.clear();
            self.cursors.resize(span as usize + 1, 0);
            for &key in &self.hour_keys {
                self.cursors[slot(key) + 1] += 1;
            }
            for s in 0..span as usize {
                self.cursors[s + 1] += self.cursors[s];
            }
            self.order.resize(n, 0);
            for (hour, &key) in self.hour_keys.iter().enumerate() {
                let cursor = &mut self.cursors[slot(key)];
                self.order[*cursor] = hour;
                *cursor += 1;
            }
        } else {
            // Keys spread wider than the series is long (a year holding
            // ±3e9 spans all of `i32`): no table per key, sort the hours.
            let hour_keys = &self.hour_keys;
            self.order.extend(0..n);
            self.order
                .sort_unstable_by_key(|&hour| (hour_keys[hour], hour));
        }
        let mut start = 0;
        while start < n {
            let key = self.hour_keys[self.order[start]];
            let len = self.order[start..]
                .iter()
                .take_while(|&&hour| self.hour_keys[hour] == key)
                .count();
            self.bins.push(Bin {
                key,
                start,
                end: start + len,
            });
            start += len;
        }
    }

    /// Bring `values` — one value per hour of the prepared key series —
    /// into bin order. `None` if any of them is not finite: a NaN has no
    /// rank.
    ///
    /// # Panics
    /// Panics if `values` is shorter than the prepared key series.
    pub fn gather(&mut self, values: &[f64]) -> Option<GatheredBins<'_>> {
        let mut finite = true;
        self.gathered.clear();
        self.gathered.extend(self.order.iter().map(|&hour| {
            let v = values[hour];
            finite &= v.is_finite();
            v
        }));
        finite.then_some(GatheredBins {
            bins: &self.bins,
            gathered: &self.gathered,
        })
    }
}

/// One consumer's values sitting in a [`BinPlan`]'s bins.
#[derive(Debug)]
pub struct GatheredBins<'a> {
    bins: &'a [Bin],
    gathered: &'a [f64],
}

impl GatheredBins<'_> {
    /// Visit each non-empty bin in ascending key order as
    /// `(key, values)`, the bin's values in ascending hour order.
    pub fn for_each(self, mut visit: impl FnMut(i32, &[f64])) {
        for bin in self.bins {
            visit(bin.key, &self.gathered[bin.start..bin.end]);
        }
    }
}

/// A reusable (x, y) point buffer — holds one percentile curve.
#[derive(Debug, Default)]
pub struct CurveBuffer {
    /// Point x-coordinates (temperatures, ascending for 3-line).
    pub x: Vec<f64>,
    /// Point y-coordinates (percentile consumption).
    pub y: Vec<f64>,
}

impl CurveBuffer {
    /// Empty both coordinate buffers, keeping capacity.
    pub fn clear(&mut self) {
        self.x.clear();
        self.y.clear();
    }

    /// Append one point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.x.push(x);
        self.y.push(y);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the buffer holds no points.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// Slots kept past the last prefix sum and the last cached tail SSE, so
/// that a vector of breakpoints starting at any of them loads whole: the
/// widest tier's lanes.
const LANE_PAD: usize = 8;

/// Prefix sums enabling O(1) least-squares line fits over any point
/// range, with retained buffers.
#[derive(Debug, Default)]
pub struct SegmentSums {
    points: usize,
    sx: Vec<f64>,
    sy: Vec<f64>,
    sxx: Vec<f64>,
    sxy: Vec<f64>,
    syy: Vec<f64>,
    tail_sse: Vec<f64>,
}

impl SegmentSums {
    /// Rebuild the prefix sums over `(x, y)`, reusing capacity.
    ///
    /// # Panics
    /// Panics if `x` and `y` differ in length.
    pub fn build(&mut self, x: &[f64], y: &[f64]) {
        assert_eq!(x.len(), y.len(), "x and y must have equal length");
        let n = x.len();
        self.points = n;
        for buf in [
            &mut self.sx,
            &mut self.sy,
            &mut self.sxx,
            &mut self.sxy,
            &mut self.syy,
        ] {
            buf.clear();
            buf.resize(n + 1 + LANE_PAD, 0.0);
        }
        for i in 0..n {
            self.sx[i + 1] = self.sx[i] + x[i];
            self.sy[i + 1] = self.sy[i] + y[i];
            self.sxx[i + 1] = self.sxx[i] + x[i] * x[i];
            self.sxy[i + 1] = self.sxy[i] + x[i] * y[i];
            self.syy[i + 1] = self.syy[i] + y[i] * y[i];
        }
    }

    /// Cache the SSE of the line through points `j..n` for every `j` in
    /// `from..=to`: a breakpoint search asks for each of them once per
    /// *first* breakpoint, and the answer never depends on that one.
    fn cache_tail_sse(&mut self, from: usize, to: usize) {
        let n = self.points;
        self.tail_sse.clear();
        self.tail_sse.resize(to + 1 + LANE_PAD, 0.0);
        for j in from..=to {
            self.tail_sse[j] = self.fit(j, n).2;
        }
    }

    /// The 3-line search's two breakpoints over the `n` points last
    /// built: the first strict minimum, in `(i, j)` order, of
    /// `fit(0, i).2 + fit(i, j).2 + fit(j, n).2` over `m ≤ i ≤ n − 2m` and
    /// `i + m ≤ j ≤ n − m`, as `(total, i, j)` — `(∞, m, 2m)` when no
    /// total is below `+∞`, and a NaN total never wins.
    ///
    /// Each `i` scores its `j` a vector at a time, at the active tier's
    /// width: lane `l` computes `fit(i, j + l).2` with the scalar
    /// [`fit`](Self::fit)'s operations in its order, both of its
    /// branches, and keeps the one `|den| < 1e-9` picks (a select, not a
    /// branch). Each lane keeps the first strict minimum of the
    /// totals it scored — the `total < best` of a scalar loop over its
    /// own `(i, j)` — and the lanes' winners meet at the end, the least
    /// total first and the earliest `(i, j)` among equal ones, which is
    /// the first strict minimum of the whole order.
    ///
    /// # Panics
    /// Panics unless `1 ≤ m` and `3m ≤ n`.
    pub fn best_split(&mut self, m: usize) -> (f64, usize, usize) {
        let n = self.points;
        assert!(
            m >= 1 && 3 * m <= n,
            "no split of {n} points into segments of {m}"
        );
        self.cache_tail_sse(2 * m, n - m);
        let lanes = |winners: &[(f64, usize, usize)]| {
            winners
                .iter()
                .fold((f64::INFINITY, m, 2 * m), |best, &lane| {
                    let earlier = (lane.1, lane.2) < (best.1, best.2);
                    if lane.0 < best.0 || (lane.0 == best.0 && earlier) {
                        lane
                    } else {
                        best
                    }
                })
        };
        match widest_lanes() {
            Widest::Portable(portable) => lanes(&best_split_lanes::<_, 8>(portable, self, m)),
            // SAFETY: the token proves AVX2.
            #[cfg(target_arch = "x86_64")]
            Widest::Avx2(avx2) => lanes(&unsafe { best_split_avx2(avx2, self, m) }),
            // SAFETY: the token proves AVX-512F.
            #[cfg(target_arch = "x86_64")]
            Widest::Avx512(avx512) => lanes(&unsafe { best_split_avx512(avx512, self, m) }),
        }
    }

    /// OLS over points `lo..hi`; returns `(intercept, slope, sse)`.
    /// Falls back to a horizontal line through the mean when the range is
    /// degenerate (a single distinct x).
    pub fn fit(&self, lo: usize, hi: usize) -> (f64, f64, f64) {
        let n = (hi - lo) as f64;
        let sx = self.sx[hi] - self.sx[lo];
        let sy = self.sy[hi] - self.sy[lo];
        let sxx = self.sxx[hi] - self.sxx[lo];
        let sxy = self.sxy[hi] - self.sxy[lo];
        let syy = self.syy[hi] - self.syy[lo];
        let den = n * sxx - sx * sx;
        if den.abs() < 1e-9 {
            let mean = sy / n;
            let sse = syy - 2.0 * mean * sy + n * mean * mean;
            return (mean, 0.0, sse.max(0.0));
        }
        let slope = (n * sxy - sx * sy) / den;
        let intercept = (sy - slope * sx) / n;
        // SSE from moments: Σ(y − a − bx)² expanded.
        let sse = syy + n * intercept * intercept + slope * slope * sxx
            - 2.0 * intercept * sy
            - 2.0 * slope * sxy
            + 2.0 * intercept * slope * sx;
        (intercept, slope, sse.max(0.0))
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn best_split_avx2(avx2: Avx2, sums: &SegmentSums, m: usize) -> [(f64, usize, usize); 4] {
    best_split_lanes(avx2, sums, m)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn best_split_avx512(avx512: Avx512, sums: &SegmentSums, m: usize) -> [(f64, usize, usize); 8] {
    best_split_lanes(avx512, sums, m)
}

/// [`SegmentSums::best_split`]'s search on `W` lanes: each lane's first
/// strict minimum as `(total, i, j)`.
#[inline(always)]
fn best_split_lanes<L: Lanes<Array = [f64; W]>, const W: usize>(
    simd: L,
    sums: &SegmentSums,
    m: usize,
) -> [(f64, usize, usize); W] {
    note_body::<L>("split");
    let n = sums.points;
    let at = |s: &[f64], j: usize| simd.load(&s[j..].as_chunks::<W>().0[0]);
    let ramp = simd.load(&std::array::from_fn(|l| l as f64));
    // Lanes past the last second breakpoint score NaN, which never wins.
    let (past_last, nan) = (simd.splat((n - m + 1) as f64), simd.splat(f64::NAN));
    let mut best = simd.splat(f64::INFINITY);
    let mut best_i = simd.splat(m as f64);
    let mut best_j = simd.splat((2 * m) as f64);
    for i in m..=(n - 2 * m) {
        let head = simd.splat(sums.fit(0, i).2);
        let prefixes = [&sums.sx, &sums.sy, &sums.sxx, &sums.sxy, &sums.syy];
        // Loops, not `map`: a closure the compiler leaves out of line
        // would lose this frame's target features, and the lane methods
        // inside it with them.
        let mut from = [simd.zero(); 5];
        for (from, prefix) in from.iter_mut().zip(prefixes) {
            *from = simd.splat(prefix[i]);
        }
        let first = simd.splat(i as f64);
        for j in (i + m..=n - m).step_by(W) {
            let mut moments = [simd.zero(); 5];
            for ((moment, prefix), from) in moments.iter_mut().zip(prefixes).zip(from) {
                *moment = simd.sub(at(prefix, j), from);
            }
            let count = simd.add(simd.splat((j - i) as f64), ramp);
            let middle = segment_sse(simd, count, moments);
            let second = simd.add(simd.splat(j as f64), ramp);
            let total = simd.add(simd.add(head, middle), at(&sums.tail_sse, j));
            let total = simd.select_lt(second, past_last, total, nan);
            best_i = simd.select_lt(total, best, first, best_i);
            best_j = simd.select_lt(total, best, second, best_j);
            best = simd.select_lt(total, best, total, best);
        }
    }
    let (best, best_i, best_j) = (simd.store(best), simd.store(best_i), simd.store(best_j));
    std::array::from_fn(|l| (best[l], best_i[l] as usize, best_j[l] as usize))
}

/// [`SegmentSums::fit`]'s SSE in each lane from a range's point count
/// and its five moment differences `[sx, sy, sxx, sxy, syy]`: the same
/// operations in the same order, both branches computed and the flat
/// line's kept where `|den| < 1e-9` (false for a NaN `den`, as in the
/// scalar test), then `max(sse, 0)`, which like `f64::max` takes `0.0`
/// for a NaN.
#[inline(always)]
fn segment_sse<L: Lanes>(simd: L, count: L::Vector, moments: [L::Vector; 5]) -> L::Vector {
    let [sx, sy, sxx, sxy, syy] = moments;
    let two = simd.splat(2.0);
    let den = simd.sub(simd.mul(count, sxx), simd.mul(sx, sx));
    let mean = simd.div(sy, count);
    let flat = simd.add(
        simd.sub(syy, simd.mul(simd.mul(two, mean), sy)),
        simd.mul(simd.mul(count, mean), mean),
    );
    let slope = simd.div(simd.sub(simd.mul(count, sxy), simd.mul(sx, sy)), den);
    let intercept = simd.div(simd.sub(sy, simd.mul(slope, sx)), count);
    let mut line = simd.add(syy, simd.mul(simd.mul(count, intercept), intercept));
    line = simd.add(line, simd.mul(simd.mul(slope, slope), sxx));
    line = simd.sub(line, simd.mul(simd.mul(two, intercept), sy));
    line = simd.sub(line, simd.mul(simd.mul(two, slope), sxy));
    line = simd.add(
        line,
        simd.mul(simd.mul(simd.mul(two, intercept), slope), sx),
    );
    // `|den| < 1e-9` as `-1e-9 < den && den < 1e-9`: negation is exact.
    let tiny = simd.splat(1e-9);
    let inside = simd.select_lt(simd.splat(-1e-9), den, flat, line);
    let sse = simd.select_lt(den, tiny, inside, line);
    simd.max(sse, simd.zero())
}

/// Result of an in-place normal-equation solve — the fixed-array twin of
/// [`MultipleFit`](crate::regression::MultipleFit). Only the first `cols`
/// entries of [`beta`](ScratchFit::beta) are meaningful.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScratchFit {
    /// Coefficients; entries past the design's column count are zero.
    pub beta: [f64; SCRATCH_MAX_COLS],
    /// Residual sum of squares.
    pub sse: f64,
    /// Coefficient of determination against the mean model.
    pub r2: f64,
    /// Number of observations.
    pub n: usize,
}

/// One hour of [`NormalEq::fit_hourly_ar`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HourlyFit {
    /// The hour's regression; `None` exactly where
    /// [`ols_multiple`](crate::regression::ols_multiple) returns `None`
    /// (fewer days than columns, rank-deficient design).
    pub fit: Option<ScratchFit>,
    /// Mean response over the fitted days.
    pub mean_y: f64,
    /// Mean exogenous value over the fitted days.
    pub mean_x: f64,
}

/// Package coefficients and the two residual sums as `ols_multiple` does.
fn scratch_fit(coefficients: &[f64], rows: usize, sse: f64, syy: f64) -> ScratchFit {
    let mut beta = [0.0; SCRATCH_MAX_COLS];
    beta[..coefficients.len()].copy_from_slice(coefficients);
    ScratchFit {
        beta,
        sse,
        r2: if syy > 0.0 { 1.0 - sse / syy } else { f64::NAN },
        n: rows,
    }
}

/// Fixed-capacity normal-equation solver: gram matrix, Cholesky factor,
/// and solution vectors live in `SCRATCH_MAX_COLS`-sized arrays; the
/// design matrix is never materialized on the fast path.
#[derive(Debug)]
pub struct NormalEq {
    gram: [f64; SCRATCH_MAX_COLS * SCRATCH_MAX_COLS],
    factor: [f64; SCRATCH_MAX_COLS * SCRATCH_MAX_COLS],
    xty: [f64; SCRATCH_MAX_COLS],
    z: [f64; SCRATCH_MAX_COLS],
    beta: [f64; SCRATCH_MAX_COLS],
    /// Retained design and response buffers for the rare QR fallback.
    design: Vec<f64>,
    response: Vec<f64>,
}

impl Default for NormalEq {
    fn default() -> Self {
        NormalEq {
            gram: [0.0; SCRATCH_MAX_COLS * SCRATCH_MAX_COLS],
            factor: [0.0; SCRATCH_MAX_COLS * SCRATCH_MAX_COLS],
            xty: [0.0; SCRATCH_MAX_COLS],
            z: [0.0; SCRATCH_MAX_COLS],
            beta: [0.0; SCRATCH_MAX_COLS],
            design: Vec::new(),
            response: Vec::new(),
        }
    }
}

impl NormalEq {
    /// Fit `y = Xβ` where row `r` of the design is produced by
    /// `fill_row(r, row)` into a `cols`-long slice. Bit-identical to
    /// [`ols_multiple`](crate::regression::ols_multiple) on the same design (see the module docs for the
    /// argument), including its `None` conditions: under-determined
    /// systems and rank-deficient designs.
    ///
    /// `fill_row` must be deterministic — it is called up to three times
    /// per row (gram pass, possible QR fallback, residual pass).
    ///
    /// # Panics
    /// Panics if `y.len() != rows` or `cols` is 0 or exceeds
    /// [`SCRATCH_MAX_COLS`].
    pub fn solve(
        &mut self,
        rows: usize,
        cols: usize,
        fill_row: &mut dyn FnMut(usize, &mut [f64]),
        y: &[f64],
    ) -> Option<ScratchFit> {
        assert_eq!(y.len(), rows, "y length must equal design rows");
        assert!(
            (1..=SCRATCH_MAX_COLS).contains(&cols),
            "cols must be in 1..={SCRATCH_MAX_COLS}"
        );
        if rows < cols {
            return None;
        }

        // Accumulate XᵀX (upper triangle, `Matrix::gram` order) and Xᵀy
        // (`Matrix::t_vec` order) in one pass over regenerated rows.
        self.gram[..cols * cols].fill(0.0);
        self.xty[..cols].fill(0.0);
        let mut row = [0.0; SCRATCH_MAX_COLS];
        let row = &mut row[..cols];
        // Each gram/xty entry is an independent accumulator updated by
        // one `+= a * x` per row, so the dispatched `axpy` (scalar or
        // AVX2 lanes) is bit-identical to the original scalar loop.
        for r in 0..rows {
            fill_row(r, row);
            for i in 0..cols {
                let a = row[i];
                if a == 0.0 {
                    continue;
                }
                crate::simd::axpy(&mut self.gram[i * cols + i..i * cols + cols], a, &row[i..]);
            }
            crate::simd::axpy(&mut self.xty[..cols], y[r], row);
        }

        self.beta_from_moments(rows, cols, &mut |design, response| {
            for r in 0..rows {
                fill_row(r, row);
                design.extend_from_slice(row);
            }
            response.extend_from_slice(y);
        })?;

        // Residuals: regenerate rows once more, predicting via the same
        // left-to-right zip-sum as `ols_multiple`.
        let my = y.iter().sum::<f64>() / rows as f64;
        let mut sse = 0.0;
        let mut syy = 0.0;
        for (r, &yr) in y.iter().enumerate() {
            fill_row(r, row);
            let pred: f64 = row.iter().zip(&self.beta).map(|(a, b)| a * b).sum();
            let e = yr - pred;
            sse += e * e;
            let d = yr - my;
            syy += d * d;
        }
        Some(scratch_fit(&self.beta[..cols], rows, sse, syy))
    }

    /// Fit, for each hour of day, `y[d] = β·[1, y[d−1], y[d−2], y[d−3],
    /// x[d]]` over days `3..days` of two day-major series (24 values per
    /// day) — 24 regressions, each bit-identical to
    /// [`ols_multiple`](crate::regression::ols_multiple) on that hour's
    /// materialized design, and to `Iterator::sum` for the two means.
    ///
    /// The hours are accumulated side by side in SIMD lanes, eight or four
    /// to a vector (see the module docs); only the 24 tiny solves run one
    /// after another.
    ///
    /// # Panics
    /// Panics if either series holds fewer than `days` whole days.
    pub fn fit_hourly_ar(
        &mut self,
        y: &[f64],
        x: &[f64],
        days: usize,
    ) -> [HourlyFit; HOURS_PER_DAY] {
        let rows = days.saturating_sub(LANE_LAGS);
        let mut out = [HourlyFit {
            fit: None,
            mean_y: 0.0,
            mean_x: 0.0,
        }; HOURS_PER_DAY];
        let moments = lagged_moments(y, x, days);
        let mean_y = moments.sum_y.map(|s| s / rows as f64);
        let mut beta = [[0.0; HOURS_PER_DAY]; LANE_COLS];
        let mut solved = [false; HOURS_PER_DAY];
        for (h, fit) in out.iter_mut().enumerate() {
            fit.mean_y = mean_y[h];
            fit.mean_x = moments.sum_x[h] / rows as f64;
            if rows < LANE_COLS {
                continue;
            }
            let mut entry = 0;
            for i in 0..LANE_COLS {
                for j in i..LANE_COLS {
                    self.gram[i * LANE_COLS + j] = moments.gram[entry][h];
                    entry += 1;
                }
                self.xty[i] = moments.xty[i][h];
            }
            let found = self.beta_from_moments(rows, LANE_COLS, &mut |design, response| {
                for day in LANE_LAGS..days {
                    design.push(1.0);
                    for lag in 1..=LANE_LAGS {
                        design.push(y[(day - lag) * HOURS_PER_DAY + h]);
                    }
                    design.push(x[day * HOURS_PER_DAY + h]);
                    response.push(y[day * HOURS_PER_DAY + h]);
                }
            });
            if found.is_some() {
                solved[h] = true;
                for i in 0..LANE_COLS {
                    beta[i][h] = self.beta[i];
                }
            }
        }
        let (sse, syy) = lagged_residuals(y, x, days, &beta, &mean_y);
        for (h, fit) in out.iter_mut().enumerate().filter(|&(h, _)| solved[h]) {
            let beta = beta.map(|coefficient| coefficient[h]);
            fit.fit = Some(scratch_fit(&beta, rows, sse[h], syy[h]));
        }
        out
    }

    /// Moments in → β out, the step every fit shares: mirror the upper
    /// triangle of `self.gram`, Cholesky-solve against `self.xty` into
    /// `self.beta`, and where the gram is not numerically positive
    /// definite fall back to the shared Householder QR on the design
    /// `materialize` writes (row-major, then the responses) into the
    /// retained buffers. Allocation there is amortized — the buffers
    /// survive in the arena — and the path only triggers on
    /// rank-deficient-near designs, exactly when `ols_multiple` pays for
    /// it too. `None` when QR finds the design rank deficient.
    fn beta_from_moments(
        &mut self,
        rows: usize,
        cols: usize,
        materialize: &mut dyn FnMut(&mut Vec<f64>, &mut Vec<f64>),
    ) -> Option<()> {
        // The Cholesky loop reads the lower triangle.
        for i in 0..cols {
            for j in 0..i {
                self.gram[i * cols + j] = self.gram[j * cols + i];
            }
        }
        if self.cholesky(cols) {
            return Some(());
        }
        self.design.clear();
        self.response.clear();
        materialize(&mut self.design, &mut self.response);
        let x = Matrix::from_vec(rows, cols, std::mem::take(&mut self.design));
        let solved = qr_least_squares(&x, &self.response);
        self.design = x.into_vec();
        self.beta[..cols].copy_from_slice(&solved?);
        Some(())
    }

    /// Cholesky-factor the gram matrix and solve into `self.beta`,
    /// mirroring `cholesky_solve` operation for operation. Returns
    /// `false` when the gram is not (numerically) positive definite.
    fn cholesky(&mut self, n: usize) -> bool {
        self.factor[..n * n].fill(0.0);
        for i in 0..n {
            for j in 0..=i {
                let mut s = self.gram[i * n + j];
                for k in 0..j {
                    s -= self.factor[i * n + k] * self.factor[j * n + k];
                }
                if i == j {
                    if s <= 0.0 || !s.is_finite() {
                        return false;
                    }
                    self.factor[i * n + j] = s.sqrt();
                } else {
                    self.factor[i * n + j] = s / self.factor[j * n + j];
                }
            }
        }
        // Forward substitution: L z = Xᵀy.
        for i in 0..n {
            let mut s = self.xty[i];
            for k in 0..i {
                s -= self.factor[i * n + k] * self.z[k];
            }
            self.z[i] = s / self.factor[i * n + i];
        }
        // Back substitution: Lᵀ β = z.
        for i in (0..n).rev() {
            let mut s = self.z[i];
            for k in i + 1..n {
                s -= self.factor[k * n + i] * self.beta[k];
            }
            self.beta[i] = s / self.factor[i * n + i];
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regression::ols_multiple;
    use std::collections::BTreeMap;

    /// The grouping the plan replaces: values pushed under their hour's
    /// key in hour order, bins iterated in ascending key order.
    fn by_btreemap(key_series: &[f64], values: &[f64]) -> Vec<(i32, Vec<u64>)> {
        let mut map: BTreeMap<i32, Vec<u64>> = BTreeMap::new();
        for (x, v) in key_series.iter().zip(values) {
            map.entry(x.round() as i32).or_default().push(v.to_bits());
        }
        map.into_iter().collect()
    }

    fn planned(plan: &mut BinPlan, key_series: &[f64], values: &[f64]) -> Vec<(i32, Vec<u64>)> {
        let mut got = Vec::new();
        plan.prepare(key_series);
        plan.gather(values)
            .expect("finite fixture")
            .for_each(|key, values| {
                got.push((key, values.iter().map(|v| v.to_bits()).collect()));
            });
        got
    }

    #[test]
    fn integer_rounding_is_round_half_away_then_saturate() {
        let edges = [
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            -0.5,
            1.5,
            -1.5,
            2.5,
            -2.5,
            17.499999999999996,
            -17.500000000000004,
            2147483646.5,
            2147483647.4,
            2147483647.5,
            -2147483648.5,
            4294967296.25,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            4503599627370497.0,
        ];
        for t in edges {
            assert_eq!(round_to_i32(t), t.round() as i32, "t = {t:e}");
        }
        for i in -4000..4000 {
            let t = i as f64 / 8.0 + 1e-9;
            assert_eq!(round_to_i32(t), t.round() as i32, "t = {t}");
            let t = i as f64 / 8.0;
            assert_eq!(round_to_i32(t), t.round() as i32, "t = {t}");
        }
    }

    #[test]
    fn dense_groups_match_btreemap() {
        let key_series = [3.2, -2.0, 2.5, 0.4, -1.5, 7.0, -0.4, 0.0];
        let values = [1.0, -2.0, 3.0, -0.0, 5.0, 0.0, 7.0, 8.0];
        let mut plan = BinPlan::default();
        assert_eq!(
            planned(&mut plan, &key_series, &values),
            by_btreemap(&key_series, &values)
        );
    }

    #[test]
    fn dense_groups_empty_input_visits_nothing() {
        let mut plan = BinPlan::default();
        assert_eq!(planned(&mut plan, &[], &[]), vec![]);
        assert_eq!(plan.pending_builds, 0, "nothing to build for no hours");
    }

    #[test]
    fn dense_groups_reuse_is_clean() {
        let mut plan = BinPlan::default();
        // First use: wide key range, many values.
        let wide: Vec<f64> = (0..100).map(|i| (i % 17) as f64 - 8.0).collect();
        let _ = planned(&mut plan, &wide, &wide);
        // Second use must not see leftovers from the first.
        let key_series = [5.0, 5.2, 9.0];
        let values = [1.0, 2.0, 3.0];
        assert_eq!(
            planned(&mut plan, &key_series, &values),
            by_btreemap(&key_series, &values)
        );
    }

    #[test]
    fn plan_is_built_once_per_key_series_and_compared_by_content() {
        let a: Vec<f64> = (0..500).map(|i| ((i * 7) % 23) as f64 * 0.5).collect();
        // One mantissa bit of one hour: the same bins, another series.
        let mut b = a.clone();
        b[123] = f64::from_bits(b[123].to_bits() ^ 1);
        let values: Vec<f64> = (0..500).map(|i| (i % 11) as f64).collect();
        let mut scratch = FitScratch::new();
        for _ in 0..5 {
            // A copy at another address is the same series.
            let _ = planned(&mut scratch.plan, &a.clone(), &values);
        }
        assert_eq!(scratch.take_plan_builds(), 1);
        for key_series in [&b, &a, &a] {
            let got = planned(&mut scratch.plan, key_series, &values);
            assert_eq!(got, by_btreemap(key_series, &values));
        }
        assert_eq!(scratch.take_plan_builds(), 2);
        assert_eq!(scratch.take_plan_builds(), 0);
    }

    #[test]
    fn plan_sorts_where_counting_would_need_a_table_wider_than_the_series() {
        // ±3e9 saturate `round_to_i32`: the key span overflows an `i32`.
        // ±4e8 do not, but a counting table over them is gigabytes.
        for far in [3e9, 4e8] {
            let key_series = [1.0, far, -far, 1.4, far, 0.6, -2.0];
            let values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
            let mut plan = BinPlan::default();
            assert_eq!(
                planned(&mut plan, &key_series, &values),
                by_btreemap(&key_series, &values)
            );
            assert!(plan.cursors.len() <= key_series.len() + 1);
        }
    }

    #[test]
    fn non_finite_series_have_no_bins_and_no_ranks() {
        let mut plan = BinPlan::default();
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            plan.prepare(&[1.0, poison, 2.0]);
            let mut bins = 0;
            plan.gather(&[1.0, 2.0, 3.0])
                .expect("the values are finite")
                .for_each(|_, _| bins += 1);
            assert_eq!(bins, 0, "key series holding {poison}");
            plan.prepare(&[1.0, 1.2, 2.0]);
            assert!(plan.gather(&[1.0, poison, 3.0]).is_none());
        }
        // Neither verdict outlives the series it was about.
        assert_eq!(
            planned(&mut plan, &[1.0, 1.2, 2.0], &[1.0, 2.0, 3.0]),
            by_btreemap(&[1.0, 1.2, 2.0], &[1.0, 2.0, 3.0])
        );
    }

    #[test]
    fn normal_eq_matches_ols_multiple_bitwise() {
        // A well-conditioned quadratic design.
        let xs: Vec<f64> = (0..60).map(|i| i as f64 / 7.0).collect();
        let y: Vec<f64> = xs.iter().map(|&v| 1.0 - 0.5 * v + 0.25 * v * v).collect();
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![1.0, x, x * x]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let reference = ols_multiple(&Matrix::from_rows(&refs), &y).unwrap();

        let mut ne = NormalEq::default();
        let fit = ne
            .solve(
                xs.len(),
                3,
                &mut |r, row| {
                    row[0] = 1.0;
                    row[1] = xs[r];
                    row[2] = xs[r] * xs[r];
                },
                &y,
            )
            .unwrap();
        for c in 0..3 {
            assert_eq!(fit.beta[c].to_bits(), reference.beta[c].to_bits());
        }
        assert_eq!(fit.sse.to_bits(), reference.sse.to_bits());
        assert_eq!(fit.r2.to_bits(), reference.r2.to_bits());
        assert_eq!(fit.n, reference.n);
    }

    #[test]
    fn normal_eq_rejects_what_ols_multiple_rejects() {
        let mut ne = NormalEq::default();
        // Under-determined: 1 row, 3 cols.
        assert!(ne
            .solve(
                1,
                3,
                &mut |_, row| row.copy_from_slice(&[1.0, 2.0, 3.0]),
                &[1.0]
            )
            .is_none());
        // Collinear columns: col1 = 2 × col0.
        let y = [1.0, 2.0, 3.0];
        assert!(ne
            .solve(
                3,
                2,
                &mut |r, row| {
                    row[0] = (r + 1) as f64;
                    row[1] = 2.0 * (r + 1) as f64;
                },
                &y
            )
            .is_none());
    }

    #[test]
    fn normal_eq_qr_fallback_matches_reference() {
        // Near-collinear design: Cholesky fails, QR succeeds — in both
        // implementations, with bit-identical results.
        let n = 12;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64;
                vec![1.0, t, 2.0 * t + 1e-13 * (i % 3) as f64]
            })
            .collect();
        let y: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let reference = ols_multiple(&Matrix::from_rows(&refs), &y);

        let mut ne = NormalEq::default();
        let fit = ne.solve(n, 3, &mut |r, row| row.copy_from_slice(&rows[r]), &y);
        match (reference, fit) {
            (Some(want), Some(got)) => {
                for c in 0..3 {
                    assert_eq!(got.beta[c].to_bits(), want.beta[c].to_bits());
                }
                assert_eq!(got.sse.to_bits(), want.sse.to_bits());
            }
            (None, None) => {}
            (want, got) => panic!("divergent outcomes: reference {want:?} vs scratch {got:?}"),
        }
    }

    /// Hour `hour` of `got` against what the lane fit replaces: that
    /// hour's materialized design through `ols_multiple`, and the two
    /// `Iterator::sum` means.
    fn assert_hour_matches_reference(
        got: &HourlyFit,
        y: &[f64],
        x: &[f64],
        days: usize,
        hour: usize,
    ) {
        let (design, response) = crate::testutil::hour_design(y, x, days, hour);
        let rows = response.len();
        let want = ols_multiple(&design, &response);
        match (&want, &got.fit) {
            (None, None) => {}
            (Some(want), Some(got)) => {
                for c in 0..LANE_COLS {
                    assert_eq!(
                        got.beta[c].to_bits(),
                        want.beta[c].to_bits(),
                        "hour {hour} beta[{c}]"
                    );
                }
                assert_eq!(got.sse.to_bits(), want.sse.to_bits(), "hour {hour} sse");
                assert_eq!(got.r2.to_bits(), want.r2.to_bits(), "hour {hour} r2");
                assert_eq!(got.n, want.n);
            }
            _ => panic!("hour {hour}: reference {want:?} vs lane fit {:?}", got.fit),
        }
        let mean_y = response.iter().sum::<f64>() / rows as f64;
        let mean_x = (LANE_LAGS..days)
            .map(|day| x[day * HOURS_PER_DAY + hour])
            .sum::<f64>()
            / rows as f64;
        assert_eq!(got.mean_y.to_bits(), mean_y.to_bits(), "hour {hour} mean_y");
        assert_eq!(got.mean_x.to_bits(), mean_x.to_bits(), "hour {hour} mean_x");
    }

    #[test]
    fn hourly_ar_matches_ols_multiple_hour_by_hour_even_when_dirty() {
        let days = 60;
        let (y, x) = crate::testutil::awkward_year(days, 17);
        let mut dirty = NormalEq::default();
        let junk = crate::testutil::awkward_year(9, 5);
        let _ = dirty.fit_hourly_ar(&junk.0, &junk.1, 9);
        let mut fresh = NormalEq::default();
        for solver in [&mut dirty, &mut fresh] {
            let fits = solver.fit_hourly_ar(&y, &x, days);
            for (hour, fit) in fits.iter().enumerate() {
                assert_hour_matches_reference(fit, &y, &x, days, hour);
            }
            // The fixture's two special hours took their special paths.
            assert!(
                fits[5].fit.is_none(),
                "constant hour must be rank deficient"
            );
            assert!(fits[9].fit.is_some(), "near-collinear hour must still fit");
            assert_eq!(
                solver.design.len(),
                (days - LANE_LAGS) * LANE_COLS,
                "the near-collinear hour must have gone through the QR fallback"
            );
        }
    }

    #[test]
    fn hourly_ar_handles_zero_years_and_years_too_short_to_fit() {
        let mut solver = NormalEq::default();
        for fill in [0.0, -0.0] {
            let days = 20;
            let (y, x) = (
                vec![fill; days * HOURS_PER_DAY],
                vec![3.5; days * HOURS_PER_DAY],
            );
            for (hour, fit) in solver.fit_hourly_ar(&y, &x, days).iter().enumerate() {
                assert!(fit.fit.is_none());
                assert_hour_matches_reference(fit, &y, &x, days, hour);
            }
        }
        // 7 days leave 4 rows for 5 columns: under-determined, as in
        // `ols_multiple`.
        let (y, x) = crate::testutil::awkward_year(7, 3);
        assert!(solver
            .fit_hourly_ar(&y, &x, 7)
            .iter()
            .all(|f| f.fit.is_none()));
    }

    #[test]
    #[should_panic(expected = "shorter than")]
    fn hourly_ar_rejects_a_short_series() {
        let (y, x) = crate::testutil::awkward_year(10, 3);
        let _ = NormalEq::default().fit_hourly_ar(&y[..200], &x, 10);
    }

    #[test]
    fn cached_tail_sse_is_the_fit_it_caches() {
        let x: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| (v * 0.7).sin() + 0.1 * v).collect();
        let mut sums = SegmentSums::default();
        // Dirty the cache with a longer curve first.
        sums.build(&[0.0; 40], &[1.0; 40]);
        sums.cache_tail_sse(0, 40);
        sums.build(&x, &y);
        sums.cache_tail_sse(6, 27);
        for j in 6..=27 {
            assert_eq!(
                sums.tail_sse[j].to_bits(),
                sums.fit(j, 30).2.to_bits(),
                "j={j}"
            );
        }
    }

    #[test]
    fn segment_sums_reuse_shrinks_cleanly() {
        let mut sums = SegmentSums::default();
        sums.build(&[1.0, 2.0, 3.0, 4.0], &[1.0, 2.0, 3.0, 4.0]);
        // Rebuild over a shorter series; stale tail sums must be gone.
        sums.build(&[1.0, 2.0], &[3.0, 5.0]);
        let (intercept, slope, sse) = sums.fit(0, 2);
        assert!((slope - 2.0).abs() < 1e-12);
        assert!((intercept - 1.0).abs() < 1e-12);
        assert!(sse < 1e-18);
    }

    #[test]
    fn reuse_accounting_counts_second_fit_onwards() {
        let mut s = FitScratch::new();
        s.note_fit();
        assert_eq!(s.take_reuses(), 0);
        s.note_fit();
        s.note_fit();
        assert_eq!(s.take_reuses(), 2);
        assert_eq!(s.take_reuses(), 0);
    }

    #[test]
    fn phase_times_accumulate_until_taken() {
        let mut s = FitScratch::new();
        let ms = Duration::from_millis;
        s.note_phase_times([ms(3), ms(2), ms(1)]);
        s.note_phase_times([ms(30), ms(20), Duration::ZERO]);
        assert_eq!(s.take_phase_times(), [ms(33), ms(22), ms(1)]);
        assert_eq!(s.take_phase_times(), [Duration::ZERO; 3]);
    }

    #[test]
    fn tls_scratch_is_reused_and_reentrancy_safe() {
        let reuses = with_fit_scratch(|s| {
            s.note_fit();
            // Re-entrant borrow gets a fresh arena, not a panic.
            with_fit_scratch(|inner| {
                inner.note_fit();
                assert_eq!(inner.take_reuses(), 0);
            });
            s.note_fit();
            s.take_reuses()
        });
        assert!(reuses >= 1);
    }
}
