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
//! * [`DenseGroups`] replaces `BTreeMap<i32, Vec<f64>>` grouping with a
//!   counting sort over dense integer keys. The scatter pass walks the
//!   input left to right, so values land in each bin in input order —
//!   exactly the order `Vec::push` produced under the map — and bins are
//!   visited in ascending key order, exactly the map's iteration order.
//! * [`SegmentSums`] rebuilds the 3-line fitter's prefix sums into
//!   retained buffers, every slot overwritten, so a dirty instance and a
//!   fresh one (what the baseline fit passes) hold the same values.
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
//!   the day-major year the four hours of a lane block are adjacent, so
//!   hour *h*'s 15 gram sums, 5 `Xᵀy` sums, `Σy` and `Σx` are lane
//!   `h % 4` of 22 accumulator vectors
//!   ([`lagged_moments`], which carries the
//!   per-lane argument: same addends, same day order, product rounded
//!   before the add, the zero skip reproduced by masking the product to
//!   `+0.0`). Each hour's moments then go through the same scalar
//!   moments-in → β-out step as [`NormalEq::solve`] (Cholesky, else QR on
//!   that hour's materialized design), and the residual pass is lane-wise
//!   again ([`lagged_residuals`]). The
//!   response mean is summed once and serves both the fit's `r²` and the
//!   caller's fallback — it was the same `Iterator::sum` twice.
//! * [`quantiles_by_selection`](crate::quantile::quantiles_by_selection)
//!   replaces "sort the bin, read two quantiles" in 3-line T1 with
//!   selection of the at most four ranks the interpolation reads; its
//!   docs show why the one thing selection may change — which of several
//!   tied `±0.0` lands on a rank — cannot reach the interpolated value.
//!
//! The contract is enforced by proptests in this crate (dirty scratch ≡
//! fresh scratch ≡ allocating reference, scalar tier ≡ AVX2 tier) and by
//! `smda-bench --check fits` end to end.

// Triangular factorizations index several buffers with mutually offset
// ranges; explicit indices mirror `linalg` and read better here.
#![allow(clippy::needless_range_loop)]

use std::cell::RefCell;

use smda_types::HOURS_PER_DAY;

use crate::linalg::{qr_least_squares, Matrix};
use crate::simd::{lagged_moments, lagged_residuals, LANE_COLS, LANE_LAGS, LANE_WIDTH};

/// Widest design matrix the in-place solver accepts (columns). The 3-line
/// hinge basis uses 4, PAR uses `PAR_ORDER + 2 = 5`; 6 leaves headroom.
pub const SCRATCH_MAX_COLS: usize = 6;

/// Per-worker scratch arena for model fitting, reused across consumers.
///
/// The sub-buffers are independent public fields so a caller can borrow
/// them disjointly (e.g. fill [`FitScratch::curves`] from inside a
/// [`DenseGroups::for_each_group`] callback).
#[derive(Debug, Default)]
pub struct FitScratch {
    /// Dense integer-key grouper (3-line T1 percentile extraction).
    pub groups: DenseGroups,
    /// Two (x, y) point buffers: `curves[0]` low, `curves[1]` high.
    pub curves: [CurveBuffer; 2],
    /// Prefix sums for O(1) segment fits (3-line T2).
    pub segments: SegmentSums,
    /// In-place normal-equation solver (3-line T3 hinge, PAR hours).
    pub solver: NormalEq,
    used: bool,
    pending_reuses: u64,
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

/// Groups `f64` values by a dense integer key without allocating per
/// group — a drop-in for building a `BTreeMap<i32, Vec<f64>>` and
/// iterating it, bit-identical in both value order and key order.
#[derive(Debug, Default)]
pub struct DenseGroups {
    keys: Vec<i32>,
    counts: Vec<usize>,
    starts: Vec<usize>,
    cursors: Vec<usize>,
    grouped: Vec<f64>,
}

impl DenseGroups {
    /// Group `value_of(i)` by `key_of(i)` for `i in 0..n` and visit each
    /// non-empty group in ascending key order as `(key, &mut values)`.
    /// `key_of` runs once per `i`; the keys wait in a retained buffer for
    /// the count and scatter passes.
    ///
    /// Values within a group appear in input order (the scatter pass is
    /// a stable counting sort), so `visit` sees exactly the slice the
    /// map-based grouper would have built; it may reorder the slice in
    /// place (e.g. select within it) — the buffer is rebuilt on the next
    /// call.
    pub fn for_each_group(
        &mut self,
        n: usize,
        key_of: impl Fn(usize) -> i32,
        value_of: impl Fn(usize) -> f64,
        mut visit: impl FnMut(i32, &mut [f64]),
    ) {
        if n == 0 {
            return;
        }
        self.keys.clear();
        self.keys.extend((0..n).map(key_of));
        let (mut min_key, mut max_key) = (i32::MAX, i32::MIN);
        for &k in &self.keys {
            min_key = min_key.min(k);
            max_key = max_key.max(k);
        }
        let bin_of = |k: i32| (k - min_key) as usize;
        let bins = bin_of(max_key) + 1;

        self.counts.clear();
        self.counts.resize(bins, 0);
        for &k in &self.keys {
            self.counts[bin_of(k)] += 1;
        }

        self.starts.clear();
        self.starts.resize(bins + 1, 0);
        for b in 0..bins {
            self.starts[b + 1] = self.starts[b] + self.counts[b];
        }

        self.cursors.clear();
        self.cursors.extend_from_slice(&self.starts[..bins]);
        self.grouped.clear();
        self.grouped.resize(n, 0.0);
        for (i, &k) in self.keys.iter().enumerate() {
            let b = bin_of(k);
            self.grouped[self.cursors[b]] = value_of(i);
            self.cursors[b] += 1;
        }

        for b in 0..bins {
            let (lo, hi) = (self.starts[b], self.starts[b + 1]);
            if lo == hi {
                continue;
            }
            visit(min_key + b as i32, &mut self.grouped[lo..hi]);
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

/// Prefix sums enabling O(1) least-squares line fits over any point
/// range, with retained buffers.
#[derive(Debug, Default)]
pub struct SegmentSums {
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
        for buf in [
            &mut self.sx,
            &mut self.sy,
            &mut self.sxx,
            &mut self.sxy,
            &mut self.syy,
        ] {
            buf.clear();
            buf.resize(n + 1, 0.0);
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
    /// `from..=to`, for [`tail_sse`](Self::tail_sse): a breakpoint search
    /// asks for each of them once per *first* breakpoint, and the answer
    /// never depends on that one.
    pub fn cache_tail_sse(&mut self, from: usize, to: usize) {
        let n = self.sx.len() - 1;
        self.tail_sse.clear();
        self.tail_sse.resize(to + 1, 0.0);
        for j in from..=to {
            self.tail_sse[j] = self.fit(j, n).2;
        }
    }

    /// `self.fit(j, n).2` as cached by the last
    /// [`cache_tail_sse`](Self::cache_tail_sse) over a range holding `j`.
    pub fn tail_sse(&self, j: usize) -> f64 {
        self.tail_sse[j]
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
            cols >= 1 && cols <= SCRATCH_MAX_COLS,
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
    /// The hours are accumulated four at a time in SIMD lanes (see the
    /// module docs); only the 24 tiny solves run one after another.
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
        for (block, fits) in out.chunks_exact_mut(LANE_WIDTH).enumerate() {
            let hour = block * LANE_WIDTH;
            let moments = lagged_moments(y, x, days, hour);
            let mean_y = moments.sum_y.map(|s| s / rows as f64);
            let mut beta = [[0.0; LANE_WIDTH]; LANE_COLS];
            let mut solved = [false; LANE_WIDTH];
            for lane in 0..LANE_WIDTH {
                fits[lane].mean_y = mean_y[lane];
                fits[lane].mean_x = moments.sum_x[lane] / rows as f64;
                if rows < LANE_COLS {
                    continue;
                }
                let mut entry = 0;
                for i in 0..LANE_COLS {
                    for j in i..LANE_COLS {
                        self.gram[i * LANE_COLS + j] = moments.gram[entry][lane];
                        entry += 1;
                    }
                    self.xty[i] = moments.xty[i][lane];
                }
                let h = hour + lane;
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
                    solved[lane] = true;
                    for i in 0..LANE_COLS {
                        beta[i][lane] = self.beta[i];
                    }
                }
            }
            let (sse, syy) = lagged_residuals(y, x, days, hour, &beta, mean_y);
            for lane in (0..LANE_WIDTH).filter(|&l| solved[l]) {
                let beta = beta.map(|coefficient| coefficient[lane]);
                fits[lane].fit = Some(scratch_fit(&beta, rows, sse[lane], syy[lane]));
            }
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

    #[test]
    fn dense_groups_match_btreemap() {
        let keys = [3, -2, 3, 0, -2, 7, 0, 0];
        let vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let mut map: BTreeMap<i32, Vec<f64>> = BTreeMap::new();
        for (k, v) in keys.iter().zip(&vals) {
            map.entry(*k).or_default().push(*v);
        }
        let mut got: Vec<(i32, Vec<f64>)> = Vec::new();
        let mut groups = DenseGroups::default();
        groups.for_each_group(
            keys.len(),
            |i| keys[i],
            |i| vals[i],
            |k, v| got.push((k, v.to_vec())),
        );
        let want: Vec<(i32, Vec<f64>)> = map.into_iter().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn dense_groups_empty_input_visits_nothing() {
        let mut groups = DenseGroups::default();
        groups.for_each_group(0, |_| 0, |_| 0.0, |_, _| panic!("no groups expected"));
    }

    #[test]
    fn dense_groups_reuse_is_clean() {
        let mut groups = DenseGroups::default();
        // First use: wide key range, many values.
        groups.for_each_group(100, |i| (i % 17) as i32 - 8, |i| i as f64, |_, _| {});
        // Second use must not see leftovers from the first.
        let mut seen = Vec::new();
        groups.for_each_group(
            3,
            |i| [5, 5, 9][i],
            |i| [1.0, 2.0, 3.0][i],
            |k, v| seen.push((k, v.to_vec())),
        );
        assert_eq!(seen, vec![(5, vec![1.0, 2.0]), (9, vec![3.0])]);
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
    fn dense_groups_ask_for_each_key_once() {
        let calls = std::cell::Cell::new(0);
        let mut groups = DenseGroups::default();
        groups.for_each_group(
            50,
            |i| {
                calls.set(calls.get() + 1);
                (i % 7) as i32
            },
            |i| i as f64,
            |_, _| {},
        );
        assert_eq!(calls.get(), 50);
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
                sums.tail_sse(j).to_bits(),
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
