//! Cache-aware similarity kernels over a contiguous series matrix.
//!
//! The Section 3.4 similarity task is the benchmark's deliberately
//! quadratic stressor: `n × n` cosine over 8760-point series. This module
//! is the memory-layout- and cache-aware substrate for it:
//!
//! * [`SeriesMatrix`] — one contiguous row-major `n × stride` `f64`
//!   buffer, built once per run and shared (wrap it in an `Arc`). Rows
//!   are unit-normalized at fill time so all-pairs cosine reduces to
//!   plain dot products. Each row carries a sketch in the same
//!   allocation — per hour of the week ([`SKETCH_PERIOD`]) its scaled
//!   mean and residual norm — whose dot product bounds the row's score
//!   against any other, so [`top_k_query`] scores only rows that can
//!   still enter the top k (DESIGN.md §9).
//! * [`SeriesMatrixBuilder`] — fills the matrix **in parallel**: workers
//!   write disjoint rows through a shared reference, with a per-row
//!   atomic write-once flag making double writes a panic instead of a
//!   data race.
//! * `PairScorer` — the one pair-scoring loop nest under every
//!   all-pairs entry point. The similarity walk ([`similarity_walk`])
//!   lends it row blocks — rows of the resident matrix read in place in
//!   chain order, or band buffers filled from a streamed source — and it
//!   keeps a block of query rows hot in cache while candidate rows
//!   stream through, computes each `(i, j)` score
//!   **at most once** — in register blocks ([`dot_block`]) of four query
//!   rows by two candidate rows on `ymm`, eight by four on `zmm` under
//!   the AVX-512 tier, each pair the canonical [`dot`] bit for
//!   bit — and credits it to both rows' bounded top-k buffers. It skips
//!   a register block whose sketch bounds ([`Sketches`]: the resident
//!   matrix's, or those a streamed walk's sketch pass computed) miss both
//!   endpoints' thresholds: running k-th scores, its own or those other
//!   workers walking the same rows published (DESIGN.md §9).
//! * [`top_k_tiled`], [`top_k_tiled_partial`] — the in-memory names of
//!   that walk; [`merge_partials`] merges the partials of workers that
//!   together claimed every unit of it.
//! * [`top_k_query`] — one row against the rest, no walk: every other
//!   row ranked by its sketch bound against the query, then scored in
//!   that order until the first bound below the query's running k-th
//!   score.
//!
//! **Exactness**, for every tier and schedule (DESIGN.md §9): the same
//! row bits go through `dot`'s own operations in `dot`'s order (a
//! block keeps four accumulator lanes per pair, DESIGN.md §14), so each
//! pair's score is the naive scan's ([`crate::top_k_cosine`]) bit for
//! bit; a top-k buffer keeps a function of the *set* of hits pushed, not
//! their order, under the total order (score desc, index asc) of
//! [`select_top_k`]; and the k best of a query are among the k best of
//! any subset that contains them, so merging partials over any
//! partition of the pairs reproduces the sequential result. A pair is
//! skipped only when its widened sketch bound, which no computed score
//! exceeds, lies below a score that some worker's list of each of its
//! rows already holds k times over, so it could enter neither row's
//! final list.

use std::cell::UnsafeCell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

use crate::quantile::{from_ordered_key, ordered_key};
use crate::simd::{active_tier, dot_block, SimdTier, WIDE_COLS, WIDE_ROWS};
use crate::similarity::{dot, norm2, select_top_k, SimilarityMatch};
use crate::walk::{similarity_walk, triangle_row, Resident, RowBlock};

/// Every matrix starts on this byte boundary: a cache line, and a
/// multiple of the 32-byte vector loads the kernels issue, so with a
/// stride that is a multiple of 8 no load ever straddles two lines.
/// `malloc` alone gives 16, and the tile kernel ran 28 % slower on the
/// placements that landed at 16 mod 32.
const MATRIX_ALIGN: usize = 64;

/// Spare `f64`s allocated so the first row can be shifted onto a
/// [`MATRIX_ALIGN`] boundary from any 8-byte-aligned allocation.
const MATRIX_PAD: usize = MATRIX_ALIGN / 8 - 1;

/// Hours a row's sketch folds over: segment `s` holds the hours
/// `t ≡ s (mod 168)`, the same hour of the week across the row, so the
/// sketch's mean part carries the weekly load shape exactly and only
/// the spread around it from week to week is bounded. Of the layouts
/// the `prune` sweep measures (`results/prune_sweep.csv`) it scores the
/// fewest rows under 4.2 % of the row (2 × 168 + 1 values for a year);
/// runs of 48 consecutive hours score twice as many, and at small n
/// leave most queries scoring nearly every row (DESIGN.md §9).
pub const SKETCH_PERIOD: usize = 168;

/// Segments of a `stride`-long row's sketch.
fn sketch_segments(stride: usize) -> usize {
    stride.min(SKETCH_PERIOD)
}

/// Values in one row's longest sketch segment.
fn longest_segment(stride: usize) -> usize {
    stride.div_ceil(SKETCH_PERIOD)
}

/// Values in one row's sketch: an upper bound on the row's norm, then
/// a `(√L·mean, residual norm)` pair per segment of length `L`.
pub(crate) fn sketch_width(stride: usize) -> usize {
    1 + 2 * sketch_segments(stride)
}

/// Where row `i`'s sketch sits in the allocation of a `rows × stride`
/// matrix: past the rows and the [`MATRIX_PAD`] spare values.
fn sketch_cells(rows: usize, stride: usize, i: usize) -> Range<usize> {
    let width = sketch_width(stride);
    let start = rows * stride + MATRIX_PAD + i * width;
    start..start + width
}

/// A row's norm bound is kept only inside `[2⁻²⁵⁶, 2²⁵⁶]`, where no
/// product of two sketches overflows and every underflow is far below
/// the rounding margin; outside it (a zero row, a row of subnormals,
/// an infinity or a NaN) it is stored as NaN, and the row is never
/// skipped.
const SKETCH_NORM_MIN: f64 = f64::from_bits((1023 - 256) << 52);
/// See [`SKETCH_NORM_MIN`].
const SKETCH_NORM_MAX: f64 = f64::from_bits((1023 + 256) << 52);

/// One contiguous row-major `rows × stride` matrix of `f64` series,
/// its first row on a 64-byte boundary, and a sketch per row.
#[derive(Debug)]
pub struct SeriesMatrix {
    /// `offset` unused values, the `rows × stride` matrix, the rest of
    /// the [`MATRIX_PAD`] spare values, then the rows' sketches,
    /// [`sketch_width`] values each.
    data: Vec<f64>,
    offset: usize,
    rows: usize,
    stride: usize,
}

impl Clone for SeriesMatrix {
    /// A fresh allocation lands elsewhere, so the copy is re-aligned
    /// row by row rather than cloned byte for byte.
    fn clone(&self) -> SeriesMatrix {
        let builder = SeriesMatrixBuilder::new(self.rows, self.stride);
        for i in 0..self.rows {
            builder.set_row(i, self.row(i));
        }
        builder.finish()
    }
}

impl PartialEq for SeriesMatrix {
    /// Shape and row values; where the rows sit in the allocation is
    /// not part of a matrix's value.
    fn eq(&self, other: &SeriesMatrix) -> bool {
        (self.rows, self.stride) == (other.rows, other.stride) && self.values() == other.values()
    }
}

impl SeriesMatrix {
    /// Build from row vectors, unit-normalizing each row (zero rows stay
    /// zero) — the sequential convenience path. All rows must share one
    /// length.
    ///
    /// # Panics
    /// Panics if row lengths differ.
    pub fn from_rows_normalized(rows: &[Vec<f64>]) -> SeriesMatrix {
        let stride = rows.first().map_or(0, Vec::len);
        let builder = SeriesMatrixBuilder::new(rows.len(), stride);
        for (i, r) in rows.iter().enumerate() {
            builder.set_row_normalized(i, r);
        }
        builder.finish()
    }

    /// Number of series (rows).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row length (the paper's 8760 hours).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// One series as a slice.
    ///
    /// # Panics
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.values()[i * self.stride..(i + 1) * self.stride]
    }

    /// All rows, row-major.
    fn values(&self) -> &[f64] {
        &self.data[self.offset..self.offset + self.rows * self.stride]
    }

    /// Every row's sketch.
    pub(crate) fn sketches(&self) -> Sketches<'_> {
        let start = sketch_cells(self.rows, self.stride, 0).start;
        let width = sketch_width(self.stride);
        Sketches::new(&self.data[start..start + self.rows * width], self.stride)
    }
}

/// The sketches of rows `stride` values long, `sketch_width` values
/// each, row after row: what bounds a pair's score without reading
/// either row (DESIGN.md §9). A [`SeriesMatrix`] holds its rows' in its
/// own allocation; a streamed walk computes them in one pass over its
/// source (`walk::Streamed`), with the same arithmetic, so both hold the
/// same bits. Public only so that `walk::Pruning` can carry it.
#[derive(Debug, Clone, Copy)]
pub struct Sketches<'a> {
    cells: &'a [f64],
    stride: usize,
}

impl<'a> Sketches<'a> {
    /// The sketches `cells` holds, of rows `stride` values long.
    pub(crate) fn new(cells: &'a [f64], stride: usize) -> Sketches<'a> {
        Sketches { cells, stride }
    }

    /// Rows sketched.
    fn rows(&self) -> usize {
        self.cells.len() / sketch_width(self.stride)
    }

    /// Row `i`'s sketch: its norm bound, then its segment pairs.
    fn sketch(&self, i: usize) -> &'a [f64] {
        let width = sketch_width(self.stride);
        &self.cells[i * width..(i + 1) * width]
    }

    /// Row `i`'s segment pairs: the half of its sketch whose dot product
    /// with another row's is their bound.
    fn pairs(&self, i: usize) -> &'a [f64] {
        &self.sketch(i)[1..]
    }

    /// Row `q`'s share of a bound's widening: the rounding margin of
    /// DESIGN.md §9, `ε · (stride + 5L + 3S + 32)` (L the longest
    /// segment, S the segments), times row `q`'s norm bound.
    fn widening(&self, q: usize) -> f64 {
        let (longest, segments) = (longest_segment(self.stride), sketch_segments(self.stride));
        let margin = (self.stride + 5 * longest + 3 * segments + 32) as f64 * f64::EPSILON;
        margin * self.sketch(q)[0]
    }

    /// `bound`, the sketch bound of row `j` against a row whose
    /// [`Sketches::widening`] is `scale`, widened by `scale` times
    /// row `j`'s norm bound, so that no computed score of the pair
    /// exceeds it. A NaN (a row without a usable sketch) reads as +∞: the
    /// pair is scored, never skipped.
    fn widened(&self, bound: f64, scale: f64, j: usize) -> f64 {
        let widened = bound + scale * self.sketch(j)[0];
        if widened.is_nan() {
            f64::INFINITY
        } else {
            widened
        }
    }

    /// The widened bound of row `q` against each row `ranked` lists,
    /// four rows per [`dot_block`] over the sketches.
    fn bound_against(&self, q: usize, ranked: &mut [Ranked]) {
        let (scale, pairs_q) = (self.widening(q), self.pairs(q));
        let mut groups = ranked.chunks_exact_mut(4);
        for group in &mut groups {
            let candidates: [&[f64]; 4] = std::array::from_fn(|c| self.pairs(group[c].index));
            let [bounds] = dot_block([pairs_q], candidates);
            for (r, bound) in group.iter_mut().zip(bounds) {
                r.bound = self.widened(bound, scale, r.index);
            }
        }
        for r in groups.into_remainder() {
            r.bound = self.widened(dot(pairs_q, self.pairs(r.index)), scale, r.index);
        }
    }

    /// Every row but `q`, each with its widened bound against row `q`,
    /// highest bound first (ties by index).
    fn rank_by_bound(&self, q: usize) -> Vec<Ranked> {
        let mut ranked: Vec<Ranked> = (0..self.rows())
            .filter(|&j| j != q)
            .map(|index| Ranked { bound: 0.0, index })
            .collect();
        self.bound_against(q, &mut ranked);
        ranked.sort_unstable_by(|a, b| b.bound.total_cmp(&a.bound).then(a.index.cmp(&b.index)));
        ranked
    }

    /// Every row once, similar rows side by side: row 0 first, then
    /// always the row not yet placed whose widened bound against the
    /// last placed row is highest (ties by index). The all-pairs walk
    /// lends its bands in this order, so that a band pair near the
    /// diagonal holds rows that score high against each other and set
    /// every row's threshold early (DESIGN.md §9). A heuristic over the
    /// sketches alone — `n(n−1)/2` sketch dot products, no row read — and
    /// a function of the sketches, so every worker builds the same one.
    pub(crate) fn chain(&self) -> Vec<usize> {
        let rows = self.rows();
        if rows == 0 {
            return Vec::new();
        }
        let mut last = 0;
        let mut order = Vec::with_capacity(rows);
        order.push(last);
        let mut rest: Vec<Ranked> = (1..rows)
            .map(|index| Ranked { bound: 0.0, index })
            .collect();
        let higher =
            |x: &Ranked, y: &Ranked| x.bound.total_cmp(&y.bound).then(y.index.cmp(&x.index));
        while !rest.is_empty() {
            self.bound_against(last, &mut rest);
            let best = (0..rest.len())
                .max_by(|&x, &y| higher(&rest[x], &rest[y]))
                .unwrap_or(0);
            last = rest.swap_remove(best).index;
            order.push(last);
        }
        order
    }
}

/// `values` scaled to unit L2 norm by `norm`, their [`norm2`], into
/// `out` (zero rows copied verbatim, others divided element by element),
/// and the sketch of what was written into `sketch` ([`sketch_width`]
/// values): [`SeriesMatrixBuilder::set_row_normalized`]'s one pass, which
/// a streamed walk's sketch pass runs too, so that both hold the same
/// bits.
#[inline(always)]
pub(crate) fn write_normalized(out: &mut [f64], sketch: &mut [f64], values: &[f64], norm: f64) {
    if norm == 0.0 {
        write_row(out, sketch, values, |v| v);
    } else {
        write_row(out, sketch, values, |v| v / norm);
    }
}

/// A candidate row and its widened bound.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    bound: f64,
    index: usize,
}

/// `f64` cell writable through a shared reference; rows of a
/// [`SeriesMatrixBuilder`] are written through these.
#[repr(transparent)]
struct SyncCell(UnsafeCell<f64>);

// SAFETY: all mutation goes through `SeriesMatrixBuilder::set_row*`,
// which takes a per-row atomic write-once flag before touching the
// cells, so no two threads ever write the same row.
unsafe impl Sync for SyncCell {}

/// Parallel row-wise filler for a [`SeriesMatrix`].
///
/// Workers share `&SeriesMatrixBuilder` and call
/// [`SeriesMatrixBuilder::set_row_normalized`] for disjoint rows; a
/// per-row atomic flag turns any double write into a panic, so the
/// unsafe interior never races.
pub struct SeriesMatrixBuilder {
    cells: Box<[SyncCell]>,
    /// Cells skipped so row 0 starts on a [`MATRIX_ALIGN`] boundary.
    offset: usize,
    written: Vec<AtomicBool>,
    rows: usize,
    stride: usize,
}

impl SeriesMatrixBuilder {
    /// A builder for a `rows × stride` matrix; every row must be set
    /// exactly once before [`SeriesMatrixBuilder::finish`].
    pub fn new(rows: usize, stride: usize) -> SeriesMatrixBuilder {
        let cells: Box<[SyncCell]> = (0..rows * stride + MATRIX_PAD + rows * sketch_width(stride))
            .map(|_| SyncCell(UnsafeCell::new(0.0)))
            .collect();
        // Bytes up to the next boundary; the allocation is 8-aligned,
        // so that is a whole number of cells, at most `MATRIX_PAD`.
        let offset = (cells.as_ptr() as usize).wrapping_neg() % MATRIX_ALIGN / 8;
        SeriesMatrixBuilder {
            cells,
            offset,
            written: (0..rows).map(|_| AtomicBool::new(false)).collect(),
            rows,
            stride,
        }
    }

    /// Claim row `row` for a write of `len` values: its cells and its
    /// sketch's, each handed out once, by the write-once flag.
    #[allow(clippy::mut_from_ref)]
    fn claim_row(&self, row: usize, len: usize) -> (&mut [f64], &mut [f64]) {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        assert_eq!(len, self.stride, "row {row}: length {len} != stride");
        assert!(
            !self.written[row].swap(true, Ordering::AcqRel),
            "row {row} written twice"
        );
        let cells = |range: Range<usize>| {
            let len = range.len();
            let cells = self.cells[range].as_ptr();
            let base = UnsafeCell::raw_get(cells.cast::<UnsafeCell<f64>>());
            // SAFETY: the flag just taken makes this the only access to
            // the row's cells and to its sketch's, which no other row
            // shares; `SyncCell` is repr(transparent) over
            // `UnsafeCell<f64>`, so `len` cells are `len` contiguous `f64`s.
            unsafe { std::slice::from_raw_parts_mut(base, len) }
        };
        let start = self.offset + row * self.stride;
        (
            cells(start..start + self.stride),
            cells(sketch_cells(self.rows, self.stride, row)),
        )
    }

    /// Copy `values` into row `row` verbatim, and write its sketch.
    ///
    /// # Panics
    /// Panics on an out-of-bounds row, a length mismatch, or a second
    /// write to the same row.
    pub fn set_row(&self, row: usize, values: &[f64]) {
        let (out, sketch) = self.claim_row(row, values.len());
        write_row(out, sketch, values, |v| v);
    }

    /// Copy `values` into row `row` scaled to unit L2 norm (bit-identical
    /// to [`crate::normalize_all`]: zero rows are copied verbatim, others
    /// divide each element by the same [`norm2`]), and write its sketch
    /// in the same pass.
    ///
    /// # Panics
    /// Same conditions as [`SeriesMatrixBuilder::set_row`].
    pub fn set_row_normalized(&self, row: usize, values: &[f64]) {
        let (out, sketch) = self.claim_row(row, values.len());
        write_normalized(out, sketch, values, norm2(values));
    }

    /// Finish into an immutable [`SeriesMatrix`].
    ///
    /// # Panics
    /// Panics if any row was never written (a bug in the filling code —
    /// error paths should drop the builder instead).
    pub fn finish(self) -> SeriesMatrix {
        if let Some(row) = self.written.iter().position(|w| !w.load(Ordering::Acquire)) {
            panic!("row {row} never written");
        }
        let len = self.cells.len();
        // SAFETY: `SyncCell` is repr(transparent) over `UnsafeCell<f64>`,
        // itself repr(transparent) over `f64`; no thread holds a pointer
        // into the cells once the builder is consumed by value.
        let data = unsafe {
            let raw = Box::into_raw(self.cells);
            Vec::from(Box::from_raw(raw as *mut [f64]))
        };
        debug_assert_eq!(data.len(), len);
        SeriesMatrix {
            data,
            offset: self.offset,
            rows: self.rows,
            stride: self.stride,
        }
    }
}

/// Slack added to each segment's residual, as a multiple of its sum of
/// squares, for segments of at most `longest` values: more than the
/// rounding of `Σx² − (Σx)²/L` can take away, so the stored residual is
/// never below the exact one (DESIGN.md §9).
fn residual_slack(longest: usize) -> f64 {
    4.0 * (longest + 8) as f64 * f64::EPSILON
}

/// Write `f(v)` for each `v` of `values` into `out`, and the sketch of
/// what was written into `sketch`. The pass that writes the row sums
/// each hour of the week and its squares ([`add_hours`]); a short pass
/// over those sums then makes each pair `(Σx/√L, √(Σx² − (Σx)²/L))`,
/// the residual rounded up by [`residual_slack`], and the norm bound.
/// The sketch is a function of the written values alone, so a row
/// copied verbatim gets the sketch it had.
fn write_row(out: &mut [f64], sketch: &mut [f64], values: &[f64], f: impl Fn(f64) -> f64) {
    let mut sums = [0.0f64; SKETCH_PERIOD];
    let mut squares = [0.0f64; SKETCH_PERIOD];
    let groups = sums
        .chunks_exact_mut(SKETCH_LANES)
        .zip(squares.chunks_exact_mut(SKETCH_LANES));
    for (first, (sums, squares)) in (0..values.len()).step_by(SKETCH_LANES).zip(groups) {
        let (sum, square) = add_hours(out, values, first, &f);
        sums.copy_from_slice(&sum);
        squares.copy_from_slice(&square);
    }
    // The first `extra` hours of the week occur once more than the rest.
    let (full, extra) = (values.len() / SKETCH_PERIOD, values.len() % SKETCH_PERIOD);
    let slack = residual_slack(longest_segment(values.len()));
    let (norm, pairs) = sketch.split_at_mut(1);
    let mut sumsq = 0.0;
    for (hour, pair) in pairs.chunks_exact_mut(2).enumerate() {
        let len = (full + usize::from(hour < extra)) as f64;
        let (sum, squares) = (sums[hour], squares[hour]);
        let scaled = sum * len.sqrt().recip();
        let centred = (squares - sum * sum * len.recip()).max(0.0);
        let residual = (centred + slack * squares).sqrt();
        pair.copy_from_slice(&[scaled, residual]);
        sumsq += scaled * scaled + residual * residual;
    }
    let bound = sumsq.sqrt();
    norm[0] = if (SKETCH_NORM_MIN..=SKETCH_NORM_MAX).contains(&bound) {
        bound
    } else {
        f64::NAN
    };
}

/// Hours of the week [`add_hours`] writes and sums side by side
/// (`SKETCH_PERIOD` is 21 such groups).
const SKETCH_LANES: usize = 8;

/// `out[t] = f(values[t])` for the hours `t` of the week `first` to
/// `first + 7`, week after week, returning the sums and the sums of
/// squares of what was written, per hour. The sums stay in registers;
/// each step reads and writes eight adjacent values, one week on from
/// the last.
#[inline(always)]
fn add_hours(
    out: &mut [f64],
    values: &[f64],
    first: usize,
    f: &impl Fn(f64) -> f64,
) -> ([f64; SKETCH_LANES], [f64; SKETCH_LANES]) {
    let mut sum = [0.0f64; SKETCH_LANES];
    let mut square = [0.0f64; SKETCH_LANES];
    let mut t = first;
    while t + SKETCH_LANES <= values.len() {
        let v = &values[t..t + SKETCH_LANES];
        let x: [f64; SKETCH_LANES] = std::array::from_fn(|l| f(v[l]));
        out[t..t + SKETCH_LANES].copy_from_slice(&x);
        for l in 0..SKETCH_LANES {
            sum[l] += x[l];
            square[l] += x[l] * x[l];
        }
        t += SKETCH_PERIOD;
    }
    let tail = out.iter_mut().zip(values).skip(t).take(SKETCH_LANES);
    for (l, (o, &v)) in tail.enumerate() {
        *o = f(v);
        sum[l] += *o;
        square[l] += *o * *o;
    }
    (sum, square)
}

/// Tile geometry for the all-pairs kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Query rows per tile: this many rows (× stride × 8 bytes) are kept
    /// hot in cache while candidate rows stream through, so every
    /// candidate load is amortized over `query_block` dot products.
    /// Zero is read as one. Any value yields bit-identical output. The
    /// register-block shape inside a tile is not part of this: it
    /// follows the SIMD tier ([`crate::simd::WIDE_ROWS`]).
    pub query_block: usize,
}

impl Default for TileConfig {
    /// 8 query rows × 8760 f64 ≈ 560 KB resident per tile — sized for a
    /// typical per-core L2 while leaving room for the streaming
    /// candidate rows — and one whole group of eight for the AVX-512
    /// tier's 8 × 4 register block.
    fn default() -> TileConfig {
        TileConfig { query_block: 8 }
    }
}

impl TileConfig {
    /// Rows per query block as the kernel uses it: never zero. It is
    /// also the height of the bands a resident matrix is lent in.
    pub(crate) fn block(&self) -> usize {
        self.query_block.max(1)
    }

    /// How many tile rows (query blocks) an `n`-row matrix splits into —
    /// the unit of work a parallel executor claims.
    pub fn tile_rows(&self, n: usize) -> usize {
        n.div_ceil(self.block())
    }

    /// The tile geometry every engine runs: the default.
    pub fn current() -> TileConfig {
        TileConfig::default()
    }
}

/// What the kernel did, for observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Unordered pairs scored (each credited to both endpoints); the
    /// naive scan scores `n(n-1)` ordered pairs, this kernel at most
    /// `n(n-1)/2`: fewer where sketch bounds let it skip register blocks
    /// (and, over a streamed source, whole band pairs before they are
    /// loaded), all of them where `k = 0` or `k ≥ n − 1`. A query form
    /// counts the rows it scored: [`top_k_query`] at most `n − 1`, fewer
    /// where sketch bounds let it stop early; a streamed source's query
    /// form (`Streamed::top_k_queries`) every row but the query.
    pub pairs_scored: u64,
}

impl KernelStats {
    /// Floating-point operations behind `pairs_scored` (one multiply and
    /// one add per element per pair).
    pub fn flops(&self, stride: usize) -> u64 {
        self.pairs_scored * 2 * stride as u64
    }
}

/// Bounded per-query candidate buffer: holds at most the `k` best hits
/// seen so far under the canonical order (score desc, index asc), using
/// [`select_top_k`] itself for pruning so the kept set is exactly what a
/// full sort would keep — a function of the pushed *set*, not the push
/// order.
#[derive(Debug)]
pub(crate) struct TopKBuffer {
    hits: Vec<SimilarityMatch>,
    k: usize,
    cap: usize,
}

impl TopKBuffer {
    pub(crate) fn new(k: usize) -> TopKBuffer {
        TopKBuffer {
            hits: Vec::new(),
            k,
            // Prune every ~2k pushes: amortized O(1) per push. A k that
            // no list can reach (`usize::MAX`) never prunes.
            cap: k.saturating_mul(2).max(16),
        }
    }

    #[inline]
    fn push(&mut self, m: SimilarityMatch) {
        if self.k == 0 {
            return;
        }
        self.hits.push(m);
        if self.hits.len() >= self.cap {
            select_top_k(&mut self.hits, self.k);
        }
    }

    /// The k-th best score pushed so far, once k hits are held: a hit
    /// scoring strictly below it can neither enter the k best nor tie
    /// into them.
    fn kth(&mut self) -> Option<f64> {
        if self.k == 0 || self.hits.len() < self.k {
            return None;
        }
        select_top_k(&mut self.hits, self.k);
        self.hits.last().map(|h| h.score)
    }

    /// The k best hits seen, best first.
    pub(crate) fn finish(mut self) -> Vec<SimilarityMatch> {
        select_top_k(&mut self.hits, self.k);
        self.hits
    }
}

/// Query rows per register block of the pair sweep on `ymm` (and of
/// what the 8 × 4 `zmm` blocks of the AVX-512 tier leave over).
const BLOCK_ROWS: usize = 4;
/// Candidate rows per such block: 4 × 2 is eight accumulator vectors and
/// three row vectors live, inside AVX2's sixteen registers, and six
/// loads per eight multiply–adds. The AVX-512 tier's shape is
/// [`WIDE_ROWS`] × [`WIDE_COLS`], sized where its kernel lives.
const BLOCK_COLS: usize = 2;

/// `dot(query, block.row(j))` for every `j` in `rows`, handed to `sink`
/// as `(j, dot)` — the one-row scan: four candidate rows per
/// [`dot_block`] call, the last one to three in one smaller call.
#[inline]
fn scan_rows(
    query: &[f64],
    block: RowBlock<'_>,
    rows: Range<usize>,
    mut sink: impl FnMut(usize, f64),
) {
    fn step<const C: usize>(
        query: &[f64],
        block: RowBlock<'_>,
        j: usize,
        sink: &mut impl FnMut(usize, f64),
    ) {
        let [dots] = dot_block(
            [query],
            std::array::from_fn::<_, C, _>(|c| block.row(j + c)),
        );
        for (c, dot) in dots.into_iter().enumerate() {
            sink(j + c, dot);
        }
    }
    let mut j = rows.start;
    while rows.end.saturating_sub(j) >= 4 {
        step::<4>(query, block, j, &mut sink);
        j += 4;
    }
    match rows.end.saturating_sub(j) {
        3 => step::<3>(query, block, j, &mut sink),
        2 => step::<2>(query, block, j, &mut sink),
        1 => step::<1>(query, block, j, &mut sink),
        _ => {}
    }
}

/// One worker's pair-scoring state: a bounded top-k buffer per row of the
/// full matrix, fed over whichever row blocks the similarity walk has
/// lent ([`PairScorer::score`]).
pub(crate) struct PairScorer<'f> {
    bufs: Vec<TopKBuffer>,
    query_block: usize,
    pairs_scored: u64,
    /// Every row's sketch, where blocks are skipped by their bounds.
    sketches: Option<Sketches<'f>>,
    /// Every row's floor, shared with the other workers walking the
    /// same rows (`walk::Pruning`).
    floors: Option<&'f [AtomicI64]>,
}

/// A floor no worker has published: −∞'s [`ordered_key`].
pub(crate) const NO_FLOOR: i64 = ordered_key(f64::NEG_INFINITY);

impl<'f> PairScorer<'f> {
    /// Empty buffers for `rows` rows; `prune` holds their sketches, by
    /// which blocks are skipped, and their floors, one per row, where
    /// other workers share their thresholds.
    pub(crate) fn new(
        rows: usize,
        k: usize,
        cfg: &TileConfig,
        prune: Option<(Sketches<'f>, Option<&'f [AtomicI64]>)>,
    ) -> PairScorer<'f> {
        PairScorer {
            bufs: (0..rows).map(|_| TopKBuffer::new(k)).collect(),
            query_block: cfg.block(),
            pairs_scored: 0,
            sketches: prune.map(|(sketches, _)| sketches),
            floors: prune.and_then(|(_, floors)| floors),
        }
    }

    /// Score the rows of block `a`, one query block at a time so those
    /// rows stay hot in cache while the candidates stream past,
    /// crediting each pair to both endpoints' buffers. Against
    /// `Some(b)`, a block disjoint from `a`, the candidates are all of
    /// `b`. Against `None` they are `a`'s own later rows: the pairs
    /// inside each query block first, then every row of `a` past it, so
    /// that each unordered pair of `a` is scored once.
    ///
    /// Pairs are scored in register blocks ([`dot_block`]) whose shape
    /// follows the SIMD tier, read once per call: under AVX-512, eight
    /// query rows against four candidate rows wherever that many are
    /// left, and the narrower walk over what those blocks leave — one to
    /// three candidates, query rows past the last group of eight; under
    /// every other tier the narrower walk alone ([`PairScorer::sweep`]).
    /// Each pair's score is `dot`'s bit for bit whichever shape computes
    /// it, and the order pairs reach the buffers in is free (module
    /// docs).
    pub(crate) fn score(&mut self, a: RowBlock<'_>, b: Option<RowBlock<'_>>) {
        let wide = active_tier() == SimdTier::Avx512;
        let mut q0 = 0;
        while q0 < a.rows() {
            let q1 = (q0 + self.query_block).min(a.rows());
            let (candidates, first) = match b {
                Some(b) => (b, 0),
                None => {
                    for i in q0..q1 {
                        self.scan(a, i, a, i + 1..q1);
                    }
                    (a, q1)
                }
            };
            let (rows, cols) = (q0..q1, first..candidates.rows());
            if wide {
                let (eights, fours) =
                    self.blocks::<WIDE_ROWS, WIDE_COLS>(a, rows.clone(), candidates, cols.clone());
                self.sweep(a, q0..eights, candidates, fours..cols.end);
                self.sweep(a, eights..q1, candidates, cols);
            } else {
                self.sweep(a, rows, candidates, cols);
            }
            q0 = q1;
        }
    }

    /// `rows` of `a` against `cols` of `b` on the `ymm` shapes: four
    /// query rows against two candidate rows wherever that many are
    /// left, one row against up to four ([`scan_rows`]) for query rows
    /// past the last group of four and for an odd last candidate.
    fn sweep(&mut self, a: RowBlock<'_>, rows: Range<usize>, b: RowBlock<'_>, cols: Range<usize>) {
        let (grouped, paired) =
            self.blocks::<BLOCK_ROWS, BLOCK_COLS>(a, rows.clone(), b, cols.clone());
        for i in grouped..rows.end {
            self.scan(a, i, b, cols.clone());
        }
        // `dot` commutes bitwise, so the candidate can be the one row.
        for j in paired..cols.end {
            self.scan(b, j, a, rows.start..grouped);
        }
    }

    /// The part of `rows` × `cols` that whole `R × C` register blocks
    /// cover, candidates outermost; returns the row and the column where
    /// that part ends. A block of resident rows none of whose pairs can
    /// enter either endpoint's top k is skipped
    /// ([`PairScorer::cannot_enter`]).
    fn blocks<const R: usize, const C: usize>(
        &mut self,
        a: RowBlock<'_>,
        rows: Range<usize>,
        b: RowBlock<'_>,
        cols: Range<usize>,
    ) -> (usize, usize) {
        let row_end = rows.start + rows.len() / R * R;
        let col_end = cols.start + cols.len() / C * C;
        for j in (cols.start..col_end).step_by(C) {
            for i in (rows.start..row_end).step_by(R) {
                if self.cannot_enter::<R, C>(a, i, b, j) {
                    continue;
                }
                let scores = dot_block::<R, C>(
                    std::array::from_fn(|r| a.row(i + r)),
                    std::array::from_fn(|c| b.row(j + c)),
                );
                for (r, row) in scores.into_iter().enumerate() {
                    for (c, dot) in row.into_iter().enumerate() {
                        self.credit(a.index(i + r), b.index(j + c), dot);
                    }
                }
            }
        }
        (row_end, col_end)
    }

    /// Whether the `R × C` block of rows `i..i + R` of `a` against rows
    /// `j..j + C` of `b` holds no pair that can enter either endpoint's
    /// top k: every pair's widened sketch bound
    /// ([`Sketches::widened`]), computed by one [`dot_block`] of the
    /// same shape over the sketches, lies strictly below both endpoints'
    /// thresholds ([`PairScorer::threshold`]). A threshold never exceeds
    /// the final k-th score, so a skipped pair could neither enter nor
    /// tie into either list (DESIGN.md §9). Without sketches, and while an
    /// endpoint has no threshold yet, a block is always scored.
    fn cannot_enter<const R: usize, const C: usize>(
        &mut self,
        a: RowBlock<'_>,
        i: usize,
        b: RowBlock<'_>,
        j: usize,
    ) -> bool {
        let Some(s) = self.sketches else {
            return false;
        };
        let ids: [usize; R] = std::array::from_fn(|r| a.index(i + r));
        let cands: [usize; C] = std::array::from_fn(|c| b.index(j + c));
        let row_kth: [f64; R] = std::array::from_fn(|r| self.threshold(ids[r]));
        let cand_kth: [f64; C] = std::array::from_fn(|c| self.threshold(cands[c]));
        if row_kth
            .iter()
            .chain(&cand_kth)
            .any(|&t| t == f64::NEG_INFINITY)
        {
            return false;
        }
        let bounds = dot_block::<R, C>(ids.map(|g| s.pairs(g)), cands.map(|h| s.pairs(h)));
        for ((bounds, &g), row_floor) in bounds.iter().zip(&ids).zip(row_kth) {
            let scale = s.widening(g);
            for ((&bound, &h), cand_floor) in bounds.iter().zip(&cands).zip(cand_kth) {
                if s.widened(bound, scale, h) >= row_floor.min(cand_floor) {
                    return false;
                }
            }
        }
        true
    }

    /// Whether [`PairScorer::score`] of the band whose rows are `rows`
    /// against the disjoint band whose rows are `cands` would score
    /// nothing, so that neither need be loaded: whole register blocks
    /// cover every pair ([`PairScorer::whole_blocks`]), and every pair
    /// fails [`PairScorer::cannot_enter`]'s test under the thresholds
    /// held now. That test is a conjunction over a block's pairs, and
    /// each pair's bound is `dot`'s bit for bit whatever the shape that
    /// computes it, so it holds for every block exactly when it holds for
    /// every pair; skipping scores nothing, and thresholds only rise.
    pub(crate) fn cannot_enter_band(&mut self, rows: &[usize], cands: &[usize]) -> bool {
        let Some(s) = self.sketches else {
            return false;
        };
        if !self.whole_blocks(rows.len(), cands.len()) {
            return false;
        }
        let mut cand_kth = Vec::with_capacity(cands.len());
        for &h in cands {
            cand_kth.push(self.threshold(h));
        }
        if cand_kth.contains(&f64::NEG_INFINITY) {
            return false;
        }
        for &g in rows {
            let row_kth = self.threshold(g);
            if row_kth == f64::NEG_INFINITY {
                return false;
            }
            let scale = s.widening(g);
            let pairs_g = s.pairs(g);
            let live = |bound: f64, c: usize| {
                s.widened(bound, scale, cands[c]) >= row_kth.min(cand_kth[c])
            };
            let mut c = 0;
            while c + 4 <= cands.len() {
                let four: [&[f64]; 4] = std::array::from_fn(|d| s.pairs(cands[c + d]));
                let [bounds] = dot_block([pairs_g], four);
                if (0..4).any(|d| live(bounds[d], c + d)) {
                    return false;
                }
                c += 4;
            }
            if (c..cands.len()).any(|c| live(dot(pairs_g, s.pairs(cands[c])), c)) {
                return false;
            }
        }
        true
    }

    /// Whether [`PairScorer::score`] of `rows` rows against `cols`
    /// candidates of another band scores every pair in whole register
    /// blocks, none through the one-row scan: the shapes the tier runs
    /// (module docs) tile each query block exactly.
    fn whole_blocks(&self, rows: usize, cols: usize) -> bool {
        let sweep = |r: usize, c: usize| {
            c == 0 || (r.is_multiple_of(BLOCK_ROWS) && (r == 0 || c.is_multiple_of(BLOCK_COLS)))
        };
        let tiled = |r: usize| {
            if active_tier() == SimdTier::Avx512 {
                sweep(r / WIDE_ROWS * WIDE_ROWS, cols % WIDE_COLS) && sweep(r % WIDE_ROWS, cols)
            } else {
                sweep(r, cols)
            }
        };
        (rows < self.query_block || tiled(self.query_block)) && tiled(rows % self.query_block)
    }

    /// Row `g`'s threshold: the higher of its running k-th score and its
    /// floor, which the former raises where it is higher; −∞ while
    /// neither is known. Either is the k-th best of k pairs some worker
    /// scored, so neither exceeds the final k-th score.
    fn threshold(&mut self, g: usize) -> f64 {
        let own = ordered_key(self.bufs[g].kth().unwrap_or(f64::NEG_INFINITY));
        let Some(floor) = self.floors.map(|floors| &floors[g]) else {
            return from_ordered_key(own);
        };
        // Relaxed: a floor publishes no other data, and whichever store
        // a load sees, its value is a k-th score some worker held.
        let shared = floor.load(Ordering::Relaxed);
        if own > shared {
            floor.fetch_max(own, Ordering::Relaxed);
        }
        from_ordered_key(own.max(shared))
    }

    /// Row `i` of `a` against rows `rows` of `b`.
    #[inline]
    fn scan(&mut self, a: RowBlock<'_>, i: usize, b: RowBlock<'_>, rows: Range<usize>) {
        scan_rows(a.row(i), b, rows, |j, dot| {
            self.credit(a.index(i), b.index(j), dot)
        });
    }

    /// Push the pair of rows `gi`, `gj` of the full matrix, whose dot
    /// product is `score`, to both endpoints' buffers.
    #[inline]
    fn credit(&mut self, gi: usize, gj: usize, score: f64) {
        self.pairs_scored += 1;
        self.bufs[gi].push(SimilarityMatch { index: gj, score });
        self.bufs[gj].push(SimilarityMatch { index: gi, score });
    }

    /// Per-row lists of the k best pairs scored, best first.
    pub(crate) fn finish(self) -> (Vec<Vec<SimilarityMatch>>, KernelStats) {
        let stats = KernelStats {
            pairs_scored: self.pairs_scored,
        };
        let matches = self.bufs.into_iter().map(TopKBuffer::finish).collect();
        (matches, stats)
    }
}

/// Each query row (`rows[s]`, row `queries[s]` of the full matrix)
/// against every row of `band` but its own, pushed to the query's list
/// (`lists[s]`) only; returns the pairs scored. Four candidate rows stay
/// hot while every query passes over them ([`scan_rows`]); a query skips
/// its own row by scanning around it.
pub(crate) fn score_queries(
    lists: &mut [TopKBuffer],
    queries: &[usize],
    rows: &[&[f64]],
    band: RowBlock<'_>,
) -> u64 {
    let mut scored = 0;
    for j in (0..band.rows()).step_by(4) {
        let group = j..(j + 4).min(band.rows());
        for ((list, &q), query) in lists.iter_mut().zip(queries).zip(rows) {
            let parts = match group.clone().find(|&r| band.index(r) == q) {
                Some(own) => [group.start..own, own + 1..group.end],
                None => [group.clone(), group.end..group.end],
            };
            for part in parts {
                scan_rows(query, band, part, |c, score| {
                    scored += 1;
                    list.push(SimilarityMatch {
                        index: band.index(c),
                        score,
                    });
                });
            }
        }
    }
    scored
}

/// Query row `query` against the rows of `m` that `ranked` lists,
/// highest widened bound first ([`Sketches::rank_by_bound`]), four at a
/// time through [`dot_block`], pushed to `hits`: every row until it holds
/// k hits, then only rows whose widened bound reaches its k-th score. The
/// first row below it ends the scan, since every row after it is bounded
/// lower still. Returns the rows scored.
fn score_ranked(hits: &mut TopKBuffer, query: &[f64], m: &SeriesMatrix, ranked: &[Ranked]) -> u64 {
    let mut scored = 0;
    let mut rest = ranked;
    loop {
        let kth = hits.kth();
        let live = rest
            .iter()
            .take(4)
            .take_while(|r| kth.is_none_or(|t| r.bound >= t))
            .count();
        if live == 0 {
            return scored;
        }
        let (group, tail) = rest.split_at(live);
        let mut scores = [0.0; 4];
        match <&[Ranked; 4]>::try_from(group) {
            Ok(four) => [scores] = dot_block([query], four.map(|r| m.row(r.index))),
            Err(_) => {
                for (score, r) in scores.iter_mut().zip(group) {
                    *score = dot(query, m.row(r.index));
                }
            }
        }
        for (r, &score) in group.iter().zip(&scores) {
            scored += 1;
            hits.push(SimilarityMatch {
                index: r.index,
                score,
            });
        }
        rest = tail;
    }
}

/// One worker's share of the in-memory all-pairs kernel: the similarity
/// walk over `m` (unit rows), lent as bands of `cfg.query_block` rows in
/// chain order, where each tile row `t` claimed from `claim` (e.g. an
/// atomic counter shared across workers) is diagonal `t` of the band
/// pairs: every band with the band `t` places after it. Returns
/// per-query partial top-k lists (each the exact k best of the pairs
/// this worker was handed — each call builds its own chain and skips
/// only pairs its own running thresholds rule out) plus scoring stats.
///
/// Feed the partials of all workers to [`merge_partials`] to obtain the
/// final answer; the claimed tile rows must partition `0..cfg.tile_rows(n)`
/// across workers or pairs will be double-counted.
///
/// # Panics
/// Panics on a claimed tile row out of range.
pub fn top_k_tiled_partial(
    m: &SeriesMatrix,
    k: usize,
    cfg: &TileConfig,
    claim: &dyn Fn() -> Option<usize>,
) -> (Vec<Vec<SimilarityMatch>>, KernelStats) {
    let tiles = cfg.tile_rows(m.rows());
    let row = || {
        let t = claim()?;
        assert!(t < tiles, "tile row {t} out of range ({tiles})");
        Some(triangle_row(tiles, t))
    };
    let Ok((partial, stats)) = similarity_walk(&Resident::new(m), k, cfg, Some(&row));
    (partial, stats.kernel)
}

/// Merge per-worker partial top-k lists (from [`top_k_tiled_partial`])
/// into the final per-query top-k, best first. Exact: every global top-k
/// hit of a query is in some worker's partial (it is among the k best of
/// any subset containing it), and the canonical order is a total order,
/// so re-selecting over the union reproduces the sequential result bit
/// for bit.
pub fn merge_partials(
    n: usize,
    partials: Vec<Vec<Vec<SimilarityMatch>>>,
    k: usize,
) -> Vec<Vec<SimilarityMatch>> {
    let mut out: Vec<Vec<SimilarityMatch>> = (0..n).map(|_| Vec::new()).collect();
    for partial in partials {
        assert_eq!(partial.len(), n, "partial has wrong row count");
        for (q, hits) in partial.into_iter().enumerate() {
            out[q].extend(hits);
        }
    }
    for hits in &mut out {
        select_top_k(hits, k);
    }
    out
}

/// The sequential tiled symmetric kernel — one worker walking every band
/// pair: for every row of `m` (unit vectors), the `k` most
/// cosine-similar other rows, best first. Bit-identical to
/// [`crate::top_k_cosine`] over the same normalized input.
pub fn top_k_tiled(
    m: &SeriesMatrix,
    k: usize,
    cfg: &TileConfig,
) -> (Vec<Vec<SimilarityMatch>>, KernelStats) {
    let Ok((matches, stats)) = similarity_walk(&Resident::new(m), k, cfg, None);
    (matches, stats.kernel)
}

/// The `k` rows of `m` (unit rows) most cosine-similar to row `q`, best
/// first — the one-query kernel map-side joins and the server use (no
/// symmetry to exploit across partitions). Every other row is ranked by
/// its sketch bound against row `q` and scored in that order until the
/// first whose bound is below the running k-th score (DESIGN.md §9).
/// Bit-identical to row `q` of [`crate::top_k_cosine`] on the same data.
///
/// # Panics
/// Panics if `q` is not a row of `m`.
pub fn top_k_query(m: &SeriesMatrix, q: usize, k: usize) -> Vec<SimilarityMatch> {
    top_k_query_counted(m, q, k).0
}

/// [`top_k_query`] and the rows it scored: at most `n − 1`, fewer where
/// sketch bounds let it stop early.
///
/// # Panics
/// Panics if `q` is not a row of `m`.
pub fn top_k_query_counted(
    m: &SeriesMatrix,
    q: usize,
    k: usize,
) -> (Vec<SimilarityMatch>, KernelStats) {
    let ranked = m.sketches().rank_by_bound(q);
    let mut hits = TopKBuffer::new(k);
    let pairs_scored = score_ranked(&mut hits, m.row(q), m, &ranked);
    (hits.finish(), KernelStats { pairs_scored })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::top_k_cosine;
    use crate::testutil::{pseudo_series, resident_pairs_ok};
    use smda_types::BitEq;

    #[test]
    fn matrix_round_trips_rows() {
        let rows = pseudo_series(5, 7, 42);
        let m = SeriesMatrix::from_rows_normalized(&rows);
        assert_eq!(m.rows(), 5);
        assert_eq!(m.stride(), 7);
        for (i, r) in rows.iter().enumerate() {
            let n = norm2(r);
            for (a, b) in m.row(i).iter().zip(r) {
                assert_eq!(a.to_bits(), (b / n).to_bits());
            }
        }
    }

    #[test]
    fn rows_start_on_cache_lines() {
        // Several sizes, so the allocator hands back differently placed
        // blocks; a stride of whole cache lines keeps every row aligned.
        for (n, stride) in [(1usize, 8usize), (5, 16), (7, 24), (3, 8760)] {
            let m = SeriesMatrix::from_rows_normalized(&pseudo_series(n, stride, 3));
            for copy in [&m, &m.clone()] {
                for i in 0..n {
                    assert_eq!(copy.row(i).as_ptr() as usize % MATRIX_ALIGN, 0, "row {i}");
                }
            }
        }
        // Any other stride still starts the matrix on the boundary.
        let m = SeriesMatrix::from_rows_normalized(&pseudo_series(4, 13, 3));
        assert_eq!(m.row(0).as_ptr() as usize % MATRIX_ALIGN, 0);
    }

    #[test]
    fn equality_compares_rows_not_placement() {
        let rows = pseudo_series(6, 11, 9);
        let m = SeriesMatrix::from_rows_normalized(&rows);
        // Stale values in the spare cells around the rows are not part
        // of the matrix.
        let mut shifted = m.clone();
        shifted.data[..shifted.offset].fill(7.0);
        let end = shifted.offset + shifted.rows * shifted.stride;
        shifted.data[end..].fill(7.0);
        assert_eq!(m, shifted);
        let mut other = rows.clone();
        other[5][10] += 1.0;
        assert_ne!(m, SeriesMatrix::from_rows_normalized(&other));
        assert_ne!(
            m,
            SeriesMatrix::from_rows_normalized(&pseudo_series(11, 6, 9))
        );
    }

    #[test]
    fn builder_rejects_double_write() {
        let b = SeriesMatrixBuilder::new(2, 3);
        b.set_row(0, &[1.0, 2.0, 3.0]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.set_row(0, &[4.0, 5.0, 6.0]);
        }));
        assert!(r.is_err());
    }

    #[test]
    #[should_panic(expected = "never written")]
    fn builder_finish_requires_every_row() {
        let b = SeriesMatrixBuilder::new(2, 3);
        b.set_row(1, &[1.0, 2.0, 3.0]);
        let _ = b.finish();
    }

    #[test]
    fn zero_rows_stay_zero() {
        let m = SeriesMatrix::from_rows_normalized(&[vec![0.0, 0.0], vec![3.0, 4.0]]);
        assert_eq!(m.row(0), &[0.0, 0.0]);
        assert!((norm2(m.row(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tiled_matches_naive_bitwise_across_sizes() {
        // Sizes straddle tile boundaries: empty, single, sub-tile, exact
        // multiples, and odd remainders.
        for n in [0usize, 1, 2, 3, 7, 8, 9, 16, 17, 33] {
            let rows = pseudo_series(n, 31, 7 + n as u64);
            let naive = top_k_cosine(&rows, 5);
            let m = SeriesMatrix::from_rows_normalized(&rows);
            let (tiled, stats) = top_k_tiled(&m, 5, &TileConfig::default());
            assert!(naive.bits_eq(&tiled));
            let scored = stats.pairs_scored;
            assert!(resident_pairs_ok(scored, n, 5), "n={n}: {scored} pairs");
        }
    }

    #[test]
    fn every_shape_of_the_block_walk_is_exact() {
        // Exhaustive over small n × query block × band height, under
        // every tier: query groups of eight and of four with one to
        // three rows left over, candidate counts on every residue of
        // four, two groups of eight in one query block (16, 17),
        // resident and banded — a nine-row band is the banded walk's
        // 8 × 4 — on a ragged stride.
        crate::simd::under_every_tier(|tier| {
            for n in 0usize..=19 {
                let rows = pseudo_series(n, 11, 31 + n as u64);
                // k = n keeps every hit, so a pair scored twice would show.
                let naive = top_k_cosine(&rows, n);
                let m = SeriesMatrix::from_rows_normalized(&rows);
                let (data, stride) = crate::testutil::flat(&rows);
                let src = crate::SliceSource::new(&data, n, stride);
                let pairs = (n * n.saturating_sub(1) / 2) as u64;
                for query_block in (0usize..=9).chain([16, 17]) {
                    let cfg = TileConfig { query_block };
                    let (tiled, stats) = top_k_tiled(&m, n, &cfg);
                    assert!(naive.bits_eq(&tiled));
                    let shape = format!("{tier:?} n={n} block={query_block}");
                    assert_eq!(stats.pairs_scored, pairs, "{shape}");
                    for band_rows in [1usize, 3, 5, 6, 9] {
                        let (banded, stats) = crate::top_k_oooc(&src, n, band_rows, &cfg).unwrap();
                        assert!(naive.bits_eq(&banded));
                        assert_eq!(stats.kernel.pairs_scored, pairs, "{shape} band={band_rows}");
                    }
                }
            }
        });
    }

    #[test]
    fn tiny_tiles_still_exact() {
        let rows = pseudo_series(13, 19, 99);
        let naive = top_k_cosine(&rows, 4);
        let m = SeriesMatrix::from_rows_normalized(&rows);
        let (tiled, _) = top_k_tiled(&m, 4, &TileConfig { query_block: 3 });
        assert!(naive.bits_eq(&tiled));
    }

    #[test]
    fn zero_query_block_is_read_as_one() {
        // Regression: a zero block used to report n tile rows yet score
        // none of them, returning all-empty lists.
        let rows = pseudo_series(11, 13, 5);
        let naive = top_k_cosine(&rows, 3);
        let m = SeriesMatrix::from_rows_normalized(&rows);
        let (data, stride) = crate::testutil::flat(&rows);
        let src = crate::SliceSource::new(&data, rows.len(), stride);
        for query_block in [0usize, 1] {
            let cfg = TileConfig { query_block };
            assert_eq!(cfg.tile_rows(11), 11);
            let (tiled, stats) = top_k_tiled(&m, 3, &cfg);
            assert!(naive.bits_eq(&tiled));
            assert_eq!(stats.pairs_scored, 55);
            let (banded, stats) = crate::top_k_oooc(&src, 3, 4, &cfg).unwrap();
            assert!(naive.bits_eq(&banded));
            assert_eq!(stats.kernel.pairs_scored, 55);
        }
    }

    #[test]
    fn partial_merge_reproduces_sequential() {
        use std::sync::atomic::AtomicUsize;
        let rows = pseudo_series(21, 23, 3);
        let m = SeriesMatrix::from_rows_normalized(&rows);
        let cfg = TileConfig { query_block: 4 };
        let (seq, seq_stats) = top_k_tiled(&m, 3, &cfg);
        // Emulate 3 workers claiming tile rows off one atomic counter.
        let tiles = cfg.tile_rows(m.rows());
        let counter = AtomicUsize::new(0);
        let claim = || {
            let t = counter.fetch_add(1, Ordering::Relaxed);
            (t < tiles).then_some(t)
        };
        let mut partials = Vec::new();
        let mut pairs = 0;
        for _ in 0..3 {
            let (p, s) = top_k_tiled_partial(&m, 3, &cfg, &claim);
            pairs += s.pairs_scored;
            partials.push(p);
        }
        let merged = merge_partials(m.rows(), partials, 3);
        assert!(seq.bits_eq(&merged));
        assert_eq!(pairs, seq_stats.pairs_scored);
    }

    #[test]
    fn equal_scores_break_ties_by_index_everywhere() {
        // Identical rows: every pair scores exactly 1.0, so ordering is
        // decided purely by the index tie-break.
        let rows: Vec<Vec<f64>> = (0..9).map(|_| vec![1.0, 2.0, 3.0]).collect();
        let naive = top_k_cosine(&rows, 4);
        let m = SeriesMatrix::from_rows_normalized(&rows);
        let (tiled, _) = top_k_tiled(&m, 4, &TileConfig::default());
        assert!(naive.bits_eq(&tiled));
        // Query 5's best matches are 0,1,2,3 in ascending index order.
        let idx: Vec<usize> = tiled[5].iter().map(|h| h.index).collect();
        assert_eq!(idx, [0, 1, 2, 3]);
    }

    #[test]
    fn top_k_query_matches_tiled() {
        let rows = pseudo_series(12, 17, 11);
        let m = SeriesMatrix::from_rows_normalized(&rows);
        let (tiled, _) = top_k_tiled(&m, 5, &TileConfig::default());
        assert_eq!(tiled.len(), m.rows());
        for (q, want) in tiled.iter().enumerate() {
            let one = top_k_query(&m, q, 5);
            assert!(want.bits_eq(&one), "query {q}");
        }
    }

    #[test]
    fn kernel_stats_flops() {
        let s = KernelStats { pairs_scored: 10 };
        assert_eq!(s.flops(100), 2000);
    }
}
