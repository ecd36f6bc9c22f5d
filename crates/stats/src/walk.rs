//! The similarity walk: every top-k in the workspace is one loop over
//! band pairs.
//!
//! Split the `n` rows into `B = ⌈n / band_rows⌉` bands. The unordered
//! row pairs `{i, j}` are partitioned exactly by the `B(B+1)/2` band
//! pairs `(bi, bj)`, `bi ≤ bj`: a *diagonal* pair scores the triangle
//! inside one band, an *off-diagonal* pair the full cross product of
//! two. [`similarity_walk`] claims band-pair indices, recovers each pair
//! and lends its two bands to the one pair scorer (`PairScorer`,
//! [`crate::kernels`]). Where the bands come from is all that differs:
//!
//! * a [`Resident`] [`SeriesMatrix`] (unit rows) lends its rows in
//!   place, `cfg.query_block` to a band, in chain order
//!   ([`SeriesMatrix::chain`]: each row followed by the one its sketch
//!   bounds highest against), not row order: band `b` is rows
//!   `chain[b·h..(b+1)·h]`, addressed through that index slice, so no
//!   row is copied. A register block whose every pair's sketch bound
//!   misses both endpoints' thresholds is skipped (DESIGN.md §9), and
//!   the chain puts the pairs that set those thresholds next to the
//!   diagonal. A row's threshold is the highest k-th score held for it
//!   by any worker walking the same [`Resident`], which also builds the
//!   chain once for all of them;
//! * a [`Streamed`] [`SeriesSource`] is read into two band buffers per
//!   worker and unit-normalized there, each row's norm computed once per
//!   worker and memoized for every reload (DESIGN.md §16).
//!
//! The order units map to band pairs is the provider's. Over a streamed
//! source claims run through the triangle row by row, boustrophedon:
//! even rows walk `bj` up from the diagonal, odd rows walk it back down,
//! so consecutive pairs share a band and one sequential worker loads
//! `B(B−1)/2 + 1` bands — the fewest two buffers allow, since every
//! off-diagonal pair after the first needs at least one load. Over the
//! resident matrix, where a band costs nothing to lend, claims run
//! diagonal by diagonal instead (`bj − bi` = 0, 1, 2, …), so chain
//! neighbours set every row's threshold before the far pairs are
//! reached; the `B − t` units of triangle row `t` are diagonal `t`.
//!
//! The query form ([`Pairs::Queries`]) holds the query rows resident as
//! one more band and walks that band's one row of pairs: the queries
//! against each band in turn, so a streamed source is read once. Over a
//! resident matrix it reads each claimed band's rows in the order of
//! their sketch bounds against the query instead, and stops at the
//! first row whose bound cannot reach the query's running k-th score
//! (DESIGN.md §9).
//!
//! **Bit-identity** across every form, source, band height and schedule
//! is the one exactness argument of [`crate::kernels`]: lent rows carry
//! the bits the in-memory matrix holds, and everything after that is
//! shared code.

use std::cell::Cell;
use std::convert::Infallible;
use std::ops::Range;
use std::sync::atomic::AtomicI64;
use std::sync::OnceLock;

use smda_types::{Error, Result};

use crate::kernels::{PairScorer, SeriesMatrix, TileConfig, NO_FLOOR};
use crate::oooc::{OoocStats, SeriesSource};
use crate::similarity::{norm2_rows, SimilarityMatch};

/// Which pairs a walk scores.
#[derive(Debug, Clone, Copy)]
pub enum Pairs<'q> {
    /// Every unordered pair of rows, one top-k list per row. A claimed
    /// unit is a band pair, `0..band_pair_count(bands)`.
    All,
    /// Each listed row against every other row, one top-k list per
    /// query in the order given. A claimed unit is a band,
    /// `0..band_count(rows, band_rows)`.
    Queries(&'q [usize]),
}

/// A [`SeriesSource`] read `band_rows` raw rows at a time (zero is read
/// as one): the rows of an out-of-core walk.
#[derive(Clone, Copy)]
pub struct Streamed<'a> {
    /// Where the raw rows come from.
    pub source: &'a dyn SeriesSource,
    /// Rows per band buffer.
    pub band_rows: usize,
}

/// A resident [`SeriesMatrix`] of unit rows, lent in place: the rows of
/// an in-memory walk. Every worker walking this one value shares two
/// things the all-pairs walk builds on first use (the query form builds
/// neither): the chain order the rows are lent in
/// (`SeriesMatrix::chain`), built by the first worker while the others
/// wait, so a pool builds it once; and each row's floor, the highest
/// k-th score any of them has held for it, so that every worker skips
/// register blocks by the best threshold the pool knows (DESIGN.md §9).
pub struct Resident<'a> {
    matrix: &'a SeriesMatrix,
    chain: OnceLock<Vec<usize>>,
    /// The `k` of the first all-pairs walk, and the floors it keeps.
    floors: OnceLock<(usize, Vec<AtomicI64>)>,
}

impl<'a> Resident<'a> {
    /// The rows of `matrix`, nothing shared built yet.
    pub fn new(matrix: &'a SeriesMatrix) -> Resident<'a> {
        Resident {
            matrix,
            chain: OnceLock::new(),
            floors: OnceLock::new(),
        }
    }
}

/// How many bands an `n`-row source splits into at `band_rows` rows
/// per band.
pub fn band_count(rows: usize, band_rows: usize) -> usize {
    rows.div_ceil(band_rows.max(1))
}

/// Number of band pairs (`bi ≤ bj`) — the units an all-pairs walk
/// claims.
pub fn band_pair_count(bands: usize) -> usize {
    bands * (bands + 1) / 2
}

/// Band pairs before triangle row `bi`: `bi·B − bi(bi−1)/2`.
fn row_offset(bands: usize, bi: usize) -> usize {
    bi * bands - bi * bi.saturating_sub(1) / 2
}

/// The units of triangle row `bi`: band `bi` with itself and every
/// later band in the boustrophedon order ([`band_pair_at`]), diagonal
/// `bi` in the diagonal one ([`diagonal_pair_at`]).
pub(crate) fn triangle_row(bands: usize, bi: usize) -> Range<usize> {
    row_offset(bands, bi)..row_offset(bands, bi + 1)
}

/// Unit `t` as `(row, step)`: the `step`-th unit of triangle row `row`.
fn triangle_position(bands: usize, t: usize) -> (usize, usize) {
    debug_assert!(t < band_pair_count(bands));
    // `row_offset` is monotonic in bi: binary-search the row, O(log B)
    // per claim.
    let mut lo = 0usize; // invariant: row_offset(lo) <= t
    let mut hi = bands; // invariant: row_offset(hi) > t (t < total)
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if row_offset(bands, mid) <= t {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, t - row_offset(bands, lo))
}

/// Pairs `(bi, bj)` with `bi ≤ bj`, row `bi` of the triangle after row
/// `bi − 1`, boustrophedon within a row: an even row walks `bj` up from
/// `bi` to the last band, an odd row back down to `bi`. Consecutive
/// indices share a band — across a row turn too: an even row ends on
/// the last band, where the odd row after it starts, and an odd row's
/// last off-diagonal pair already holds band `bi + 1`, the next row's
/// diagonal — so a worker claiming them in order loads `B(B−1)/2 + 1`
/// bands in all: band 0, then one per off-diagonal pair.
pub(crate) fn band_pair_at(bands: usize, t: usize) -> (usize, usize) {
    let (row, step) = triangle_position(bands, t);
    if row.is_multiple_of(2) {
        (row, row + step)
    } else {
        (row, bands - 1 - step)
    }
}

/// Pairs `(bi, bj)` with `bi ≤ bj` by diagonal: the `B − d` pairs with
/// `bj − bi = d` after those of diagonal `d − 1`, `bi` ascending within
/// one. Diagonal `d` is as long as triangle row `d`, so it takes that
/// row's units.
pub(crate) fn diagonal_pair_at(bands: usize, t: usize) -> (usize, usize) {
    let (diagonal, step) = triangle_position(bands, t);
    (step, step + diagonal)
}

/// Rows of the full matrix lent to the pair scorer: a band buffer filled
/// from a streamed source, or rows of the resident [`SeriesMatrix`] read
/// in place through an index slice. Row `r` of the block is row
/// [`RowBlock::index`]`(r)` of the full matrix. Public only so that
/// [`BandRows::pair`] can return it.
#[derive(Debug, Clone, Copy)]
pub enum RowBlock<'a> {
    /// Rows `start..start + rows`, row-major in `data`.
    Run {
        data: &'a [f64],
        start: usize,
        rows: usize,
        stride: usize,
    },
    /// Rows `ids[0]`, `ids[1]`, … of `matrix`, whose sketches bound
    /// their scores.
    Listed {
        matrix: &'a SeriesMatrix,
        ids: &'a [usize],
    },
}

impl<'a> RowBlock<'a> {
    /// Rows in the block.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        match *self {
            RowBlock::Run { rows, .. } => rows,
            RowBlock::Listed { ids, .. } => ids.len(),
        }
    }

    /// Row `r` of the block.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &'a [f64] {
        match *self {
            RowBlock::Run { data, stride, .. } => &data[r * stride..(r + 1) * stride],
            RowBlock::Listed { matrix, ids } => matrix.row(ids[r]),
        }
    }

    /// Which row of the full matrix row `r` of the block is.
    #[inline]
    pub(crate) fn index(&self, r: usize) -> usize {
        match *self {
            RowBlock::Run { start, .. } => start + r,
            RowBlock::Listed { ids, .. } => ids[r],
        }
    }
}

/// Rows a walk reads band by band. Public only so that
/// [`similarity_walk`] can name it in a bound: no path outside the
/// crate reaches it, so [`Resident`] rows and a [`Streamed`] source are
/// the only two.
pub trait BandRows {
    /// What lending a band can fail with: nothing, for resident rows.
    type Error;
    /// One worker's buffers.
    type Buffers;

    /// `(rows, stride)` of the full matrix.
    fn shape(&self) -> (usize, usize);

    /// Rows per band: never zero.
    fn band_rows(&self, cfg: &TileConfig) -> usize;

    /// Fresh buffers for one worker.
    fn buffers(&self) -> Self::Buffers;

    /// The band pair of all-pairs unit `t` of `bands` bands:
    /// boustrophedon ([`band_pair_at`]), which loads the fewest bands.
    fn band_pair(&self, bands: usize, t: usize) -> (usize, usize) {
        band_pair_at(bands, t)
    }

    /// Bands `bi` and `bj` as blocks of unit rows; a diagonal pair lends
    /// the one band twice.
    fn pair<'a>(
        &'a self,
        bufs: &'a mut Self::Buffers,
        band_rows: usize,
        bands: (usize, usize),
        stats: &mut OoocStats,
    ) -> std::result::Result<[RowBlock<'a>; 2], Self::Error>;

    /// The resident matrix, whose row sketches let the query form skip
    /// rows that cannot enter a top k (DESIGN.md §9); a streamed source
    /// carries no sketch and is scanned in full.
    fn resident(&self) -> Option<&SeriesMatrix> {
        None
    }

    /// Per row, the highest running k-th score at this `k` any worker
    /// walking these rows has published (`NO_FLOOR` before one has), as
    /// an [`crate::ordered_key`]: a lower bound of the row's final k-th
    /// score. `None` where nothing is skipped by bounds.
    fn floors(&self, _k: usize) -> Option<&[AtomicI64]> {
        None
    }

    /// The unit rows of `queries`, in order, lent in place or copied
    /// into `held`.
    fn queries<'a>(
        &'a self,
        bufs: &mut Self::Buffers,
        queries: &[usize],
        held: &'a mut Vec<f64>,
        stats: &mut OoocStats,
    ) -> std::result::Result<Vec<&'a [f64]>, Self::Error>;
}

/// Resident unit rows, lent in place in chain order.
impl BandRows for Resident<'_> {
    type Error = Infallible;
    type Buffers = ();

    fn shape(&self) -> (usize, usize) {
        (self.matrix.rows(), self.matrix.stride())
    }

    fn band_rows(&self, cfg: &TileConfig) -> usize {
        cfg.block()
    }

    fn buffers(&self) {}

    /// Diagonal by diagonal ([`diagonal_pair_at`]).
    fn band_pair(&self, bands: usize, t: usize) -> (usize, usize) {
        diagonal_pair_at(bands, t)
    }

    fn resident(&self) -> Option<&SeriesMatrix> {
        Some(self.matrix)
    }

    /// Floors at one `k` only, the first walk's: a k-th score is no
    /// lower bound of a larger k's.
    fn floors(&self, k: usize) -> Option<&[AtomicI64]> {
        let (held, floors) = self.floors.get_or_init(|| {
            let none = (0..self.matrix.rows()).map(|_| AtomicI64::new(NO_FLOOR));
            (k, none.collect())
        });
        (*held == k).then_some(floors)
    }

    fn pair<'a>(
        &'a self,
        _: &'a mut (),
        band_rows: usize,
        (bi, bj): (usize, usize),
        _: &mut OoocStats,
    ) -> std::result::Result<[RowBlock<'a>; 2], Infallible> {
        let chain = self.chain.get_or_init(|| self.matrix.chain());
        Ok([bi, bj].map(|b| RowBlock::Listed {
            matrix: self.matrix,
            ids: &chain[b * band_rows..((b + 1) * band_rows).min(chain.len())],
        }))
    }

    fn queries<'a>(
        &'a self,
        _: &mut (),
        queries: &[usize],
        _: &'a mut Vec<f64>,
        _: &mut OoocStats,
    ) -> std::result::Result<Vec<&'a [f64]>, Infallible> {
        Ok(queries.iter().map(|&q| self.matrix.row(q)).collect())
    }
}

/// A norm memo entry not computed yet: `sqrt` returns no negative
/// number but `-0.0`, so no row's norm is this.
const UNKNOWN_NORM: f64 = -1.0;

/// One worker's buffers over a streamed source: two bands, and the norm
/// of every row computed so far.
pub struct StreamBuffers {
    a: Band,
    b: Band,
    norms: Vec<f64>,
}

/// A band buffer: the unit rows of band `idx`, once loaded.
#[derive(Default)]
struct Band {
    idx: Option<usize>,
    data: Vec<f64>,
}

/// Streamed raw rows, normalized into band buffers on load.
impl BandRows for Streamed<'_> {
    type Error = Error;
    type Buffers = StreamBuffers;

    fn shape(&self) -> (usize, usize) {
        (self.source.rows(), self.source.stride())
    }

    fn band_rows(&self, _: &TileConfig) -> usize {
        self.band_rows.max(1)
    }

    fn buffers(&self) -> StreamBuffers {
        StreamBuffers {
            a: Band::default(),
            b: Band::default(),
            norms: vec![UNKNOWN_NORM; self.source.rows()],
        }
    }

    fn pair<'a>(
        &'a self,
        bufs: &'a mut StreamBuffers,
        band_rows: usize,
        (bi, bj): (usize, usize),
        stats: &mut OoocStats,
    ) -> Result<[RowBlock<'a>; 2]> {
        let StreamBuffers { a, b, norms } = bufs;
        // Consecutive pairs share a band, not always in the same role:
        // a row's first band may sit in `b`, the previous pair's other.
        if a.idx != Some(bi) && b.idx == Some(bi) {
            std::mem::swap(a, b);
        }
        self.ensure(a, band_rows, bi, norms, stats)?;
        let shape = self.shape();
        let a = lent(&a.data, bi, band_rows, shape);
        if bi == bj {
            return Ok([a, a]);
        }
        self.ensure(b, band_rows, bj, norms, stats)?;
        Ok([a, lent(&b.data, bj, band_rows, shape)])
    }

    fn queries<'a>(
        &'a self,
        bufs: &mut StreamBuffers,
        queries: &[usize],
        held: &'a mut Vec<f64>,
        stats: &mut OoocStats,
    ) -> Result<Vec<&'a [f64]>> {
        let (n, stride) = self.shape();
        let mut row = Vec::with_capacity(stride);
        for &q in queries {
            if q >= n {
                return Err(Error::Invalid(format!("query row {q} out of range ({n})")));
            }
            self.fill(q..q + 1, &mut row, &mut bufs.norms, stats)?;
            held.extend_from_slice(&row);
        }
        let held: &'a [f64] = held;
        Ok((0..queries.len())
            .map(|s| &held[s * stride..(s + 1) * stride])
            .collect())
    }
}

impl Streamed<'_> {
    /// Load band `bi` into `band` unless it is already there.
    fn ensure(
        &self,
        band: &mut Band,
        band_rows: usize,
        bi: usize,
        norms: &mut [f64],
        stats: &mut OoocStats,
    ) -> Result<()> {
        if band.idx != Some(bi) {
            let start = bi * band_rows;
            let rows = start..(start + band_rows).min(self.source.rows());
            self.fill(rows, &mut band.data, norms, stats)?;
            band.idx = Some(bi);
        }
        Ok(())
    }

    /// Fill `out` with source rows `rows`, unit-normalized: each row's
    /// norm read from the memo (one entry per source row), or computed
    /// and recorded there if it is not known yet.
    fn fill(
        &self,
        rows: Range<usize>,
        out: &mut Vec<f64>,
        norms: &mut [f64],
        stats: &mut OoocStats,
    ) -> Result<()> {
        let stride = self.source.stride();
        self.source.load_band(rows.clone(), out)?;
        if out.len() != rows.len() * stride {
            return Err(Error::Invalid(format!(
                "series source filled {} values for band {}..{} (want {})",
                out.len(),
                rows.start,
                rows.end,
                rows.len() * stride
            )));
        }
        let norms = &mut norms[rows];
        // In the pair walk a band's norms are known together or not at
        // all; in the query form a query row is known before the band
        // that holds it. Runs of unknowns are computed, nothing else
        // (`norm2_rows` is `norm2` row by row, so the split moves no bit).
        let mut r = 0;
        for run in norms.chunk_by_mut(|x, y| (*x == UNKNOWN_NORM) == (*y == UNKNOWN_NORM)) {
            if run[0] == UNKNOWN_NORM {
                norm2_rows(&out[r * stride..(r + run.len()) * stride], stride, run);
                stats.norms_computed += run.len() as u64;
            }
            r += run.len();
        }
        normalize_band(out, stride, norms);
        stats.bands_loaded += 1;
        stats.bytes_streamed += (out.len() * 8) as u64;
        Ok(())
    }
}

/// Unit-normalize each row of `data` in place by its norm in `norms` —
/// bit-identical to [`crate::SeriesMatrixBuilder::set_row_normalized`]:
/// zero rows stay verbatim, others divide every element by the row's
/// `norm2`.
fn normalize_band(data: &mut [f64], stride: usize, norms: &[f64]) {
    for (r, &n) in norms.iter().enumerate() {
        if n != 0.0 {
            for v in &mut data[r * stride..(r + 1) * stride] {
                *v /= n;
            }
        }
    }
}

/// Band `b` of an `n × stride` matrix cut `band_rows` rows to a band,
/// lent as `data`.
fn lent(data: &[f64], b: usize, band_rows: usize, (n, stride): (usize, usize)) -> RowBlock<'_> {
    let start = b * band_rows;
    RowBlock::Run {
        data,
        start,
        rows: band_rows.min(n - start),
        stride,
    }
}

/// One worker's share of the similarity walk: repeatedly claim a range
/// of units from `claim` (e.g. an atomic counter shared across
/// workers; `None` walks every unit) and score them — for
/// [`Pairs::All`] a band pair each, the diagonal ones the triangle
/// inside one band and the others the cross product of two (over a
/// resident matrix, chain-ordered bands, skipping the register blocks
/// whose sketch bounds miss both endpoints' thresholds), for
/// [`Pairs::Queries`] a band each, against every query (over a resident
/// matrix, only the band's rows whose sketch bound can still reach the
/// query's running k-th score; DESIGN.md §9). Returns per-slot partial
/// top-k lists, each the k best of the pairs this worker scored, plus
/// what the walk did. A claimed pair it skipped lies below a k-th score
/// some worker walking the same rows held for each of its rows, so it
/// could not have entered either row's final list.
///
/// Over [`Pairs::All`] the output is bit-identical to
/// [`crate::top_k_cosine`] over the matrix `rows` describes, once the
/// partials of workers whose claims together partition the units are
/// merged ([`crate::merge_partials`]); over [`Pairs::Queries`] each list
/// is bit-identical to [`crate::top_k_normalized`] for its query.
/// [`Resident`] rows cannot fail; a [`Streamed`]
/// source fails on a bad load or a query index past its last row
/// ([`Error::Invalid`]).
///
/// # Panics
/// Panics on a claimed unit out of range, or on a query index past the
/// last row of a resident matrix.
pub fn similarity_walk<R: BandRows + ?Sized>(
    rows: &R,
    pairs: Pairs<'_>,
    k: usize,
    cfg: &TileConfig,
    claim: Option<&dyn Fn() -> Option<Range<usize>>>,
) -> std::result::Result<(Vec<Vec<SimilarityMatch>>, OoocStats), R::Error> {
    let (n, _) = rows.shape();
    let band_rows = rows.band_rows(cfg);
    let bands = band_count(n, band_rows);
    let mut bufs = rows.buffers();
    let mut stats = OoocStats::default();
    let mut copies = Vec::new();
    let (units, queries) = match pairs {
        Pairs::All => (band_pair_count(bands), None),
        Pairs::Queries(ids) => {
            let held = rows.queries(&mut bufs, ids, &mut copies, &mut stats)?;
            (bands, Some((ids, held)))
        }
    };
    // The query form's slots are queries, which hold no row's floor.
    let (slots, floors) = match &queries {
        None => (n, rows.floors(k)),
        Some((ids, _)) => (ids.len(), None),
    };
    let mut scorer = PairScorer::new(slots, k, cfg, floors);
    let pruned = queries.as_ref().and(rows.resident());
    let mut ranked = Vec::new();
    let everything = Cell::new(Some(0..units));
    let walk_everything = || everything.take();
    let claim = claim.unwrap_or(&walk_everything);
    while let Some(claimed) = claim() {
        assert!(claimed.end <= units, "claimed {claimed:?} of {units} units");
        if let (Some((ids, held)), Some(m)) = (&queries, pruned) {
            let span = claimed.start * band_rows..(claimed.end * band_rows).min(n);
            for (slot, (&q, query)) in ids.iter().zip(held).enumerate() {
                m.rank_by_bound(q, span.clone(), &mut ranked);
                scorer.score_ranked(slot, query, m, &ranked);
            }
            continue;
        }
        for t in claimed {
            let (bi, bj) = match queries {
                None => rows.band_pair(bands, t),
                Some(_) => (t, t),
            };
            let [a, b] = rows.pair(&mut bufs, band_rows, (bi, bj), &mut stats)?;
            match &queries {
                None => scorer.score(a, (bi != bj).then_some(b)),
                Some((ids, held)) => scorer.score_queries(ids, held, a),
            }
        }
    }
    let (matches, kernel) = scorer.finish();
    stats.kernel = kernel;
    Ok((matches, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::pseudo_series;

    #[test]
    fn triangle_row_d_is_diagonal_d_in_the_resident_order() {
        for bands in [0usize, 1, 2, 3, 7, 16] {
            // The rows partition the units, so this is also a bijection.
            for d in 0..bands {
                let diagonal: Vec<(usize, usize)> = triangle_row(bands, d)
                    .map(|t| diagonal_pair_at(bands, t))
                    .collect();
                let expect: Vec<(usize, usize)> = (0..bands - d).map(|bi| (bi, bi + d)).collect();
                assert_eq!(diagonal, expect, "bands={bands} d={d}");
            }
        }
    }

    #[test]
    fn floors_serve_the_k_they_were_held_at() {
        use crate::similarity::top_k_cosine;
        use smda_types::BitEq;
        // Twenty shapes, each twice with a small change: at k = 1 every
        // row's floor is its twin's score, far above its fourth-best. A
        // walk at k = 4 over the same rows that read those floors would
        // skip its true second to fourth neighbours.
        let shapes = pseudo_series(20, 31, 9);
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let mut row = shapes[i % 20].clone();
                row[i % 31] += 0.01;
                row
            })
            .collect();
        let m = SeriesMatrix::from_rows_normalized(&rows);
        let resident = Resident::new(&m);
        let cfg = TileConfig::default();
        for k in [1, 4, 1] {
            let Ok((got, stats)) = similarity_walk(&resident, Pairs::All, k, &cfg, None);
            assert!(got.bits_eq(&top_k_cosine(&rows, k)), "k={k}");
            assert!(
                stats.kernel.pairs_scored < 40 * 39 / 2,
                "k={k}: nothing skipped"
            );
        }
    }

    #[test]
    fn the_chain_gathers_equal_rows_and_breaks_ties_by_index() {
        // Two shapes, alternating: every row of one shape bounds highest
        // against its copies, all tied, so the chain takes them in index
        // order before it crosses to the other shape.
        let shapes = pseudo_series(2, 31, 5);
        let rows: Vec<Vec<f64>> = (0..9).map(|i| shapes[i % 2].clone()).collect();
        let order = SeriesMatrix::from_rows_normalized(&rows).chain();
        assert_eq!(order, [0, 2, 4, 6, 8, 1, 3, 5, 7]);
        // Zero rows have no usable sketch: every bound reads as +∞ and
        // the chain is the row order.
        let zeros = SeriesMatrix::from_rows_normalized(&vec![vec![0.0; 31]; 5]);
        assert_eq!(zeros.chain(), [0, 1, 2, 3, 4]);
        assert!(SeriesMatrix::from_rows_normalized(&[]).chain().is_empty());
    }
}
