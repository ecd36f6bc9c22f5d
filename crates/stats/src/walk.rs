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
//! * a resident [`SeriesMatrix`] (unit rows) lends zero-copy slices of
//!   itself, `cfg.query_block` rows to a band, so its band-pair walk is
//!   the tile sweep: triangle row `t` is tile row `t`, the query block
//!   against itself and then against every later row;
//! * a [`Streamed`] [`SeriesSource`] is read into two band buffers per
//!   worker and unit-normalized there, each row's norm computed once per
//!   worker and memoized for every reload (DESIGN.md §16).
//!
//! Claims run through the triangle row by row, boustrophedon: even rows
//! walk `bj` up from the diagonal, odd rows walk it back down, so
//! consecutive pairs share a band and one sequential worker over a
//! streamed source loads `B(B−1)/2 + 1` bands — the fewest two buffers
//! allow, since every off-diagonal pair after the first needs at least
//! one load.
//!
//! The query form ([`Pairs::Queries`]) holds the query rows resident as
//! one more band and walks that band's one row of pairs: the queries
//! against each band in turn, so a streamed source is read once.
//!
//! **Bit-identity** across every form, source, band height and schedule
//! is the one exactness argument of [`crate::kernels`]: lent rows carry
//! the bits the in-memory matrix holds, and everything after that is
//! shared code.

use std::cell::Cell;
use std::convert::Infallible;
use std::ops::Range;

use smda_types::{Error, Result};

use crate::kernels::{PairScorer, RowBlock, SeriesMatrix, TileConfig};
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

/// The band-pair indices of triangle row `bi`: band `bi` with itself and
/// every later band.
pub(crate) fn triangle_row(bands: usize, bi: usize) -> Range<usize> {
    row_offset(bands, bi)..row_offset(bands, bi + 1)
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
    let step = t - row_offset(bands, lo);
    if lo.is_multiple_of(2) {
        (lo, lo + step)
    } else {
        (lo, bands - 1 - step)
    }
}

/// Rows a walk reads band by band. Public only so that
/// [`similarity_walk`] can name it in a bound: no path outside the
/// crate reaches it, so the resident matrix and a streamed source are
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

    /// Bands `bi` and `bj` as unit rows, row-major; a diagonal pair
    /// lends the one band twice.
    fn pair<'a>(
        &'a self,
        bufs: &'a mut Self::Buffers,
        band_rows: usize,
        bands: (usize, usize),
        stats: &mut OoocStats,
    ) -> std::result::Result<[&'a [f64]; 2], Self::Error>;

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

/// Resident unit rows, lent in place.
impl BandRows for SeriesMatrix {
    type Error = Infallible;
    type Buffers = ();

    fn shape(&self) -> (usize, usize) {
        (self.rows(), self.stride())
    }

    fn band_rows(&self, cfg: &TileConfig) -> usize {
        cfg.block()
    }

    fn buffers(&self) {}

    fn pair<'a>(
        &'a self,
        _: &'a mut (),
        band_rows: usize,
        (bi, bj): (usize, usize),
        _: &mut OoocStats,
    ) -> std::result::Result<[&'a [f64]; 2], Infallible> {
        Ok([bi, bj].map(|b| self.band(b * band_rows..((b + 1) * band_rows).min(self.rows()))))
    }

    fn queries<'a>(
        &'a self,
        _: &mut (),
        queries: &[usize],
        _: &'a mut Vec<f64>,
        _: &mut OoocStats,
    ) -> std::result::Result<Vec<&'a [f64]>, Infallible> {
        Ok(queries.iter().map(|&q| self.row(q)).collect())
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
    ) -> Result<[&'a [f64]; 2]> {
        let StreamBuffers { a, b, norms } = bufs;
        // Consecutive pairs share a band, not always in the same role:
        // a row's first band may sit in `b`, the previous pair's other.
        if a.idx != Some(bi) && b.idx == Some(bi) {
            std::mem::swap(a, b);
        }
        self.ensure(a, band_rows, bi, norms, stats)?;
        if bi == bj {
            return Ok([&a.data, &a.data]);
        }
        self.ensure(b, band_rows, bj, norms, stats)?;
        Ok([&a.data, &b.data])
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
    RowBlock {
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
/// inside one band and the others the cross product of two, for
/// [`Pairs::Queries`] a band each, against every query. Returns
/// per-slot partial top-k lists, each the exact k best of the pairs
/// this worker scored, plus what the walk did.
///
/// Over [`Pairs::All`] the output is bit-identical to
/// [`crate::top_k_cosine`] over the matrix `rows` describes, once the
/// partials of workers whose claims together partition the units are
/// merged ([`crate::merge_partials`]); over [`Pairs::Queries`] each list
/// is bit-identical to [`crate::top_k_normalized`] for its query.
/// Resident rows (a [`SeriesMatrix`]) cannot fail; a [`Streamed`]
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
    let (n, stride) = rows.shape();
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
    let mut scorer = PairScorer::new(queries.as_ref().map_or(n, |(ids, _)| ids.len()), k, cfg);
    let everything = Cell::new(Some(0..units));
    let walk_everything = || everything.take();
    let claim = claim.unwrap_or(&walk_everything);
    while let Some(claimed) = claim() {
        assert!(claimed.end <= units, "claimed {claimed:?} of {units} units");
        for t in claimed {
            let (bi, bj) = match queries {
                None => band_pair_at(bands, t),
                Some(_) => (t, t),
            };
            let [a, b] = rows.pair(&mut bufs, band_rows, (bi, bj), &mut stats)?;
            let a = lent(a, bi, band_rows, (n, stride));
            match &queries {
                None => scorer.score(a, (bi != bj).then(|| lent(b, bj, band_rows, (n, stride)))),
                Some((ids, held)) => scorer.score_queries(ids, held, a),
            }
        }
    }
    let (matches, kernel) = scorer.finish();
    stats.kernel = kernel;
    Ok((matches, stats))
}
