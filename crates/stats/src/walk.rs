//! The similarity walk: every all-pairs top-k in the workspace is one
//! loop over band pairs.
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
//!   place, `cfg.query_block` to a band, addressed through an index
//!   slice, so no row is copied;
//! * a [`Streamed`] [`SeriesSource`] is read into two band buffers per
//!   worker and unit-normalized there, each row's norm computed on its
//!   first load and shared by every worker walking the same
//!   [`Streamed`]; the unit rows the sketch pass kept (below) are lent
//!   in place and not read again (DESIGN.md §16).
//!
//! The walk over either cuts its bands from one chain order
//! (`Sketches::chain`: each row followed by the one its sketch bounds
//! highest against), not row order: band `b` is rows
//! `chain[b·h..(b+1)·h]`. A register block whose every pair's sketch
//! bound misses both endpoints' thresholds is skipped (DESIGN.md §9),
//! and the chain puts the pairs that set those thresholds next to the
//! diagonal. A row's threshold is the highest k-th score held for it by
//! any worker walking the same rows. The resident matrix carries its
//! rows' sketches; over a streamed source the first worker loads every
//! band once in file order and sketches its rows (the *sketch pass*),
//! keeping the first rows' unit values as the source's
//! [`SeriesSource::cache_bytes`] budget allows, then builds the chain
//! over those sketches, while the others wait.
//!
//! Units map to band pairs in one order for both sources
//! ([`lead_pair_at`]): first the *lead* — each band's own triangle, then
//! its pair with the band before it, so chain neighbours set every row's
//! threshold before the far pairs are reached — and then the pairs two
//! or more bands apart, triangle row by triangle row from the last one
//! back. Consecutive claims share a band: over a streamed source that
//! band is still in a buffer and costs no load, over a resident one its
//! rows are still in L2. Over a streamed source a band pair none of whose
//! pairs can enter a top k under the thresholds held is skipped before
//! either band is loaded.
//!
//! Neither query form (one row against every other) walks band pairs.
//! Over a resident matrix it is [`crate::top_k_query`], a ranked scan by
//! sketch bound (DESIGN.md §9); over a streamed source,
//! [`Streamed::top_k_queries`]: the query rows are loaded first, then
//! every band once, in file order, against all of them, and nothing is
//! sketched.
//!
//! **Bit-identity** across every form, source, band height and schedule
//! is the one exactness argument of [`crate::kernels`]: lent rows carry
//! the bits the in-memory matrix holds, and everything after that is
//! shared code.

use std::cell::Cell;
use std::convert::Infallible;
use std::ops::Range;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use smda_types::{ConsumerSeries, Error, Result};

use crate::kernels::{
    score_queries, sketch_width, write_normalized, PairScorer, SeriesMatrix, Sketches, TileConfig,
    TopKBuffer, NO_FLOOR,
};
use crate::oooc::{OoocStats, SeriesSource};
use crate::similarity::{norm2_rows, SimilarityMatch};

/// A [`SeriesSource`] read `band_rows` raw rows at a time (zero is read
/// as one): the rows of an out-of-core walk or query set. Every worker
/// walking this one value shares what is learnt of the rows: each row's
/// norm, computed on the row's first load by whichever worker loads it;
/// for a walk that can skip, every row's sketch, the chain and the kept
/// unit rows, built by the sketch pass of the first worker while the
/// others wait; and each row's floor, as [`Resident`] shares it
/// (DESIGN.md §16).
pub struct Streamed<'a> {
    source: &'a dyn SeriesSource,
    band_rows: usize,
    /// Each row's norm, as bits: [`UNKNOWN_NORM`] until its first load.
    norms: Box<[AtomicU64]>,
    sketched: OnceLock<Sketched>,
    /// Held while the sketch pass runs. The pass can fail: a worker that
    /// finds no sketches once the one before it has failed runs it again,
    /// and fails the same way.
    sketching: Mutex<()>,
    floors: Floors,
}

/// What the sketch pass builds: every row's sketch, row after row, the
/// chain over them, and the unit rows the source's budget holds.
struct Sketched {
    cells: Vec<f64>,
    chain: Vec<usize>,
    kept: Kept,
}

/// Unit rows `0..rows` of a streamed source, kept by its sketch pass
/// as it normalizes them, `rows` the source's
/// [`SeriesSource::cache_bytes`] over the row bytes, capped at `n`. They
/// are held in band-sized pieces, not one slab: row `i` is row
/// `i % band_rows` of piece `i / band_rows`, the piece of the band the
/// pass read it in. Each piece is written once, before the walk lends a
/// row of it, and read by every worker without a lock. Public only so
/// that [`RowBlock::Loaded`] can name it.
pub struct Kept {
    pieces: Vec<Vec<f64>>,
    band_rows: usize,
    rows: usize,
}

/// What a walk keeps where the sketch pass has not run.
static NOTHING_KEPT: Kept = Kept {
    pieces: Vec::new(),
    band_rows: 1,
    rows: 0,
};

impl Kept {
    /// Kept row `i` of `stride` values.
    fn row(&self, i: usize, stride: usize) -> &[f64] {
        let at = i % self.band_rows * stride;
        &self.pieces[i / self.band_rows][at..at + stride]
    }
}

impl<'a> Streamed<'a> {
    /// The rows of `source`, `band_rows` to a band; nothing known of
    /// them yet.
    pub fn new(source: &'a dyn SeriesSource, band_rows: usize) -> Streamed<'a> {
        let unknown = || AtomicU64::new(UNKNOWN_NORM.to_bits());
        Streamed {
            source,
            band_rows,
            norms: (0..source.rows()).map(|_| unknown()).collect(),
            sketched: OnceLock::new(),
            sketching: Mutex::new(()),
            floors: Floors::default(),
        }
    }
}

/// A resident [`SeriesMatrix`] of unit rows, lent in place: the rows of
/// an in-memory walk. Every worker walking this one value shares two
/// things the walk builds on first use: the chain order the rows are lent
/// in (`Sketches::chain`),
/// built by the first worker while the others wait, so a pool builds it
/// once; and each row's floor, so that every worker skips register
/// blocks by the best threshold the pool knows (DESIGN.md §9).
pub struct Resident<'a> {
    matrix: &'a SeriesMatrix,
    chain: OnceLock<Vec<usize>>,
    floors: Floors,
}

impl<'a> Resident<'a> {
    /// The rows of `matrix`, nothing shared built yet.
    pub fn new(matrix: &'a SeriesMatrix) -> Resident<'a> {
        Resident {
            matrix,
            chain: OnceLock::new(),
            floors: Floors::default(),
        }
    }
}

/// Per row, the highest running k-th score at one `k` any worker walking
/// the same rows has published (`NO_FLOOR` before one has), as an
/// [`crate::ordered_key`]: a lower bound of the row's final k-th score.
#[derive(Default)]
struct Floors(OnceLock<(usize, Vec<AtomicI64>)>);

impl Floors {
    /// The floors of `rows` rows at `k`: those of the first all-pairs
    /// walk, if it was at `k`, since a k-th score is no lower bound of a
    /// larger k's.
    fn at(&self, k: usize, rows: usize) -> Option<&[AtomicI64]> {
        let (held, floors) = self.0.get_or_init(|| {
            let none = (0..rows).map(|_| AtomicI64::new(NO_FLOOR));
            (k, none.collect())
        });
        (*held == k).then_some(floors)
    }
}

/// What an all-pairs walk skips by (DESIGN.md §9). Public only so that
/// [`BandRows::prune`] can return it.
pub struct Pruning<'a> {
    /// Every row's sketch.
    sketches: Sketches<'a>,
    /// Every row's floor at the walk's `k`, where the rows hold them at
    /// it.
    floors: Option<&'a [AtomicI64]>,
    /// The chain the bands are cut from, where lending a band costs a
    /// load: a band pair is then checked before either band is loaded.
    loaded: Option<&'a [usize]>,
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

/// The units of triangle row `bi`: `B − bi` consecutive units of the
/// walk's order ([`lead_pair_at`]).
pub(crate) fn triangle_row(bands: usize, bi: usize) -> Range<usize> {
    row_offset(bands, bi)..row_offset(bands, bi + 1)
}

/// Pairs `(bi, bj)` with `bi ≤ bj` in the order every all-pairs walk
/// claims them. First the *lead*, `2B − 1` pairs: `(0, 0)`, then for each
/// later band `b` its own triangle `(b, b)` and its pair with the band before
/// it, `(b − 1, b)` — so each band's rows hold thresholds from inside
/// their own band before they meet their chain neighbours', and both
/// before any pair further apart. Then the pairs with `bj ≥ bi + 2`,
/// triangle row by triangle row from the last (`bi = B − 3`, one pair)
/// back to the first, each row ending on its nearest band, `bi + 2`, and
/// starting on the band the row before ended on, `bi + 3`: `bj` runs up
/// from there to the last band, then to `bi + 2`. So consecutive pairs
/// share a band — the lead ends on `(B − 2, B − 1)` and the rest starts
/// on `(B − 3, B − 1)`. A resident walk then finds one band of each
/// pair still in L2, and with two buffers ([`Streamed`] keeps the one it
/// used last) a streamed walk that skips nothing loads `B(B−1)/2 + 1`
/// bands, the fewest two buffers allow: one for each of the lead's `B`
/// diagonals and one for each later pair.
pub(crate) fn lead_pair_at(bands: usize, t: usize) -> (usize, usize) {
    let lead = (2 * bands).saturating_sub(1);
    if t < lead {
        let b = t.div_ceil(2);
        return if t % 2 == 1 || t == 0 {
            (b, b)
        } else {
            (b - 1, b)
        };
    }
    // Row `m` of the rest starts `m(m+1)/2` pairs in and holds `m + 1`.
    let s = t - lead;
    let m = ((8 * s + 1).isqrt() - 1) / 2;
    let step = s - m * (m + 1) / 2;
    let bi = bands - 3 - m;
    if step < m {
        (bi, bi + 3 + step)
    } else {
        (bi, bi + 2)
    }
}

/// Rows of the full matrix lent to the pair scorer: a band buffer filled
/// from a streamed source, or rows of the resident [`SeriesMatrix`] read
/// in place. Row `r` of the block is row [`RowBlock::index`]`(r)` of the
/// full matrix. Public only so that [`BandRows::pair`] can return it.
#[derive(Clone, Copy)]
pub enum RowBlock<'a> {
    /// Rows `ids[0]`, `ids[1]`, … of `stride` values: row `r` is row
    /// `at[r]` of `data`, row-major, or, where `at[r]` is [`LENT`], kept
    /// row `ids[r]`.
    Loaded {
        data: &'a [f64],
        ids: &'a [usize],
        at: &'a [usize],
        kept: &'a Kept,
        stride: usize,
    },
    /// Rows `ids[0]`, `ids[1]`, … of `matrix`.
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
            RowBlock::Loaded { ids, .. } | RowBlock::Listed { ids, .. } => ids.len(),
        }
    }

    /// Row `r` of the block.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &'a [f64] {
        match *self {
            RowBlock::Loaded {
                data,
                ids,
                at,
                kept,
                stride,
            } => match at[r] {
                LENT => kept.row(ids[r], stride),
                a => &data[a * stride..(a + 1) * stride],
            },
            RowBlock::Listed { matrix, ids } => matrix.row(ids[r]),
        }
    }

    /// Which row of the full matrix row `r` of the block is.
    #[inline]
    pub(crate) fn index(&self, r: usize) -> usize {
        match *self {
            RowBlock::Loaded { ids, .. } | RowBlock::Listed { ids, .. } => ids[r],
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

    /// What an all-pairs walk at `k` skips by, built on first use; `None`
    /// where it skips by nothing.
    fn prune<'a>(
        &'a self,
        bufs: &mut Self::Buffers,
        k: usize,
        stats: &mut OoocStats,
    ) -> std::result::Result<Option<Pruning<'a>>, Self::Error>;

    /// Bands `bi` and `bj` as blocks of unit rows; a diagonal pair lends
    /// the one band twice.
    fn pair<'a>(
        &'a self,
        bufs: &'a mut Self::Buffers,
        band_rows: usize,
        bands: (usize, usize),
        stats: &mut OoocStats,
    ) -> std::result::Result<[RowBlock<'a>; 2], Self::Error>;
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

    /// The matrix's sketches and floors; a band pair costs no load, so
    /// its blocks are checked as they come up.
    fn prune<'a>(
        &'a self,
        _: &mut (),
        k: usize,
        _: &mut OoocStats,
    ) -> std::result::Result<Option<Pruning<'a>>, Infallible> {
        Ok(Some(Pruning {
            sketches: self.matrix.sketches(),
            floors: self.floors.at(k, self.matrix.rows()),
            loaded: None,
        }))
    }

    fn pair<'a>(
        &'a self,
        _: &'a mut (),
        band_rows: usize,
        (bi, bj): (usize, usize),
        _: &mut OoocStats,
    ) -> std::result::Result<[RowBlock<'a>; 2], Infallible> {
        let chain = self.chain.get_or_init(|| self.matrix.sketches().chain());
        Ok([bi, bj].map(|b| RowBlock::Listed {
            matrix: self.matrix,
            ids: &chain[b * band_rows..((b + 1) * band_rows).min(chain.len())],
        }))
    }
}

/// A norm not known yet: `sqrt` returns no negative number but `-0.0`,
/// so no row's norm is this.
const UNKNOWN_NORM: f64 = -1.0;

/// Where a band lends row `r` from the kept rows, in its `at`.
const LENT: usize = usize::MAX;

/// One worker's buffers over a streamed source: two bands, and what
/// filling one needs.
pub struct StreamBuffers {
    bands: [Band; 2],
    /// The band used last.
    recent: usize,
    /// The raw rows of a band's run of consecutive rows past the first
    /// it reads.
    scratch: Vec<f64>,
    /// The norms of the rows read by the load last.
    norms: Vec<f64>,
}

/// A band buffer: band `idx`, once loaded, which is rows `ids` of the
/// source. Row `r` is the unit row `at[r]` of `data`, where it was read,
/// or kept row `ids[r]` where `at[r]` is [`LENT`].
#[derive(Default)]
struct Band {
    idx: Option<usize>,
    ids: Vec<usize>,
    at: Vec<usize>,
    data: Vec<f64>,
}

impl Band {
    /// The band's rows of `stride` values, kept ones read from `kept`.
    fn block<'a>(&'a self, kept: &'a Kept, stride: usize) -> RowBlock<'a> {
        RowBlock::Loaded {
            data: &self.data,
            ids: &self.ids,
            at: &self.at,
            kept,
            stride,
        }
    }
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
            bands: Default::default(),
            recent: 0,
            scratch: Vec::new(),
            norms: Vec::new(),
        }
    }

    /// The sketches and the chain of the sketch pass (module docs), and
    /// the floors; a band pair costs loads, so it is checked first. At
    /// `k = 0` and `k ≥ n − 1` no list holds k hits while a pair of its
    /// row is unscored, so nothing can be skipped: the pass would be
    /// loads for nothing, and the bands stay in file order (unless an
    /// earlier walk of these rows built the chain).
    fn prune<'a>(
        &'a self,
        bufs: &mut StreamBuffers,
        k: usize,
        stats: &mut OoocStats,
    ) -> Result<Option<Pruning<'a>>> {
        let n = self.source.rows();
        if k == 0 || k.saturating_add(1) >= n {
            return Ok(None);
        }
        let sketched = self.sketched(bufs, stats)?;
        Ok(Some(Pruning {
            sketches: Sketches::new(&sketched.cells, self.source.stride()),
            floors: self.floors.at(k, n),
            loaded: Some(&sketched.chain),
        }))
    }

    /// Band `b` is the chain's rows `b·h..(b+1)·h` once the sketch pass
    /// has built it, the source's otherwise. A band not in either buffer
    /// is loaded into the one that holds neither band of the pair and
    /// was used longest ago; its rows the sketch pass kept are lent from
    /// there.
    fn pair<'a>(
        &'a self,
        bufs: &'a mut StreamBuffers,
        band_rows: usize,
        (bi, bj): (usize, usize),
        stats: &mut OoocStats,
    ) -> Result<[RowBlock<'a>; 2]> {
        let sketched = self.sketched.get();
        let chain = sketched.map(|s| s.chain.as_slice());
        let kept = sketched.map_or(&NOTHING_KEPT, |s| &s.kept);
        let mut lent = [0usize; 2];
        for (side, b) in [bi, bj].into_iter().enumerate() {
            let held = bufs.bands.iter().position(|band| band.idx == Some(b));
            let slot = match held {
                Some(slot) => slot,
                None => {
                    let needed = |band: &Band| band.idx.is_some_and(|x| x == bi || x == bj);
                    let older = 1 - bufs.recent;
                    let slot = if needed(&bufs.bands[older]) {
                        bufs.recent
                    } else {
                        older
                    };
                    let band = &mut bufs.bands[slot];
                    let rows = b * band_rows..((b + 1) * band_rows).min(self.source.rows());
                    band.idx = None;
                    band.ids.clear();
                    match chain {
                        Some(chain) => band.ids.extend_from_slice(&chain[rows]),
                        None => band.ids.extend(rows),
                    }
                    let (scratch, norms) = (&mut bufs.scratch, &mut bufs.norms);
                    self.load(band, kept, scratch, norms, stats)?;
                    band.idx = Some(b);
                    slot
                }
            };
            bufs.recent = slot;
            lent[side] = slot;
        }
        let bufs: &'a StreamBuffers = bufs;
        let stride = self.source.stride();
        Ok(lent.map(|slot| bufs.bands[slot].block(kept, stride)))
    }
}

impl Streamed<'_> {
    /// The query form over a streamed source: for each row `queries`
    /// lists, in the order given, the `k` most cosine-similar other rows,
    /// best first, each list bit-identical to [`crate::top_k_query`]'s
    /// over the in-memory matrix. The query rows are loaded first, one at
    /// a time, then every band once, in file order, and scored against
    /// all of them (`score_queries`): `queries.len() + B` loads, each
    /// row's norm computed once, nothing sketched. Fails on a bad load or
    /// a query index past the last row ([`Error::Invalid`]), or on a row
    /// no year may hold ([`Error::Schema`]).
    pub fn top_k_queries(
        &self,
        queries: &[usize],
        k: usize,
    ) -> Result<(Vec<Vec<SimilarityMatch>>, OoocStats)> {
        let (n, stride) = self.shape();
        let mut bufs = self.buffers();
        let (band, scratch, norms) = (&mut bufs.bands[0], &mut bufs.scratch, &mut bufs.norms);
        let mut stats = OoocStats::default();
        let mut held = Vec::with_capacity(queries.len() * stride);
        for &q in queries {
            if q >= n {
                return Err(Error::Invalid(format!("query row {q} out of range ({n})")));
            }
            band.ids.clear();
            band.ids.push(q);
            self.load(band, &NOTHING_KEPT, scratch, norms, &mut stats)?;
            held.extend_from_slice(&band.data);
        }
        let rows: Vec<&[f64]> = (0..queries.len())
            .map(|s| &held[s * stride..(s + 1) * stride])
            .collect();
        let mut lists: Vec<TopKBuffer> = queries.iter().map(|_| TopKBuffer::new(k)).collect();
        let band_rows = self.band_rows.max(1);
        for start in (0..n).step_by(band_rows) {
            band.ids.clear();
            band.ids.extend(start..(start + band_rows).min(n));
            self.load(band, &NOTHING_KEPT, scratch, norms, &mut stats)?;
            let block = band.block(&NOTHING_KEPT, stride);
            stats.kernel.pairs_scored += score_queries(&mut lists, queries, &rows, block);
        }
        Ok((lists.into_iter().map(TopKBuffer::finish).collect(), stats))
    }

    /// Every row's sketch and the chain over them, built once for every
    /// worker walking these rows.
    fn sketched(&self, bufs: &mut StreamBuffers, stats: &mut OoocStats) -> Result<&Sketched> {
        if let Some(done) = self.sketched.get() {
            return Ok(done);
        }
        let _sketching = self
            .sketching
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(done) = self.sketched.get() {
            return Ok(done);
        }
        let built = self.sketch_pass(bufs, stats)?;
        Ok(self.sketched.get_or_init(|| built))
    }

    /// The sketch pass: every band loaded once, in file order, and each
    /// of its rows normalized and sketched in one pass
    /// ([`write_normalized`]), as
    /// [`crate::SeriesMatrixBuilder::set_row_normalized`] writes the same
    /// row — the unit values kept for the rows [`Kept`] holds, only the
    /// sketch for the others — then the chain built over the sketches.
    fn sketch_pass(&self, bufs: &mut StreamBuffers, stats: &mut OoocStats) -> Result<Sketched> {
        let (n, stride) = self.shape();
        let (width, band_rows) = (sketch_width(stride), self.band_rows.max(1));
        let kept_rows = (self.source.cache_bytes() / (stride * 8).max(1)).min(n);
        let mut cells = vec![0.0; n * width];
        let mut unit = vec![0.0; stride];
        let mut pieces = Vec::with_capacity(kept_rows.div_ceil(band_rows));
        let (band, norms) = (&mut bufs.bands[0], &mut bufs.norms);
        band.idx = None;
        for start in (0..n).step_by(band_rows) {
            let rows = start..(start + band_rows).min(n);
            norms.clear();
            self.read(rows.clone(), &mut band.data, norms, stats)?;
            stats.bands_loaded += 1;
            let mut piece = vec![0.0; (kept_rows.clamp(start, rows.end) - start) * stride];
            for (r, &norm) in norms.iter().enumerate() {
                let i = start + r;
                let row = &band.data[r * stride..(r + 1) * stride];
                let sketch = &mut cells[i * width..(i + 1) * width];
                let out = if i < kept_rows {
                    &mut piece[r * stride..(r + 1) * stride]
                } else {
                    &mut unit[..]
                };
                write_normalized(out, sketch, row, norm);
            }
            if start < kept_rows {
                pieces.push(piece);
            }
        }
        stats.rows_kept += kept_rows as u64;
        let chain = Sketches::new(&cells, stride).chain();
        let kept = Kept {
            pieces,
            band_rows,
            rows: kept_rows,
        };
        Ok(Sketched { cells, chain, kept })
    }

    /// Fill `band` with the source rows `band.ids` lists, in that order,
    /// as unit rows: each row `kept` holds is lent from there, and the
    /// others are read ([`Streamed::read`]) — one
    /// [`SeriesSource::load_band`] per run of consecutive rows, the
    /// first straight into `band.data` and divided by its norms in
    /// place, each later one into `scratch` and appended divided, so
    /// that every value is written once. `norms` gets the norms of the
    /// rows read.
    fn load(
        &self,
        band: &mut Band,
        kept: &Kept,
        scratch: &mut Vec<f64>,
        norms: &mut Vec<f64>,
        stats: &mut OoocStats,
    ) -> Result<()> {
        let stride = self.source.stride();
        band.data.clear();
        band.at.clear();
        norms.clear();
        for run in band.ids.chunk_by(|x, y| x + 1 == *y) {
            // The kept rows are the first of the source, so a run's kept
            // rows are its first.
            let end = run[0] + run.len();
            let rows = kept.rows.clamp(run[0], end)..end;
            let lent = run.len() - rows.len();
            band.at.extend(std::iter::repeat_n(LENT, lent));
            stats.rows_lent_kept += lent as u64;
            if rows.is_empty() {
                continue;
            }
            // One norm per row read so far: the rows before these.
            let known = norms.len();
            band.at.extend(known..known + rows.len());
            if known == 0 {
                self.read(rows, &mut band.data, norms, stats)?;
                normalize_band(&mut band.data, stride, norms);
            } else {
                self.read(rows, scratch, norms, stats)?;
                append_normalized(&mut band.data, scratch, stride, &norms[known..]);
            }
        }
        stats.bands_loaded += 1;
        Ok(())
    }

    /// Fill `into` with source rows `rows` ([`SeriesSource::load_band`]),
    /// raw, and append their norms to `norms` ([`Streamed::norms_of`]).
    fn read(
        &self,
        rows: Range<usize>,
        into: &mut Vec<f64>,
        norms: &mut Vec<f64>,
        stats: &mut OoocStats,
    ) -> Result<()> {
        let stride = self.source.stride();
        self.source.load_band(rows.clone(), into)?;
        if into.len() != rows.len() * stride {
            return Err(Error::Invalid(format!(
                "series source filled {} values for band {}..{} (want {})",
                into.len(),
                rows.start,
                rows.end,
                rows.len() * stride
            )));
        }
        stats.bytes_streamed += (into.len() * 8) as u64;
        self.norms_of(rows, into, norms, stats)
    }

    /// The norms of source rows `rows`, whose raw values `data` holds,
    /// appended to `norms`: each read from the shared store, or, on the
    /// row's first load, computed and recorded there. A row is checked then: one
    /// holding a NaN, ±∞ or negative reading is refused as
    /// [`ConsumerSeries::validate`] refuses a year, naming the row.
    fn norms_of(
        &self,
        rows: Range<usize>,
        data: &[f64],
        norms: &mut Vec<f64>,
        stats: &mut OoocStats,
    ) -> Result<()> {
        let stride = self.source.stride();
        let first = rows.start;
        let store = &self.norms[rows];
        let known = norms.len();
        norms.extend(
            store
                .iter()
                .map(|n| f64::from_bits(n.load(Ordering::Relaxed))),
        );
        // In the pair walk every norm is known after the sketch pass; in
        // the query form a query row is known before the band that holds
        // it. Runs of unknowns are checked and computed, nothing else,
        // eight rows at a time so that a row's norm is taken while the
        // check has it in cache (`norm2_rows` is `norm2` row by row, so
        // the split moves no bit).
        let mut r = 0;
        let unknown = |x: &f64, y: &f64| (*x == UNKNOWN_NORM) == (*y == UNKNOWN_NORM);
        for run in norms[known..].chunk_by_mut(unknown) {
            if run[0] == UNKNOWN_NORM {
                for (b, block) in run.chunks_mut(8).enumerate() {
                    let at = r + b * 8;
                    let fresh = &data[at * stride..(at + block.len()) * stride];
                    for (i, row) in fresh.chunks_exact(stride.max(1)).enumerate() {
                        let row_index = first + at + i;
                        ConsumerSeries::validate_readings(
                            format_args!("series source row {row_index}"),
                            row,
                        )?;
                    }
                    norm2_rows(fresh, stride, block);
                }
                for (known, &norm) in store[r..].iter().zip(run.iter()) {
                    known.store(norm.to_bits(), Ordering::Relaxed);
                }
                stats.norms_computed += run.len() as u64;
            }
            r += run.len();
        }
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

/// Append each raw row of `raw` to `out` unit-normalized by its norm in
/// `norms`, as [`normalize_band`] would leave it in place.
fn append_normalized(out: &mut Vec<f64>, raw: &[f64], stride: usize, norms: &[f64]) {
    for (r, &n) in norms.iter().enumerate() {
        let row = &raw[r * stride..(r + 1) * stride];
        if n != 0.0 {
            out.extend(row.iter().map(|v| v / n));
        } else {
            out.extend_from_slice(row);
        }
    }
}

/// One worker's share of the similarity walk: repeatedly claim a range
/// of units from `claim` (e.g. an atomic counter shared across
/// workers; `None` walks every unit) and score them — a band pair each
/// of chain-ordered bands, the diagonal ones the triangle inside one band
/// and the others the cross product of two, skipping the register blocks
/// whose sketch bounds miss both endpoints' thresholds (and, over a
/// streamed source, a band pair all of whose blocks would be skipped,
/// before it is loaded; DESIGN.md §9). Returns per-row partial top-k
/// lists, each the k best of the pairs this worker scored, plus what the
/// walk did. A claimed pair it skipped lies below a k-th score some
/// worker walking the same rows held for each of its rows, so it could
/// not have entered either row's final list.
///
/// The output is bit-identical to [`crate::top_k_cosine`] over the
/// matrix `rows` describes, once the partials of workers whose claims
/// together partition the units `0..band_pair_count(bands)` are merged
/// ([`crate::merge_partials`]). [`Resident`] rows cannot fail; a
/// [`Streamed`] source fails on a bad load ([`Error::Invalid`]), or on a
/// row no year may hold ([`Error::Schema`]).
///
/// # Panics
/// Panics on a claimed unit out of range.
pub fn similarity_walk<R: BandRows + ?Sized>(
    rows: &R,
    k: usize,
    cfg: &TileConfig,
    claim: Option<&dyn Fn() -> Option<Range<usize>>>,
) -> std::result::Result<(Vec<Vec<SimilarityMatch>>, OoocStats), R::Error> {
    let (n, _) = rows.shape();
    let band_rows = rows.band_rows(cfg);
    let bands = band_count(n, band_rows);
    let units = band_pair_count(bands);
    let mut bufs = rows.buffers();
    let mut stats = OoocStats::default();
    let pruning = rows.prune(&mut bufs, k, &mut stats)?;
    let loaded = pruning.as_ref().and_then(|p| p.loaded);
    let mut scorer = PairScorer::new(n, k, cfg, pruning.map(|p| (p.sketches, p.floors)));
    let everything = Cell::new(Some(0..units));
    let walk_everything = || everything.take();
    let claim = claim.unwrap_or(&walk_everything);
    while let Some(claimed) = claim() {
        assert!(claimed.end <= units, "claimed {claimed:?} of {units} units");
        for t in claimed {
            let (bi, bj) = lead_pair_at(bands, t);
            if let Some(chain) = loaded {
                let band = |b: usize| &chain[b * band_rows..((b + 1) * band_rows).min(n)];
                if bi != bj && scorer.cannot_enter_band(band(bi), band(bj)) {
                    continue;
                }
            }
            let [a, b] = rows.pair(&mut bufs, band_rows, (bi, bj), &mut stats)?;
            scorer.score(a, (bi != bj).then_some(b));
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
            let Ok((got, stats)) = similarity_walk(&resident, k, &cfg, None);
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
        let order = SeriesMatrix::from_rows_normalized(&rows).sketches().chain();
        assert_eq!(order, [0, 2, 4, 6, 8, 1, 3, 5, 7]);
        // Zero rows have no usable sketch: every bound reads as +∞ and
        // the chain is the row order.
        let zeros = SeriesMatrix::from_rows_normalized(&vec![vec![0.0; 31]; 5]);
        assert_eq!(zeros.sketches().chain(), [0, 1, 2, 3, 4]);
        let none = SeriesMatrix::from_rows_normalized(&[]);
        assert!(none.sketches().chain().is_empty());
    }

    #[test]
    fn band_pair_enumeration_is_a_bijection() {
        for bands in [0usize, 1, 2, 3, 7, 16] {
            let mut seen: Vec<(usize, usize)> = (0..band_pair_count(bands))
                .map(|t| lead_pair_at(bands, t))
                .collect();
            seen.sort_unstable();
            let expect: Vec<(usize, usize)> = (0..bands)
                .flat_map(|bi| (bi..bands).map(move |bj| (bi, bj)))
                .collect();
            assert_eq!(seen, expect, "bands={bands}");
        }
    }

    #[test]
    fn the_order_leads_with_neighbours_and_shares_a_band_at_each_step() {
        for bands in 0usize..=16 {
            let order: Vec<(usize, usize)> = (0..band_pair_count(bands))
                .map(|t| lead_pair_at(bands, t))
                .collect();
            // A bijection onto the band pairs: the test before.
            // The lead: every pair less than two bands apart, each
            // band's own triangle before its pair with the band before.
            let lead = (2 * bands).saturating_sub(1);
            let neighbours = (0..bands).flat_map(|b| {
                let before = b.checked_sub(1).map(|a| (a, b));
                std::iter::once((b, b)).chain(before)
            });
            assert!(
                order[..lead].iter().copied().eq(neighbours),
                "bands={bands}"
            );
            // Then the rest, triangle rows from the last back, each
            // row's pairs contiguous, starting on the band the row before
            // ended on and ending on its own nearest band; every pair
            // shares a band with the one before.
            let rest = &order[lead..];
            assert!(rest.iter().all(|&(bi, bj)| bj >= bi + 2), "bands={bands}");
            assert!(rest.windows(2).all(|w| w[1].0 <= w[0].0), "bands={bands}");
            for w in order[lead.saturating_sub(1)..].windows(2) {
                let [(a, b), (c, d)] = [w[0], w[1]];
                assert!([c, d].iter().any(|x| [a, b].contains(x)), "bands={bands}");
                if c < a && a + 3 < bands {
                    assert_eq!((b, d), (a + 2, c + 3), "bands={bands}");
                }
            }
        }
    }
}
