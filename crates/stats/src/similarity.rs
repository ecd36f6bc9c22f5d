//! Cosine similarity and top-k search (the Section 3.4 benchmark task).

/// Canonical sum of squares: one serial dependency chain, the norm
/// reference every platform shares. All norms in the workspace — this
/// module's [`norm2`], the matrix builder's row normalization, the
/// Hive/Spark sides — must flow through this single entry point so the
/// question "what is ‖v‖²?" has exactly one bit pattern as its answer.
/// ([`norm2_rows`] runs this very chain for eight rows side by side.)
pub fn sumsq(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>()
}

/// Euclidean (L2) norm, `sumsq(v).sqrt()`.
pub fn norm2(v: &[f64]) -> f64 {
    sumsq(v).sqrt()
}

/// Rows [`norm2_rows`] runs side by side.
const NORM_BLOCK: usize = 8;

/// [`norm2`] of each of the `norms.len()` rows laid out row-major at
/// `stride` in `rows`, into `norms` — `to_bits`-equal to `norm2` row by
/// row. Eight rows run at once as eight independent chains, each
/// [`sumsq`]'s fold: `Sum`'s `-0.0` start, then the squares added in
/// index order. One chain waits on every add; eight keep the adder
/// busy. A ragged tail of fewer than eight rows runs through `norm2`.
///
/// # Panics
/// Panics if `rows.len() != norms.len() * stride`.
pub fn norm2_rows(rows: &[f64], stride: usize, norms: &mut [f64]) {
    assert_eq!(
        rows.len(),
        norms.len() * stride,
        "norm2_rows: shape disagrees"
    );
    if stride == 0 {
        norms.fill(norm2(&[]));
        return;
    }
    let mut blocks = norms.chunks_exact_mut(NORM_BLOCK);
    let mut block_rows = rows.chunks_exact(NORM_BLOCK * stride);
    for (out, block) in (&mut blocks).zip(&mut block_rows) {
        let lanes: [&[f64]; NORM_BLOCK] =
            std::array::from_fn(|l| &block[l * stride..(l + 1) * stride]);
        let mut acc = [-0.0f64; NORM_BLOCK];
        for h in 0..stride {
            for (a, lane) in acc.iter_mut().zip(&lanes) {
                *a += lane[h] * lane[h];
            }
        }
        for (o, a) in out.iter_mut().zip(acc) {
            *o = a.sqrt();
        }
    }
    let tail = block_rows.remainder().chunks_exact(stride);
    for (o, row) in blocks.into_remainder().iter_mut().zip(tail) {
        *o = norm2(row);
    }
}

/// Dot product of equal-length slices — the **canonical** dot product of
/// the whole workspace. Every similarity path — naive, tiled, parallel,
/// Hive, Spark — must call this function so their scores agree **bit for
/// bit**. Dispatches to the lane-preserving AVX2 kernel when the CPU has
/// it; that kernel maps [`dot_scalar`]'s 4 accumulators onto 4 vector
/// lanes with the same reduction tree, so the dispatch is invisible at
/// the bit level (pinned by `--check kernels` and proptests).
/// `dot(a, b) == dot(b, a)` exactly because per-element products commute
/// bitwise.
///
/// # Panics
/// Panics if lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    let [[dot]] = crate::simd::dot_block([a], [b]);
    dot
}

/// The fixed-order scalar dot product — the bit-exact reference the SIMD
/// kernels are held to. A 4-wide multi-accumulator loop that rustc
/// autovectorizes (the serial `zip().sum()` form is one long dependency
/// chain the compiler may not reorder, since float addition is not
/// associative); the final reduction is `((a0+a1)+(a2+a3)) + tail`.
///
/// # Panics
/// Panics if lengths differ.
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product requires equal lengths");
    let mut acc = [0.0f64; 4];
    let mut chunks = a.chunks_exact(4).zip(b.chunks_exact(4));
    for (ca, cb) in &mut chunks {
        acc[0] += ca[0] * cb[0];
        acc[1] += ca[1] * cb[1];
        acc[2] += ca[2] * cb[2];
        acc[3] += ca[3] * cb[3];
    }
    let mut tail = 0.0;
    let rem = a.len() / 4 * 4;
    for (x, y) in a[rem..].iter().zip(&b[rem..]) {
        tail += x * y;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

/// Cosine similarity `a·b / (‖a‖‖b‖)`; zero when either vector is zero.
/// Short-circuits after the first all-zero norm — the second norm and
/// the dot product are never computed for zero inputs.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    let na = norm2(a);
    if na == 0.0 {
        return 0.0;
    }
    let nb = norm2(b);
    if nb == 0.0 {
        return 0.0;
    }
    dot(a, b) / (na * nb)
}

/// One similarity-search hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityMatch {
    /// Index of the matched series in the input collection.
    pub index: usize,
    /// Cosine similarity to the query series.
    pub score: f64,
}

smda_types::bit_eq_fields!(SimilarityMatch { index, score });

/// Normalize each vector to unit length (zero vectors stay zero), so the
/// all-pairs search reduces to plain dot products.
pub fn normalize_all(series: &[Vec<f64>]) -> Vec<Vec<f64>> {
    series
        .iter()
        .map(|v| {
            let n = norm2(v);
            if n == 0.0 {
                v.clone()
            } else {
                v.iter().map(|x| x / n).collect()
            }
        })
        .collect()
}

/// For the `query`-th series in `normalized` (unit vectors), find the
/// `k` most cosine-similar other series, best first. Ties broken by the
/// lower index for determinism.
fn top_k_normalized(normalized: &[Vec<f64>], query: usize, k: usize) -> Vec<SimilarityMatch> {
    let q = &normalized[query];
    let mut hits: Vec<SimilarityMatch> = Vec::with_capacity(normalized.len().saturating_sub(1));
    for (i, v) in normalized.iter().enumerate() {
        if i == query {
            continue;
        }
        hits.push(SimilarityMatch {
            index: i,
            score: dot(q, v),
        });
    }
    select_top_k(&mut hits, k);
    hits
}

/// For each series, the top-`k` most similar other series — the full
/// quadratic benchmark task. Single-threaded reference implementation;
/// the engines parallelize their own variants.
pub fn top_k_cosine(series: &[Vec<f64>], k: usize) -> Vec<Vec<SimilarityMatch>> {
    let normalized = normalize_all(series);
    (0..series.len())
        .map(|i| top_k_normalized(&normalized, i, k))
        .collect()
}

/// Truncate `hits` to the `k` best, sorted best-first (score desc, index
/// asc). Uses `select_nth_unstable` so the common `k ≪ n` case avoids a
/// full sort.
///
/// Scores compare by `partial_cmp`, so finite ones — `±0.0` ties broken
/// by index — keep their order. A NaN score (a row of zeros or of
/// overflowing values scored against another) is placed by
/// `f64::total_cmp` instead, after every score for a positive NaN and
/// before them for a negative one, which keeps the order total, so
/// neither the selection nor the sort can panic on it.
pub fn select_top_k(hits: &mut Vec<SimilarityMatch>, k: usize) {
    let by_score_desc = |a: &SimilarityMatch, b: &SimilarityMatch| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or_else(|| b.score.total_cmp(&a.score))
            .then(a.index.cmp(&b.index))
    };
    if hits.len() > k {
        let pivot = k.saturating_sub(1).min(hits.len() - 1);
        hits.select_nth_unstable_by(pivot, by_score_desc);
        hits.truncate(k);
    }
    hits.sort_by(by_score_desc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_types::BitEq;

    #[test]
    fn a_nan_score_is_ranked_without_a_panic() {
        let hit = |index, score| SimilarityMatch { index, score };
        let mut hits = vec![
            hit(0, 0.5),
            hit(1, f64::NAN),
            hit(2, -0.0),
            hit(3, 0.0),
            hit(4, -f64::NAN),
            hit(5, 0.25),
        ];
        select_top_k(&mut hits, 4);
        let order: Vec<usize> = hits.iter().map(|h| h.index).collect();
        // A positive NaN above every score; the tied zeros by index.
        assert_eq!(order, [1, 0, 5, 2]);
        let mut all = vec![hit(0, f64::NAN), hit(1, 0.5), hit(2, -f64::NAN)];
        select_top_k(&mut all, 10);
        assert_eq!(all.iter().map(|h| h.index).collect::<Vec<_>>(), [0, 1, 2]);
    }

    /// Match lists compare per query: a hit that moves to the neighbouring
    /// query's list is a different answer though the flattened sequence
    /// of hits is unchanged.
    #[test]
    fn a_match_moved_to_the_next_query_differs() {
        let hit = |index, score| SimilarityMatch { index, score };
        let lists = vec![vec![hit(1, 0.5), hit(2, 0.25)], vec![hit(0, 0.5)]];
        let moved = vec![vec![hit(1, 0.5)], vec![hit(2, 0.25), hit(0, 0.5)]];
        let flat = |l: &[Vec<SimilarityMatch>]| l.concat();
        assert!(flat(&lists).bits_eq(&flat(&moved)));
        assert!(lists.bits_eq(&lists.clone()));
        assert!(!lists.bits_eq(&moved));
        let (mut renamed, mut rescored) = (lists.clone(), lists.clone());
        renamed[1][0].index = 3;
        rescored[0][1].score = f64::from_bits(0.25f64.to_bits() ^ 1);
        assert!(!lists.bits_eq(&renamed));
        assert!(!lists.bits_eq(&rescored));
    }

    #[test]
    fn cosine_of_parallel_vectors_is_one() {
        assert!((cosine_similarity(&[1.0, 2.0], &[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_orthogonal_vectors_is_zero() {
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_opposite_vectors_is_minus_one() {
        assert!((cosine_similarity(&[1.0, 1.0], &[-1.0, -1.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_vector_similarity_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn top_k_excludes_self_and_orders_by_score() {
        let series = vec![
            vec![1.0, 0.0],  // 0
            vec![0.9, 0.1],  // 1: close to 0
            vec![0.0, 1.0],  // 2: orthogonal to 0
            vec![1.0, 0.05], // 3: closest to 0
        ];
        let all = top_k_cosine(&series, 2);
        let hits = &all[0];
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].index, 3);
        assert_eq!(hits[1].index, 1);
        assert!(hits[0].score >= hits[1].score);
        assert!(all
            .iter()
            .enumerate()
            .all(|(i, hs)| hs.iter().all(|h| h.index != i)));
    }

    #[test]
    fn k_larger_than_collection_returns_all_others() {
        let series = vec![vec![1.0], vec![2.0], vec![3.0]];
        let all = top_k_cosine(&series, 10);
        assert!(all.iter().all(|h| h.len() == 2));
    }

    #[test]
    fn ties_broken_by_lower_index() {
        let series = vec![vec![1.0, 0.0], vec![1.0, 0.0], vec![1.0, 0.0]];
        let hits = top_k_cosine(&series, 2);
        assert_eq!(hits[0][0].index, 1);
        assert_eq!(hits[0][1].index, 2);
        assert_eq!(hits[2][0].index, 0);
    }

    #[test]
    fn dot_is_bitwise_symmetric_across_lengths() {
        // The kernel credits one dot product to both (i, j) and (j, i);
        // that is only sound if dot(a, b) == dot(b, a) bit for bit,
        // including the non-multiple-of-4 tail path.
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 31] {
            let a: Vec<f64> = (0..len).map(|i| (i as f64 * 0.7).sin() + 1.5).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64 * 1.3).cos() + 2.5).collect();
            assert_eq!(dot(&a, &b).to_bits(), dot(&b, &a).to_bits(), "len={len}");
        }
    }

    #[test]
    fn normalized_vectors_have_unit_norm() {
        let n = normalize_all(&[vec![3.0, 4.0], vec![0.0, 0.0]]);
        assert!((norm2(&n[0]) - 1.0).abs() < 1e-12);
        assert_eq!(norm2(&n[1]), 0.0);
    }

    #[test]
    fn select_top_k_handles_small_inputs() {
        let mut hits = vec![SimilarityMatch {
            index: 0,
            score: 0.5,
        }];
        select_top_k(&mut hits, 5);
        assert_eq!(hits.len(), 1);
        let mut hits: Vec<SimilarityMatch> = Vec::new();
        select_top_k(&mut hits, 3);
        assert!(hits.is_empty());
    }

    #[test]
    fn select_top_k_matches_full_sort() {
        let mut hits: Vec<SimilarityMatch> = (0..100)
            .map(|i| SimilarityMatch {
                index: i,
                score: ((i * 37) % 100) as f64 / 100.0,
            })
            .collect();
        let mut expected = hits.clone();
        expected.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then(a.index.cmp(&b.index))
        });
        expected.truncate(10);
        select_top_k(&mut hits, 10);
        assert_eq!(hits, expected);
    }
}
