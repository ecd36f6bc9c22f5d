//! Fixtures shared by the similarity kernels' unit tests.

use crate::similarity::SimilarityMatch;

/// `n` deterministic xorshift rows of `len` values in `[0, 4)`.
pub(crate) fn pseudo_series(n: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f64 / 250.0
    };
    (0..n).map(|_| (0..len).map(|_| next()).collect()).collect()
}

/// Rows concatenated row-major, plus the stride.
pub(crate) fn flat(rows: &[Vec<f64>]) -> (Vec<f64>, usize) {
    let stride = rows.first().map_or(0, Vec::len);
    (rows.iter().flatten().copied().collect(), stride)
}

pub(crate) fn assert_bit_identical(a: &[Vec<SimilarityMatch>], b: &[Vec<SimilarityMatch>]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.len(), y.len());
        for (h, g) in x.iter().zip(y) {
            assert_eq!(h.index, g.index);
            assert_eq!(h.score.to_bits(), g.score.to_bits(), "score bits differ");
        }
    }
}
