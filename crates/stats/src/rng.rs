//! Random distributions for the data generator.
//!
//! `rand` (per the dependency budget) ships only uniform sampling without
//! `rand_distr`, so the Gaussian sampler is a hand-rolled Marsaglia polar
//! transform. Deterministic for a fixed seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seedable Gaussian (normal) sampler using the Marsaglia polar method.
#[derive(Debug, Clone)]
pub struct GaussianNoise {
    rng: StdRng,
    mean: f64,
    stddev: f64,
    spare: Option<f64>,
}

impl GaussianNoise {
    /// A sampler for `N(mean, stddev²)` seeded with `seed`.
    ///
    /// # Panics
    /// Panics if `stddev` is negative or not finite.
    pub fn new(mean: f64, stddev: f64, seed: u64) -> Self {
        assert!(
            stddev >= 0.0 && stddev.is_finite(),
            "stddev must be finite and non-negative"
        );
        GaussianNoise {
            rng: StdRng::seed_from_u64(seed),
            mean,
            stddev,
            spare: None,
        }
    }

    /// Draw one sample: a standard-normal variate, one polar attempt at
    /// a time — the stream `polar_pairs` reproduces in chunks — scaled.
    pub fn sample(&mut self) -> f64 {
        let z = self.spare.take().unwrap_or_else(|| loop {
            let u: f64 = self.rng.gen_range(-1.0..1.0);
            let v: f64 = self.rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.spare = Some(v * factor);
                break u * factor;
            }
        });
        self.mean + self.stddev * z
    }

    /// Fill `out` with the next `out.len()` samples: the values, bit for
    /// bit, that as many calls to [`sample`](Self::sample) would return,
    /// leaving the sampler (its stream and its spare variate) where those
    /// calls would.
    ///
    /// A held spare goes first, then the whole pairs, then for an odd
    /// count one more pair whose second variate becomes the spare; the
    /// standard variates are scaled in place at the end.
    pub fn fill(&mut self, out: &mut [f64]) {
        let mut held = 0;
        if let (Some(z), Some(first)) = (self.spare, out.first_mut()) {
            *first = z;
            self.spare = None;
            held = 1;
        }
        let (pairs, odd) = out[held..].as_chunks_mut::<2>();
        polar_pairs(&mut self.rng, pairs);
        if let Some(last) = odd.first_mut() {
            let mut pair = [[0.0; 2]];
            polar_pairs(&mut self.rng, &mut pair);
            *last = pair[0][0];
            self.spare = Some(pair[0][1]);
        }
        for x in out {
            *x = self.mean + self.stddev * *x;
        }
    }
}

/// Polar attempts drawn per chunk at most.
const POLAR_CHUNK: usize = 128;

/// Fill `out` with accepted Marsaglia polar pairs from `rng`, standard
/// normal, in stream order: the pairs, and the stream position after
/// them, of `out.len()` passes through the one-at-a-time rejection loop
/// in [`GaussianNoise::sample`].
///
/// Each chunk draws at most as many attempts as pairs are still owed, so
/// no accepted attempt is surplus: the last chunk accepts every attempt
/// it draws, and the stream stops on the pair that completes the count.
/// A candidate is written to the next unfilled pair and kept by advancing
/// past it, without a branch; then a chunk's `ln` / `÷` / `sqrt` run back
/// to back.
fn polar_pairs(rng: &mut StdRng, out: &mut [[f64; 2]]) {
    let mut radii = [0.0; POLAR_CHUNK];
    let mut rest = out;
    while !rest.is_empty() {
        let mut kept = 0;
        for _ in 0..rest.len().min(POLAR_CHUNK) {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            // `kept` trails the attempt count, so both slots are in range.
            rest[kept] = [u, v];
            radii[kept] = s;
            kept += usize::from((s > 0.0) & (s < 1.0));
        }
        let (done, tail) = rest.split_at_mut(kept);
        for ([u, v], s) in done.iter_mut().zip(&radii) {
            let factor = (-2.0 * s.ln() / s).sqrt();
            (*u, *v) = (*u * factor, *v * factor);
        }
        rest = tail;
    }
}

/// A seedable uniform helper for choices the generator makes
/// (picking clusters/consumers).
#[derive(Debug, Clone)]
pub struct Picker {
    rng: StdRng,
}

impl Picker {
    /// A picker seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Picker {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Uniform index in `0..n`.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick from an empty range");
        self.rng.gen_range(0..n)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_moments_are_close() {
        let mut g = GaussianNoise::new(2.0, 3.0, 99);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn deterministic_for_seed() {
        let a: Vec<f64> = {
            let mut g = GaussianNoise::new(0.0, 1.0, 7);
            (0..10).map(|_| g.sample()).collect()
        };
        let b: Vec<f64> = {
            let mut g = GaussianNoise::new(0.0, 1.0, 7);
            (0..10).map(|_| g.sample()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn zero_stddev_is_constant() {
        let mut g = GaussianNoise::new(5.0, 0.0, 1);
        for _ in 0..5 {
            assert_eq!(g.sample(), 5.0);
        }
    }

    #[test]
    fn roughly_symmetric_tails() {
        let mut g = GaussianNoise::new(0.0, 1.0, 3);
        let n = 100_000;
        let above = (0..n).filter(|_| g.sample() > 0.0).count();
        let frac = above as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "positive fraction {frac}");
    }

    #[test]
    fn picker_stays_in_range() {
        let mut p = Picker::new(11);
        for _ in 0..1000 {
            assert!(p.index(7) < 7);
            let u = p.uniform(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&u));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn picker_rejects_empty() {
        Picker::new(0).index(0);
    }
}
