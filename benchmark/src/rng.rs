//! Everything random in the benchmark, derived from `--seed` alone: the
//! sub-seeds handed to the data generators, the Zipf consumer draw, the
//! query mix, and which rows get spot-checked.

use smda_types::{ConsumerId, Query, QueryKind};

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// An independent seed for the part of a run named `tag`, so that two
/// phases never share a random stream and adding a phase does not shift
/// another phase's inputs.
pub fn sub_seed(seed: u64, tag: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in tag.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    SplitMix64::new(seed ^ h).next_u64()
}

/// Zipf(`s`) over ranks `0..n`: rank `r` is drawn with weight
/// `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Top-k size every similarity query asks for (the paper's top 10).
pub const TOP_K: usize = 10;

fn query_of(kind: QueryKind, consumer: ConsumerId) -> Query {
    match kind {
        QueryKind::TopKSimilar => Query::TopKSimilar { consumer, k: TOP_K },
        QueryKind::Histogram => Query::Histogram { consumer },
        QueryKind::ThreeLineFeatures => Query::ThreeLineFeatures { consumer },
        QueryKind::ParCoefficients => Query::ParCoefficients { consumer },
        QueryKind::AnomalyStatus => Query::AnomalyStatus { consumer },
    }
}

/// The serve phase's query stream: `count` queries, consumers drawn
/// Zipf(1.0) over a seeded permutation of `0..n` (so popularity is not
/// tied to generation order), kinds uniform over the five
/// [`QueryKind`]s. Consumer ids are the generator's `0..n`.
pub fn query_mix(n: usize, count: usize, seed: u64) -> Vec<Query> {
    let mut rng = SplitMix64::new(seed);
    let by_rank = permutation(n, &mut rng);
    let zipf = Zipf::new(n, 1.0);
    (0..count)
        .map(|_| {
            let consumer = ConsumerId(by_rank[zipf.sample(&mut rng)] as u32);
            query_of(QueryKind::ALL[rng.below(QueryKind::ALL.len())], consumer)
        })
        .collect()
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// `count` distinct rows of `0..n` (all of them when `count >= n`),
/// ascending.
pub fn pick_rows(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rows = permutation(n, &mut SplitMix64::new(seed));
    rows.truncate(count);
    rows.sort_unstable();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_other_seed_differs() {
        let a = query_mix(64, 500, 7);
        assert_eq!(a, query_mix(64, 500, 7));
        assert_ne!(a, query_mix(64, 500, 8));
        assert_eq!(pick_rows(64, 32, 3), pick_rows(64, 32, 3));
        assert_ne!(sub_seed(1, "sim"), sub_seed(1, "oooc"));
        assert_ne!(sub_seed(1, "sim"), sub_seed(2, "sim"));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(50, 1.0);
        let mut rng = SplitMix64::new(11);
        let mut counts = [0usize; 50];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Rank 0 carries 1/H(50) ≈ 22 % of the mass, rank 49 ≈ 0.4 %.
        assert!((3_900..5_000).contains(&counts[0]), "{}", counts[0]);
        assert!(counts[0] > 2 * counts[2] && counts[2] > counts[20]);
        assert!(counts[49] < 200);
        assert_eq!(counts.iter().sum::<usize>(), 20_000);
    }

    #[test]
    fn query_mix_covers_every_kind_and_only_known_consumers() {
        let qs = query_mix(16, 2_000, 5);
        for kind in QueryKind::ALL {
            let share = qs.iter().filter(|q| q.kind() == kind).count();
            assert!((300..500).contains(&share), "{kind:?}: {share}");
        }
        assert!(qs.iter().all(|q| q.consumer().raw() < 16));
    }

    #[test]
    fn pick_rows_are_distinct_sorted_and_bounded() {
        let rows = pick_rows(40, 32, 9);
        assert_eq!(rows.len(), 32);
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
        assert!(rows.iter().all(|&r| r < 40));
        assert_eq!(pick_rows(5, 32, 9), vec![0, 1, 2, 3, 4]);
    }
}
