//! Lloyd's k-means with k-means++ seeding.
//!
//! Used by the data generator (Section 4 of the paper) to cluster
//! 24-dimensional daily activity profiles, and by the segmentation
//! example application. Deterministic given an RNG seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs for [`KMeans::fit`].
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Hard cap on Lloyd iterations.
    pub max_iterations: usize,
    /// Stop once total centroid movement (squared) falls below this.
    pub tolerance: f64,
    /// RNG seed for k-means++ initialization.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            k: 8,
            max_iterations: 100,
            tolerance: 1e-9,
            seed: 42,
        }
    }
}

/// A fitted k-means model.
#[derive(Debug, Clone)]
pub struct KMeans {
    /// Final centroids, `k` rows of dimension `d`.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster assignment for each input point.
    pub assignments: Vec<usize>,
    /// Sum of squared distances of points to their centroids (inertia).
    pub inertia: f64,
    /// Number of Lloyd iterations executed.
    pub iterations: usize,
}

impl KMeans {
    /// Fit k-means to `points` (each a `d`-dimensional row).
    ///
    /// `k` is clamped to the number of points. Returns `None` when
    /// `points` is empty, `k == 0`, dimensions are inconsistent, or a
    /// coordinate is NaN or infinite.
    pub fn fit(points: &[Vec<f64>], config: KMeansConfig) -> Option<Self> {
        if points.is_empty() || config.k == 0 {
            return None;
        }
        let d = points[0].len();
        if d == 0
            || points
                .iter()
                .any(|p| p.len() != d || p.iter().any(|v| !v.is_finite()))
        {
            return None;
        }
        let k = config.k.min(points.len());
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut centroids = plus_plus_init(points, k, &mut rng);
        let mut assignments = vec![0usize; points.len()];
        let mut iterations = 0;

        for _ in 0..config.max_iterations {
            iterations += 1;
            // Assignment step.
            for (i, p) in points.iter().enumerate() {
                assignments[i] = nearest(p, &centroids).0;
            }
            // Update step.
            let mut sums = vec![vec![0.0; d]; k];
            let mut counts = vec![0usize; k];
            for (p, &a) in points.iter().zip(&assignments) {
                counts[a] += 1;
                for (s, &v) in sums[a].iter_mut().zip(p) {
                    *s += v;
                }
            }
            let mut movement = 0.0;
            for c in 0..k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster at the point farthest from
                    // its centroid (the last of equals), a standard repair.
                    let mut far = 0;
                    let mut far_d = f64::NEG_INFINITY;
                    for (i, p) in points.iter().enumerate() {
                        let d = nearest(p, &centroids).1;
                        if d.total_cmp(&far_d).is_ge() {
                            (far, far_d) = (i, d);
                        }
                    }
                    movement += sq_dist(&centroids[c], &points[far]);
                    centroids[c] = points[far].clone();
                    continue;
                }
                let inv = 1.0 / counts[c] as f64;
                let new: Vec<f64> = sums[c].iter().map(|s| s * inv).collect();
                movement += sq_dist(&centroids[c], &new);
                centroids[c] = new;
            }
            if movement < config.tolerance {
                break;
            }
        }

        // Final assignment + inertia under the final centroids.
        let mut inertia = 0.0;
        for (i, p) in points.iter().enumerate() {
            let (a, dist) = nearest(p, &centroids);
            assignments[i] = a;
            inertia += dist;
        }
        Some(KMeans {
            centroids,
            assignments,
            inertia,
            iterations,
        })
    }

    /// Members of cluster `c` (indices into the input points).
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|(_, &a)| a == c)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = sq_dist(p, c);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    (best, best_d)
}

/// k-means++ seeding: first centroid uniform, subsequent centroids sampled
/// proportionally to squared distance from the nearest chosen centroid.
fn plus_plus_init(points: &[Vec<f64>], k: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    let mut dists: Vec<f64> = points.iter().map(|p| sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = dists.iter().sum();
        let next = if total <= 0.0 {
            // All remaining points coincide with a centroid; pick uniformly.
            rng.gen_range(0..points.len())
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut idx = points.len() - 1;
            for (i, &d) in dists.iter().enumerate() {
                if target < d {
                    idx = i;
                    break;
                }
                target -= d;
            }
            idx
        };
        let chosen = points[next].clone();
        for (d, p) in dists.iter_mut().zip(points) {
            *d = d.min(sq_dist(p, &chosen));
        }
        centroids.push(chosen);
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(center: &[f64], n: usize, spread: f64, phase: usize) -> Vec<Vec<f64>> {
        // Deterministic pseudo-noise around a center.
        (0..n)
            .map(|i| {
                center
                    .iter()
                    .enumerate()
                    .map(|(j, &c)| {
                        let t = ((i * 7 + j * 13 + phase) % 17) as f64 / 17.0 - 0.5;
                        c + t * spread
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn separates_two_well_spaced_blobs() {
        let mut pts = blob(&[0.0, 0.0], 30, 0.5, 0);
        pts.extend(blob(&[10.0, 10.0], 30, 0.5, 5));
        let km = KMeans::fit(
            &pts,
            KMeansConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        // All points in one blob share an assignment.
        let first = km.assignments[0];
        assert!(km.assignments[..30].iter().all(|&a| a == first));
        let second = km.assignments[30];
        assert_ne!(first, second);
        assert!(km.assignments[30..].iter().all(|&a| a == second));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let pts = blob(&[1.0, 2.0, 3.0], 50, 2.0, 0);
        let cfg = KMeansConfig {
            k: 4,
            seed: 7,
            ..Default::default()
        };
        let a = KMeans::fit(&pts, cfg).unwrap();
        let b = KMeans::fit(&pts, cfg).unwrap();
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn k_clamped_to_point_count() {
        let pts = vec![vec![0.0], vec![1.0]];
        let km = KMeans::fit(
            &pts,
            KMeansConfig {
                k: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(km.k(), 2);
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(KMeans::fit(&[], KMeansConfig::default()).is_none());
        assert!(KMeans::fit(
            &[vec![1.0]],
            KMeansConfig {
                k: 0,
                ..Default::default()
            }
        )
        .is_none());
        assert!(KMeans::fit(&[vec![1.0], vec![1.0, 2.0]], KMeansConfig::default()).is_none());
    }

    #[test]
    fn rejects_a_non_finite_coordinate_anywhere() {
        let clean = blob(&[0.0, 1.0, 2.0], 12, 3.0, 0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, 5, 11] {
                for coord in 0..3 {
                    let mut pts = clean.clone();
                    pts[at][coord] = bad;
                    for (k, seed) in [(1, 1), (3, 7), (12, 42)] {
                        let cfg = KMeansConfig {
                            k,
                            seed,
                            ..Default::default()
                        };
                        assert!(
                            KMeans::fit(&pts, cfg).is_none(),
                            "{bad} at point {at}, coordinate {coord}, k {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn identical_points_converge_instantly() {
        let pts = vec![vec![3.0, 3.0]; 10];
        let km = KMeans::fit(
            &pts,
            KMeansConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(km.inertia < 1e-18);
    }

    #[test]
    fn members_partition_points() {
        let mut pts = blob(&[0.0], 10, 0.1, 0);
        pts.extend(blob(&[5.0], 10, 0.1, 3));
        let km = KMeans::fit(
            &pts,
            KMeansConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let total: usize = (0..km.k()).map(|c| km.members(c).len()).sum();
        assert_eq!(total, pts.len());
    }

    #[test]
    fn more_clusters_never_increase_inertia() {
        let pts = blob(&[0.0, 1.0], 60, 4.0, 0);
        let i2 = KMeans::fit(
            &pts,
            KMeansConfig {
                k: 2,
                ..Default::default()
            },
        )
        .unwrap()
        .inertia;
        let i6 = KMeans::fit(
            &pts,
            KMeansConfig {
                k: 6,
                ..Default::default()
            },
        )
        .unwrap()
        .inertia;
        assert!(i6 <= i2 + 1e-9, "inertia k=6 {i6} should be <= k=2 {i2}");
    }
}
