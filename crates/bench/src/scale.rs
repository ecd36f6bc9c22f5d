//! Scale mapping between the paper's nominal sizes and actual rows.
//!
//! The paper's real dataset is 10 GB ≈ 27,300 households, i.e. ~2,730
//! households per nominal GB. Experiments keep the paper's axis labels
//! (GB, household counts) and divide the actual volume by
//! [`Scale::divisor`], so the same sweep structure runs in minutes on one
//! machine. `Scale::default()` targets a full-suite run of a few minutes;
//! `Scale::full()` uses the paper's true sizes (hours of compute).

/// Households per nominal GB, from the paper's 10 GB / 27,300 series.
pub const CONSUMERS_PER_GB: f64 = 2_730.0;

/// The harness scale knob.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Actual households = nominal households / divisor (single-server
    /// experiments, Figures 4–10).
    pub divisor: f64,
    /// Divisor for the cluster experiments (Figures 11–19), whose
    /// nominal sizes reach a Terabyte.
    pub cluster_divisor: f64,
    /// DFS block size used by cluster experiments, bytes. Scaled down
    /// with the data so files still split into many blocks.
    pub block_bytes: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            divisor: 273.0,
            cluster_divisor: 10_000.0,
            block_bytes: 1024 * 1024,
        }
    }
}

impl Scale {
    /// A faster scale for smoke tests.
    pub fn smoke() -> Self {
        Scale {
            divisor: 1_000.0,
            cluster_divisor: 40_000.0,
            block_bytes: 256 * 1024,
        }
    }

    /// The paper's true sizes (64 MiB blocks, no division).
    pub fn full() -> Self {
        Scale {
            divisor: 1.0,
            cluster_divisor: 1.0,
            block_bytes: 64 * 1024 * 1024,
        }
    }

    /// Actual household count for a nominal single-server size in GB.
    pub fn consumers_for_gb(&self, gb: f64) -> usize {
        ((gb * CONSUMERS_PER_GB / self.divisor).round() as usize).max(2)
    }

    /// Actual household count for a nominal single-server household count.
    pub fn consumers_for_households(&self, households: usize) -> usize {
        ((households as f64 / self.divisor).round() as usize).max(2)
    }

    /// Actual household count for a nominal cluster size in GB.
    pub fn cluster_consumers_for_gb(&self, gb: f64) -> usize {
        ((gb * CONSUMERS_PER_GB / self.cluster_divisor).round() as usize).max(2)
    }

    /// Actual household count for a nominal cluster household count.
    pub fn cluster_consumers_for_households(&self, households: usize) -> usize {
        ((households as f64 / self.cluster_divisor).round() as usize).max(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_calibration() {
        let full = Scale::full();
        assert_eq!(full.consumers_for_gb(10.0), 27_300);
    }

    #[test]
    fn default_scale_is_tractable() {
        let s = Scale::default();
        let n = s.consumers_for_gb(10.0);
        assert!((50..500).contains(&n), "10 nominal GB -> {n} households");
        // 1 TB on the cluster divisor stays bounded.
        assert!(s.cluster_consumers_for_gb(1000.0) < 2_000);
    }

    #[test]
    fn minimum_of_two_households() {
        assert_eq!(Scale::default().consumers_for_gb(0.0), 2);
        assert_eq!(Scale::default().consumers_for_households(1), 2);
        assert_eq!(Scale::default().cluster_consumers_for_gb(0.0), 2);
    }

    #[test]
    fn household_scaling() {
        let s = Scale {
            divisor: 100.0,
            cluster_divisor: 100.0,
            block_bytes: 1,
        };
        assert_eq!(s.consumers_for_households(32_000), 320);
        assert_eq!(s.cluster_consumers_for_households(64_000), 640);
    }
}
