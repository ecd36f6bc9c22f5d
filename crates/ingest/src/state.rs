//! One consumer's in-flight year behind the watermark.
//!
//! A [`ConsumerAccumulator`] buffers a consumer's out-of-order readings
//! and *finalizes* them strictly in hour order as the shard watermark
//! passes them. Finalization feeds the one consumer that needs hour
//! order: the optional [`AnomalyDetector`], which observes each
//! finalized hour (its own residual statistics raise the alerts).
//!
//! Nothing else is derived here. [`ConsumerAccumulator::seal`] hands
//! back the validated [`ConsumerSeries`], and the snapshot builds the
//! similarity rows and histograms from it with the batch code itself.

use std::collections::HashMap;

use smda_core::{fit_par_scratch, fit_three_line_scratch, Alert, AnomalyDetector};
use smda_types::{
    ConsumerId, ConsumerSeries, Dataset, DirtyDataPolicy, Error, Reading, Result, HOURS_PER_YEAR,
};

/// What admitting one reading did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Stored; the hour slot was empty.
    Accepted,
    /// The `(consumer, hour)` slot was already filled; the reading was
    /// not applied (first write wins).
    Duplicate,
}

/// One consumer's in-flight year: the out-of-order buffer, the hour
/// cursor over the finalized (in-order) prefix, and the detector fed
/// behind it.
pub struct ConsumerAccumulator {
    id: ConsumerId,
    /// Buffered readings; an hour that never arrived holds `0.0`.
    kwh: Vec<f64>,
    present: Vec<bool>,
    received: u32,
    /// Hours `< cursor` are finalized; the cursor never passes a hole.
    cursor: u32,
    /// The detector and the per-hour temperatures it reads.
    detector: Option<(AnomalyDetector, Vec<f64>)>,
}

impl ConsumerAccumulator {
    /// An empty accumulator for `id`.
    pub fn new(id: ConsumerId, detector: Option<AnomalyDetector>) -> ConsumerAccumulator {
        ConsumerAccumulator {
            id,
            kwh: vec![0.0; HOURS_PER_YEAR],
            present: vec![false; HOURS_PER_YEAR],
            received: 0,
            cursor: 0,
            detector: detector.map(|d| (d, vec![0.0; HOURS_PER_YEAR])),
        }
    }

    /// The consumer this accumulator tracks.
    pub fn id(&self) -> ConsumerId {
        self.id
    }

    /// Buffer one reading. The caller has already checked lateness.
    pub fn admit(&mut self, r: &Reading) -> Admit {
        let h = r.hour as usize;
        if self.present[h] {
            return Admit::Duplicate;
        }
        self.present[h] = true;
        self.kwh[h] = r.kwh;
        if let Some((_, temp)) = &mut self.detector {
            temp[h] = r.temperature;
        }
        self.received += 1;
        Admit::Accepted
    }

    /// Finalize buffered hours strictly below `watermark`, in hour
    /// order, stopping at the first hole. Alerts raised by the detector
    /// are appended to `alerts`.
    pub fn advance(&mut self, watermark: u32, alerts: &mut Vec<Alert>) {
        let bound = watermark.min(HOURS_PER_YEAR as u32);
        while self.cursor < bound && self.present[self.cursor as usize] {
            self.observe(self.cursor as usize, alerts);
            self.cursor += 1;
        }
    }

    /// Show hour `h` to the detector, if there is one.
    fn observe(&mut self, h: usize, alerts: &mut Vec<Alert>) {
        if let Some((det, temp)) = &mut self.detector {
            if let Some(alert) = det.observe(h, temp[h], self.kwh[h]) {
                alerts.push(alert);
            }
        }
    }

    /// Close the year: finalize everything left and return the validated
    /// series. Under [`DirtyDataPolicy::SkipAndCount`] holes stay
    /// zero-filled (counted into `missing`; they bypass the detector);
    /// otherwise the first hole is an error.
    pub fn seal(
        mut self,
        policy: DirtyDataPolicy,
        missing: &mut u64,
        alerts: &mut Vec<Alert>,
    ) -> Result<ConsumerSeries> {
        while (self.cursor as usize) < HOURS_PER_YEAR {
            let h = self.cursor as usize;
            if self.present[h] {
                self.observe(h, alerts);
            } else if policy.skips() {
                *missing += 1;
            } else {
                return Err(Error::Schema(format!(
                    "consumer {}: hour {h} never arrived before the year closed",
                    self.id
                )));
            }
            self.cursor += 1;
        }
        ConsumerSeries::new(self.id, self.kwh)
    }
}

/// Fit one [`AnomalyDetector`] per consumer of `ds` (PAR profile +
/// 3-line thermal response), keyed by consumer id — the model registry
/// a live deployment would train on the batch path and hand to
/// [`IngestConfig::with_detectors`](crate::IngestConfig::with_detectors).
/// Consumers whose 3-line fit fails are skipped.
pub fn fit_detectors(ds: &Dataset) -> HashMap<ConsumerId, AnomalyDetector> {
    let temps = ds.temperature().values();
    let config = smda_core::ThreeLineConfig::default();
    // One arena warms over the whole registry instead of per consumer.
    smda_stats::with_fit_scratch(|scratch| {
        ds.consumers()
            .iter()
            .filter_map(|c| {
                let par = fit_par_scratch(c.id, c.readings(), temps, scratch);
                let tl = fit_three_line_scratch(c.id, c.readings(), temps, &config, scratch)?;
                Some((c.id, AnomalyDetector::new(&par, &tl)))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(hour: u32, kwh: f64) -> Reading {
        Reading {
            consumer: ConsumerId(1),
            hour,
            temperature: 10.0,
            kwh,
        }
    }

    #[test]
    fn accumulator_finalizes_in_order_and_seals_bit_exactly() {
        let values: Vec<f64> = (0..HOURS_PER_YEAR)
            .map(|h| 0.2 + ((h * 13) % 97) as f64 * 0.031)
            .collect();
        let mut acc = ConsumerAccumulator::new(ConsumerId(1), None);
        // Deliver hours in a scrambled (but complete) order.
        let mut hours: Vec<u32> = (0..HOURS_PER_YEAR as u32).collect();
        hours.reverse();
        let mut alerts = Vec::new();
        for h in hours {
            assert_eq!(acc.admit(&reading(h, values[h as usize])), Admit::Accepted);
            acc.advance(HOURS_PER_YEAR as u32 / 2, &mut alerts);
        }
        assert!(acc.cursor <= HOURS_PER_YEAR as u32 / 2);
        let mut missing = 0;
        let sealed = acc
            .seal(DirtyDataPolicy::FailFast, &mut missing, &mut alerts)
            .unwrap();
        assert_eq!(missing, 0);
        assert!(sealed
            .readings()
            .iter()
            .zip(&values)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn duplicates_keep_the_first_value() {
        let mut acc = ConsumerAccumulator::new(ConsumerId(1), None);
        assert_eq!(acc.admit(&reading(5, 1.0)), Admit::Accepted);
        assert_eq!(acc.admit(&reading(5, 9.0)), Admit::Duplicate);
        assert_eq!(acc.received, 1);
        assert_eq!(acc.kwh[5], 1.0);
    }

    #[test]
    fn seal_fail_fast_rejects_holes_and_skip_fills_them() {
        let mut alerts = Vec::new();
        let mut acc = ConsumerAccumulator::new(ConsumerId(2), None);
        acc.admit(&reading(0, 1.0));
        let mut missing = 0;
        assert!(acc
            .seal(DirtyDataPolicy::FailFast, &mut missing, &mut alerts)
            .is_err());

        let mut acc = ConsumerAccumulator::new(ConsumerId(2), None);
        acc.admit(&reading(0, 1.0));
        let mut missing = 0;
        let sealed = acc
            .seal(DirtyDataPolicy::SkipAndCount, &mut missing, &mut alerts)
            .unwrap();
        assert_eq!(missing, (HOURS_PER_YEAR - 1) as u64);
        assert_eq!(sealed.readings()[1], 0.0);
    }

    #[test]
    fn advance_stops_at_holes() {
        let mut alerts = Vec::new();
        let mut acc = ConsumerAccumulator::new(ConsumerId(3), None);
        acc.admit(&reading(0, 1.0));
        acc.admit(&reading(2, 1.0));
        acc.advance(100, &mut alerts);
        assert_eq!(acc.cursor, 1, "hole at hour 1 blocks the cursor");
        acc.admit(&reading(1, 1.0));
        acc.advance(100, &mut alerts);
        assert_eq!(acc.cursor, 3);
    }
}
