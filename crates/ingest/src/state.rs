//! Incremental per-consumer task state behind the watermark.
//!
//! A [`ConsumerAccumulator`] buffers a consumer's out-of-order readings
//! and *finalizes* them strictly in hour order as the shard watermark
//! passes them. Finalization drives three pieces of live state:
//!
//! * a [`RunningHistogram`] — exact equi-width bucket counts over the
//!   finalized prefix, re-bucketed when a new value extends the range,
//!   so the sealed histogram equals
//!   [`ConsumerHistogram::build`] on the full year;
//! * [`OnlineStats`] over the finalized readings (count/mean/variance/
//!   min/max), the state a live dashboard would poll;
//! * an in-order incremental sum of squares, so the sealed normalized
//!   [`SeriesMatrix`](smda_stats::SeriesMatrix) row is bit-identical to
//!   the batch path's [`norm2`](smda_stats::norm2)-based normalization;
//!
//! plus, optionally, an [`AnomalyDetector`] observing each finalized
//! hour (its own residual [`OnlineStats`] raise the alerts).

use std::collections::HashMap;

use smda_core::{
    fit_par_scratch, fit_three_line_scratch, Alert, AnomalyDetector, ConsumerHistogram,
};
use smda_stats::{count_buckets, EquiWidthHistogram, HistogramSpec, OnlineStats};
use smda_types::{
    ConsumerId, ConsumerSeries, Dataset, DirtyDataPolicy, Error, Reading, Result, HOURS_PER_YEAR,
};

/// Exact equi-width histogram over a growing sample.
///
/// Follows [`EquiWidthHistogram::build`]: the spec spans the observed
/// `[min, max]`; when a new value lands outside, the spec widens and the
/// counts are rebuilt from the finalized prefix handed by the caller, by
/// the batch build's own counting pass ([`count_buckets`]; a single value
/// goes through [`HistogramSpec::bucket_in`], the per-value form of the
/// same rule). Counts are integers, so the rebuild is exact — after the
/// last value the histogram equals the batch one on the same data.
#[derive(Debug, Clone)]
pub struct RunningHistogram {
    buckets: usize,
    spec: Option<HistogramSpec>,
    /// `spec`'s bucket width, divided once per re-bucketing instead of
    /// once per value.
    width: f64,
    counts: Vec<u64>,
}

impl RunningHistogram {
    /// An empty histogram with `buckets` bins.
    pub fn new(buckets: usize) -> RunningHistogram {
        RunningHistogram {
            buckets,
            spec: None,
            width: 0.0,
            counts: vec![0; buckets],
        }
    }

    /// Fold in `v`; `prefix` is every previously folded value, in case
    /// the range extension forces a re-bucketing pass.
    pub fn push(&mut self, v: f64, prefix: &[f64]) {
        if let Some(spec) = self.spec.filter(|s| v >= s.min && v <= s.max) {
            self.counts[spec.bucket_in(self.width, v)] += 1;
            return;
        }
        let spec = HistogramSpec {
            min: self.spec.map_or(v, |s| s.min.min(v)),
            max: self.spec.map_or(v, |s| s.max.max(v)),
            buckets: self.buckets,
        };
        let width = spec.width();
        self.counts.fill(0);
        count_buckets(prefix, &spec, &mut self.counts);
        self.counts[spec.bucket_in(width, v)] += 1;
        self.spec = Some(spec);
        self.width = width;
    }

    /// The histogram so far; `None` before the first value.
    pub fn snapshot(&self) -> Option<EquiWidthHistogram> {
        self.spec.map(|spec| EquiWidthHistogram {
            spec,
            counts: self.counts.clone(),
        })
    }
}

/// What admitting one reading did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Stored; the hour slot was empty.
    Accepted,
    /// The `(consumer, hour)` slot was already filled; the reading was
    /// not applied (first write wins).
    Duplicate,
}

/// One consumer's in-flight year: the out-of-order buffer plus the
/// incremental state over the finalized (in-order) prefix.
pub struct ConsumerAccumulator {
    id: ConsumerId,
    kwh: Vec<f64>,
    /// Per-hour temperatures, kept only while a detector needs them.
    temp: Option<Vec<f64>>,
    present: Vec<bool>,
    received: u32,
    /// Hours `< cursor` are finalized; the cursor never passes a hole.
    cursor: u32,
    /// Sum of squares over the finalized prefix, accumulated in hour
    /// order — the same addition chain as [`smda_stats::norm2`].
    sq_sum: f64,
    stats: OnlineStats,
    hist: RunningHistogram,
    detector: Option<AnomalyDetector>,
}

/// A consumer's year, closed and finalized.
pub struct SealedConsumer {
    /// The validated series, identical to what an offline loader built.
    pub series: ConsumerSeries,
    /// The unit-normalized similarity row (zero rows verbatim) —
    /// bit-identical to
    /// [`set_row_normalized`](smda_stats::SeriesMatrixBuilder::set_row_normalized).
    pub normalized: Vec<f64>,
    /// The incremental histogram, equal to [`ConsumerHistogram::build`].
    pub histogram: ConsumerHistogram,
    /// Count/mean/variance/min/max over the year.
    pub stats: OnlineStats,
}

impl ConsumerAccumulator {
    /// An empty accumulator for `id`.
    pub fn new(id: ConsumerId, detector: Option<AnomalyDetector>) -> ConsumerAccumulator {
        ConsumerAccumulator {
            id,
            kwh: vec![0.0; HOURS_PER_YEAR],
            temp: detector.as_ref().map(|_| vec![0.0; HOURS_PER_YEAR]),
            present: vec![false; HOURS_PER_YEAR],
            received: 0,
            cursor: 0,
            sq_sum: 0.0,
            stats: OnlineStats::new(),
            hist: RunningHistogram::new(smda_core::HISTOGRAM_BUCKETS),
            detector,
        }
    }

    /// The consumer this accumulator tracks.
    pub fn id(&self) -> ConsumerId {
        self.id
    }

    /// Readings stored so far (deduplicated).
    pub fn received(&self) -> u32 {
        self.received
    }

    /// Hours finalized behind the watermark.
    pub fn finalized_hours(&self) -> u32 {
        self.cursor
    }

    /// Live stats over the finalized prefix.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// Live histogram over the finalized prefix; `None` before the
    /// first finalized hour.
    pub fn histogram(&self) -> Option<EquiWidthHistogram> {
        self.hist.snapshot()
    }

    /// Buffer one reading. The caller has already checked lateness.
    pub fn admit(&mut self, r: &Reading) -> Admit {
        let h = r.hour as usize;
        if self.present[h] {
            return Admit::Duplicate;
        }
        self.present[h] = true;
        self.kwh[h] = r.kwh;
        if let Some(temp) = &mut self.temp {
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
            self.finalize_hour(true, alerts);
        }
    }

    fn finalize_hour(&mut self, observed: bool, alerts: &mut Vec<Alert>) {
        let h = self.cursor as usize;
        let v = self.kwh[h];
        self.sq_sum += v * v;
        self.stats.push(v);
        self.hist.push(v, &self.kwh[..h]);
        if observed {
            if let Some(det) = &mut self.detector {
                let t = self.temp.as_ref().map_or(0.0, |temp| temp[h]);
                if let Some(alert) = det.observe(h, t, v) {
                    alerts.push(alert);
                }
            }
        }
        self.cursor += 1;
    }

    /// Close the year: finalize everything left, zero-filling holes
    /// under [`DirtyDataPolicy::SkipAndCount`] (counted into `missing`;
    /// filled hours bypass the detector) or failing on the first hole
    /// otherwise.
    pub fn seal(
        mut self,
        policy: DirtyDataPolicy,
        missing: &mut u64,
        alerts: &mut Vec<Alert>,
    ) -> Result<SealedConsumer> {
        while (self.cursor as usize) < HOURS_PER_YEAR {
            let h = self.cursor as usize;
            let observed = self.present[h];
            if !observed {
                if matches!(policy, DirtyDataPolicy::FailFast) {
                    return Err(Error::Schema(format!(
                        "consumer {}: hour {h} never arrived before the year closed",
                        self.id
                    )));
                }
                self.kwh[h] = 0.0;
                *missing += 1;
            }
            self.finalize_hour(observed, alerts);
        }
        let norm = self.sq_sum.sqrt();
        let normalized = if norm == 0.0 {
            self.kwh.clone()
        } else {
            self.kwh.iter().map(|v| v / norm).collect()
        };
        let histogram = ConsumerHistogram {
            consumer: self.id,
            histogram: self
                .hist
                .snapshot()
                .expect("a sealed year has 8760 finalized hours"),
        };
        Ok(SealedConsumer {
            series: ConsumerSeries::new(self.id, self.kwh)?,
            normalized,
            histogram,
            stats: self.stats,
        })
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
    fn running_histogram_matches_batch_after_every_push() {
        let values: Vec<f64> = (0..200).map(|i| ((i * 37) % 101) as f64 * 0.13).collect();
        let mut rh = RunningHistogram::new(10);
        for (i, &v) in values.iter().enumerate() {
            rh.push(v, &values[..i]);
            let batch = EquiWidthHistogram::build(&values[..=i], 10).unwrap();
            assert_eq!(rh.snapshot().unwrap(), batch, "after {} values", i + 1);
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
        assert!(acc.finalized_hours() <= HOURS_PER_YEAR as u32 / 2);
        let mut missing = 0;
        let sealed = acc
            .seal(DirtyDataPolicy::FailFast, &mut missing, &mut alerts)
            .unwrap();
        assert_eq!(missing, 0);
        // The normalized row equals the canonical builder path, bitwise.
        let builder = smda_stats::SeriesMatrixBuilder::new(1, HOURS_PER_YEAR);
        builder.set_row_normalized(0, &values);
        let matrix = builder.finish();
        for (a, b) in sealed.normalized.iter().zip(matrix.row(0)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The histogram equals the batch build.
        let batch = ConsumerHistogram::build(&sealed.series);
        assert_eq!(sealed.histogram, batch);
        assert_eq!(sealed.stats.count(), HOURS_PER_YEAR as u64);
    }

    #[test]
    fn duplicates_keep_the_first_value() {
        let mut acc = ConsumerAccumulator::new(ConsumerId(1), None);
        assert_eq!(acc.admit(&reading(5, 1.0)), Admit::Accepted);
        assert_eq!(acc.admit(&reading(5, 9.0)), Admit::Duplicate);
        assert_eq!(acc.received(), 1);
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
        assert_eq!(sealed.series.readings()[1], 0.0);
    }

    #[test]
    fn advance_stops_at_holes() {
        let mut alerts = Vec::new();
        let mut acc = ConsumerAccumulator::new(ConsumerId(3), None);
        acc.admit(&reading(0, 1.0));
        acc.admit(&reading(2, 1.0));
        acc.advance(100, &mut alerts);
        assert_eq!(acc.finalized_hours(), 1, "hole at hour 1 blocks the cursor");
        acc.admit(&reading(1, 1.0));
        acc.advance(100, &mut alerts);
        assert_eq!(acc.finalized_hours(), 3);
    }
}
