//! Consumption and temperature time series.

use serde::{Deserialize, Serialize};

use crate::calendar::HOURS_PER_YEAR;
use crate::error::{Error, Result};

/// Identifier of one electricity consumer (household / smart meter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ConsumerId(pub u32);

impl ConsumerId {
    /// The raw numeric id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for ConsumerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "H{:06}", self.0)
    }
}

/// One consumer's hourly electricity consumption for a year (kWh).
///
/// Invariant: `readings.len() == 8760`. Construct with
/// [`ConsumerSeries::new`], which validates the length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsumerSeries {
    /// The household this series belongs to.
    pub id: ConsumerId,
    /// Hourly kWh readings, indexed by hour of year.
    readings: Vec<f64>,
}

impl ConsumerSeries {
    /// Check that a borrowed slice would make a valid series — same rules
    /// and error messages as [`ConsumerSeries::new`], without taking
    /// ownership. Lets task runners fit directly off a lent buffer.
    pub fn validate(id: ConsumerId, readings: &[f64]) -> Result<()> {
        if readings.len() != HOURS_PER_YEAR {
            return Err(Error::Schema(format!(
                "consumer {id}: expected {HOURS_PER_YEAR} hourly readings, got {}",
                readings.len()
            )));
        }
        ConsumerSeries::validate_readings(format_args!("consumer {id}"), readings)
    }

    /// The reading rule of [`ConsumerSeries::validate`], for a row of any
    /// length: every reading finite and non-negative. The error names the
    /// row as `what`, then the offending position and value.
    pub fn validate_readings(what: std::fmt::Arguments<'_>, readings: &[f64]) -> Result<()> {
        // The verdict is a branch-free fold — an early-exit search does not
        // vectorize, and a valid year is the case that pays. `r >= 0.0`
        // admits both zeros and refuses NaN; `r <= f64::MAX` refuses +∞.
        // The offending hour is looked for only once the fold has failed.
        // (`contains` would spell it with a short-circuiting `&&`.)
        #[allow(clippy::manual_range_contains)]
        let valid = |r: f64| (r >= 0.0) & (r <= f64::MAX);
        if !readings.iter().fold(true, |ok, &r| ok & valid(r)) {
            if let Some(pos) = readings.iter().position(|&r| !valid(r)) {
                return Err(Error::Schema(format!(
                    "{what}: reading at hour {pos} is {} (must be finite and non-negative)",
                    readings[pos]
                )));
            }
        }
        Ok(())
    }

    /// Build a series, validating that it holds exactly one year of
    /// hourly readings and that no reading is NaN or negative.
    pub fn new(id: ConsumerId, readings: Vec<f64>) -> Result<Self> {
        ConsumerSeries::validate(id, &readings)?;
        Ok(ConsumerSeries { id, readings })
    }

    /// The hourly readings, indexed by hour of year.
    pub fn readings(&self) -> &[f64] {
        &self.readings
    }

    /// Consume the series, returning the raw readings.
    pub fn into_readings(self) -> Vec<f64> {
        self.readings
    }

    /// Total annual consumption in kWh.
    pub fn annual_total(&self) -> f64 {
        self.readings.iter().sum()
    }

    /// Peak (maximum) hourly consumption in kWh.
    pub fn peak(&self) -> f64 {
        self.readings
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Hourly outdoor temperature for a year (degrees Celsius).
///
/// The benchmark pairs every consumption series with one external
/// temperature series (Section 3); all consumers in a dataset share the
/// same weather.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TemperatureSeries {
    values: Vec<f64>,
}

impl TemperatureSeries {
    /// Check that a borrowed slice would make a valid temperature year —
    /// same rules and error messages as [`TemperatureSeries::new`],
    /// without taking ownership.
    pub fn validate(values: &[f64]) -> Result<()> {
        if values.len() != HOURS_PER_YEAR {
            return Err(Error::Schema(format!(
                "temperature series: expected {HOURS_PER_YEAR} hourly values, got {}",
                values.len()
            )));
        }
        // Verdict first, as a fold that vectorizes; position only on failure.
        if !values.iter().fold(true, |ok, v| ok & v.is_finite()) {
            if let Some(pos) = values.iter().position(|v| !v.is_finite()) {
                return Err(Error::Schema(format!(
                    "temperature at hour {pos} is not finite"
                )));
            }
        }
        Ok(())
    }

    /// Build a temperature series, validating length and finiteness.
    pub fn new(values: Vec<f64>) -> Result<Self> {
        TemperatureSeries::validate(&values)?;
        Ok(TemperatureSeries { values })
    }

    /// The hourly temperatures, indexed by hour of year.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Temperature at a given hour of year.
    ///
    /// # Panics
    /// Panics if `hour >= 8760`.
    pub fn at(&self, hour: usize) -> f64 {
        self.values[hour]
    }
}

crate::bit_eq_fields!(
    ConsumerSeries { id, readings }
    TemperatureSeries { values }
);

#[cfg(test)]
mod tests {
    use super::*;

    fn year_of(v: f64) -> Vec<f64> {
        vec![v; HOURS_PER_YEAR]
    }

    #[test]
    fn consumer_series_validates_length() {
        let err = ConsumerSeries::new(ConsumerId(1), vec![1.0; 100]).unwrap_err();
        assert!(matches!(err, Error::Schema(_)));
    }

    #[test]
    fn consumer_series_rejects_nan_and_negative() {
        let mut r = year_of(1.0);
        r[7] = f64::NAN;
        assert!(ConsumerSeries::new(ConsumerId(1), r).is_err());
        let mut r = year_of(1.0);
        r[8] = -0.5;
        assert!(ConsumerSeries::new(ConsumerId(1), r).is_err());
    }

    #[test]
    fn validation_names_the_first_offending_hour_in_the_same_words() {
        for hour in [0, 4321, HOURS_PER_YEAR - 1] {
            for (bad, shown) in [
                (f64::NAN, "NaN"),
                (f64::INFINITY, "inf"),
                (f64::NEG_INFINITY, "-inf"),
                (-1.0, "-1"),
                (-0.5, "-0.5"),
            ] {
                let mut r = year_of(1.0);
                r[hour] = bad;
                // A later offender must not be the one reported.
                r[HOURS_PER_YEAR - 1] = if hour == HOURS_PER_YEAR - 1 {
                    bad
                } else {
                    -2.0
                };
                let err = ConsumerSeries::validate(ConsumerId(7), &r).unwrap_err();
                assert_eq!(
                    err.to_string(),
                    Error::Schema(format!(
                        "consumer H000007: reading at hour {hour} is {shown} \
                         (must be finite and non-negative)"
                    ))
                    .to_string()
                );
                let through_new = ConsumerSeries::new(ConsumerId(7), r).unwrap_err();
                assert_eq!(through_new.to_string(), err.to_string());
            }
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut t = year_of(-3.5);
                t[hour] = bad;
                t[HOURS_PER_YEAR - 1] = if hour == HOURS_PER_YEAR - 1 {
                    bad
                } else {
                    f64::NAN
                };
                let err = TemperatureSeries::validate(&t).unwrap_err();
                assert_eq!(
                    err.to_string(),
                    Error::Schema(format!("temperature at hour {hour} is not finite")).to_string()
                );
            }
        }
    }

    #[test]
    fn the_smallest_negative_reading_is_refused() {
        let mut r = year_of(0.0);
        r[8000] = -5e-324;
        let err = ConsumerSeries::validate(ConsumerId(1), &r).unwrap_err();
        assert!(err.to_string().contains("reading at hour 8000 is -0.0000"));
    }

    #[test]
    fn validation_admits_both_zeros_and_the_finite_extremes() {
        let mut r = year_of(1.0);
        for (hour, ok) in [0.0, -0.0, f64::MAX, f64::MIN_POSITIVE, 5e-324]
            .into_iter()
            .enumerate()
        {
            r[hour * 2000] = ok;
        }
        assert!(ConsumerSeries::validate(ConsumerId(1), &r).is_ok());
        assert!(ConsumerSeries::validate(ConsumerId(1), &year_of(0.0)).is_ok());
        let mut t = year_of(0.0);
        (t[0], t[1], t[2]) = (f64::MIN, f64::MAX, -0.0);
        assert!(TemperatureSeries::validate(&t).is_ok());
    }

    #[test]
    fn consumer_series_aggregates() {
        let mut r = year_of(1.0);
        r[0] = 5.0;
        let s = ConsumerSeries::new(ConsumerId(9), r).unwrap();
        assert_eq!(s.peak(), 5.0);
        assert!((s.annual_total() - (HOURS_PER_YEAR as f64 + 4.0)).abs() < 1e-9);
    }

    #[test]
    fn temperature_series_allows_negative_values() {
        let mut v = year_of(10.0);
        v[0] = -25.0;
        let t = TemperatureSeries::new(v).unwrap();
        assert_eq!(t.at(0), -25.0);
    }

    #[test]
    fn temperature_series_rejects_nan() {
        let mut v = year_of(10.0);
        v[100] = f64::INFINITY;
        assert!(TemperatureSeries::new(v).is_err());
    }

    #[test]
    fn consumer_id_formats_padded() {
        assert_eq!(ConsumerId(42).to_string(), "H000042");
        assert_eq!(ConsumerId(42).raw(), 42);
    }
}
