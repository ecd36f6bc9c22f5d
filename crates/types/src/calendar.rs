//! Hour-of-year arithmetic.
//!
//! The benchmark fixes the time axis to one non-leap year of hourly
//! readings: `365 × 24 = 8760` points (Section 3 of the paper). Rather than
//! carrying full timestamps through every algorithm, series are indexed by
//! *hour of year* (`0..8760`) and this module converts between that index
//! and (day, hour-of-day, weekday) coordinates.

/// Hours in a day.
pub const HOURS_PER_DAY: usize = 24;
/// Days in the benchmark year (non-leap).
pub const DAYS_PER_YEAR: usize = 365;
/// Readings per series: `365 × 24`.
pub const HOURS_PER_YEAR: usize = DAYS_PER_YEAR * HOURS_PER_DAY;

/// Day of the week, used by the seed generator to model weekday/weekend
/// behaviour differences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Weekday {
    Monday,
    Tuesday,
    Wednesday,
    Thursday,
    Friday,
    Saturday,
    Sunday,
}

impl Weekday {
    /// All weekdays, Monday first.
    pub const ALL: [Weekday; 7] = [
        Weekday::Monday,
        Weekday::Tuesday,
        Weekday::Wednesday,
        Weekday::Thursday,
        Weekday::Friday,
        Weekday::Saturday,
        Weekday::Sunday,
    ];

    /// True for Saturday and Sunday.
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Saturday | Weekday::Sunday)
    }
}

/// A calendar mapping hour-of-year indices to day/hour/weekday coordinates.
///
/// The only configuration is which weekday the year starts on; the paper's
/// data set came from a southern-Ontario utility, and the generator defaults
/// to a Wednesday start (January 1st, 2014) for determinism.
#[derive(Debug, Clone, Copy)]
pub struct Calendar {
    start_weekday: Weekday,
}

impl Default for Calendar {
    fn default() -> Self {
        // January 1st 2014 was a Wednesday.
        Calendar {
            start_weekday: Weekday::Wednesday,
        }
    }
}

impl Calendar {
    /// A calendar whose January 1st falls on `start_weekday`.
    pub fn starting_on(start_weekday: Weekday) -> Self {
        Calendar { start_weekday }
    }

    /// Day of year (`0..365`) for an hour-of-year index.
    ///
    /// # Panics
    /// Panics if `hour_of_year >= 8760`.
    pub fn day_of_year(&self, hour_of_year: usize) -> usize {
        assert!(
            hour_of_year < HOURS_PER_YEAR,
            "hour {hour_of_year} out of range"
        );
        hour_of_year / HOURS_PER_DAY
    }

    /// Hour of day (`0..24`) for an hour-of-year index.
    ///
    /// # Panics
    /// Panics if `hour_of_year >= 8760`.
    pub fn hour_of_day(&self, hour_of_year: usize) -> usize {
        assert!(
            hour_of_year < HOURS_PER_YEAR,
            "hour {hour_of_year} out of range"
        );
        hour_of_year % HOURS_PER_DAY
    }

    /// Weekday of the day containing `hour_of_year`.
    pub fn weekday(&self, hour_of_year: usize) -> Weekday {
        let day = self.day_of_year(hour_of_year);
        // A variant's discriminant is its index in `ALL` (Monday first).
        Weekday::ALL[(self.start_weekday as usize + day) % 7]
    }

    /// Hour-of-year index for a (day, hour-of-day) pair.
    ///
    /// # Panics
    /// Panics if `day >= 365` or `hour >= 24`.
    pub fn hour_index(&self, day: usize, hour: usize) -> usize {
        assert!(day < DAYS_PER_YEAR, "day {day} out of range");
        assert!(hour < HOURS_PER_DAY, "hour {hour} out of range");
        day * HOURS_PER_DAY + hour
    }

    /// Approximate month (`0..12`) for a day of year, using a 30.44-day
    /// month; good enough for the seed generator's seasonal scheduling.
    pub fn month_of_day(&self, day: usize) -> usize {
        ((day as f64 / 30.44) as usize).min(11)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(HOURS_PER_YEAR, 8760);
        assert_eq!(DAYS_PER_YEAR * HOURS_PER_DAY, HOURS_PER_YEAR);
    }

    #[test]
    fn round_trip_day_hour() {
        let cal = Calendar::default();
        for &h in &[0usize, 1, 23, 24, 8759, 4380] {
            let day = cal.day_of_year(h);
            let hod = cal.hour_of_day(h);
            assert_eq!(cal.hour_index(day, hod), h);
        }
    }

    #[test]
    fn weekday_progression() {
        let cal = Calendar::starting_on(Weekday::Monday);
        assert_eq!(cal.weekday(0), Weekday::Monday);
        assert_eq!(cal.weekday(23), Weekday::Monday);
        assert_eq!(cal.weekday(24), Weekday::Tuesday);
        assert_eq!(cal.weekday(6 * 24), Weekday::Sunday);
        assert_eq!(cal.weekday(7 * 24), Weekday::Monday);
    }

    #[test]
    fn every_start_day_begins_the_year_and_cycles_weekly() {
        for (i, &start) in Weekday::ALL.iter().enumerate() {
            let cal = Calendar::starting_on(start);
            for day in [0, 1, 6, 7, 100, DAYS_PER_YEAR - 1] {
                let want = Weekday::ALL[(i + day) % 7];
                assert_eq!(
                    cal.weekday(day * HOURS_PER_DAY),
                    want,
                    "start {start:?}, day {day}"
                );
                assert_eq!(cal.weekday(day * HOURS_PER_DAY + 23), want);
            }
        }
    }

    #[test]
    fn default_calendar_starts_wednesday() {
        let cal = Calendar::default();
        assert_eq!(cal.weekday(0), Weekday::Wednesday);
        assert!(cal.weekday(3 * 24).is_weekend()); // Jan 4th 2014 was a Saturday.
    }

    #[test]
    fn weekend_detection() {
        assert!(Weekday::Saturday.is_weekend());
        assert!(Weekday::Sunday.is_weekend());
        assert!(!Weekday::Friday.is_weekend());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn day_of_year_rejects_out_of_range() {
        Calendar::default().day_of_year(HOURS_PER_YEAR);
    }

    #[test]
    fn months_cover_year() {
        let cal = Calendar::default();
        assert_eq!(cal.month_of_day(0), 0);
        assert_eq!(cal.month_of_day(364), 11);
        let mut prev = 0;
        for d in 0..DAYS_PER_YEAR {
            let m = cal.month_of_day(d);
            assert!(m >= prev && m <= 11);
            prev = m;
        }
    }
}
