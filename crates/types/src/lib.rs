//! Data model for the smart meter analytics benchmark.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: consumer identifiers, hourly time series, the benchmark
//! dataset (consumption series plus an outdoor temperature series), a
//! row-oriented [`Reading`] record, error types, the checksummed
//! [`frame`] every socket message and append-only log is made of, and
//! codecs for the three text formats evaluated in Section 5.4.2 of the
//! paper:
//!
//! * **Format 1** — one smart meter reading per line, arbitrarily
//!   partitionable (`consumer,hour,temperature,kwh`).
//! * **Format 2** — one consumer per line (all 8760 readings of a household
//!   on a single line).
//! * **Format 3** — many files, each holding one or more whole households,
//!   one reading per line; a household never spans two files.
//!
//! The benchmark assumes hourly readings for one year: `365 × 24 = 8760`
//! data points per series (see Section 3 of the paper).

pub mod bits;
pub mod calendar;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod formats;
pub mod frame;
pub mod policy;
pub mod query;
pub mod reading;
pub mod series;

pub use bits::BitEq;
pub use calendar::{Calendar, Weekday, DAYS_PER_YEAR, HOURS_PER_DAY, HOURS_PER_YEAR};
pub use dataset::{Dataset, DatasetStats};
pub use error::{Error, FormatDefect, FrameDefect, Result};
pub use formats::{DataFormat, FormatReader, FormatWriter};
pub use policy::DirtyDataPolicy;
pub use query::{Query, QueryKind, QueryResult};
pub use reading::Reading;
pub use series::{ConsumerId, ConsumerSeries, TemperatureSeries};
