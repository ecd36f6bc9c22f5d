//! The row-oriented reading record.

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::series::ConsumerId;

/// One smart meter reading joined with the outdoor temperature at the same
/// hour — the unit of the row-oriented storage layouts (Table 1 in Figure 9
/// of the paper) and of text Format 1.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reading {
    /// The household the reading belongs to.
    pub consumer: ConsumerId,
    /// Hour of year, `0..8760`.
    pub hour: u32,
    /// Outdoor temperature at that hour, °C.
    pub temperature: f64,
    /// Electricity consumption during that hour, kWh.
    pub kwh: f64,
}

crate::bit_eq_fields!(Reading {
    consumer,
    hour,
    temperature,
    kwh
});

impl Reading {
    /// Nominal on-disk footprint of one reading in the paper's CSV data
    /// (used to translate row counts to the GB axis labels of Section 5).
    ///
    /// The paper's 10 GB ≈ 27,300 consumers × 8760 readings works out to
    /// ~42 bytes per reading; we use that constant when reporting nominal
    /// dataset sizes.
    pub const NOMINAL_BYTES: usize = 42;

    /// Size of the binary record [`Reading::to_le_bytes`] writes.
    pub const BYTES: usize = 24;

    /// The reading as its binary record, all fields little-endian:
    /// `u32` consumer id, `u32` hour, then the bit patterns of the
    /// temperature and the kWh. A row-layout heap tuple and an ingest
    /// WAL frame each carry one.
    pub fn to_le_bytes(&self) -> [u8; Reading::BYTES] {
        let mut out = [0u8; Reading::BYTES];
        out[..4].copy_from_slice(&self.consumer.raw().to_le_bytes());
        out[4..8].copy_from_slice(&self.hour.to_le_bytes());
        out[8..16].copy_from_slice(&self.temperature.to_bits().to_le_bytes());
        out[16..].copy_from_slice(&self.kwh.to_bits().to_le_bytes());
        out
    }

    /// The reading in a record [`Reading::to_le_bytes`] wrote, bit for
    /// bit; a record of any other length is a schema error.
    pub fn from_le_bytes(record: &[u8]) -> Result<Reading> {
        if record.len() != Reading::BYTES {
            return Err(Error::Schema(format!(
                "a reading record has {} bytes, not {}",
                record.len(),
                Reading::BYTES
            )));
        }
        let le = |at: usize, n: usize| {
            record[at..at + n]
                .iter()
                .rev()
                .fold(0u64, |v, &b| v << 8 | u64::from(b))
        };
        Ok(Reading {
            consumer: ConsumerId(le(0, 4) as u32),
            hour: le(4, 4) as u32,
            temperature: f64::from_bits(le(8, 8)),
            kwh: f64::from_bits(le(16, 8)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_size_matches_paper_arithmetic() {
        // 27,300 consumers * 8760 readings * 42 B ≈ 10 GB.
        let bytes = 27_300usize * 8760 * Reading::NOMINAL_BYTES;
        let gb = bytes as f64 / 1e9;
        assert!(
            (9.0..11.0).contains(&gb),
            "nominal size {gb} GB should be ~10 GB"
        );
    }

    #[test]
    fn record_round_trips_bit_exactly_and_checks_its_length() {
        use crate::BitEq;
        let r = Reading {
            consumer: ConsumerId(0xDEAD_BEEF),
            hour: 8759,
            temperature: -0.0,
            kwh: f64::from_bits(0x7FF8_0000_0000_0001),
        };
        let bytes = r.to_le_bytes();
        assert_eq!(bytes[..4], 0xDEAD_BEEFu32.to_le_bytes());
        assert!(Reading::from_le_bytes(&bytes).unwrap().bits_eq(&r));
        assert!(Reading::from_le_bytes(&bytes[1..]).is_err());
    }
}
