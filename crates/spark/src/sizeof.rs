//! Serialized-size estimation for shuffle/broadcast accounting.
//!
//! Records flow through the mini-RDD engine as real Rust values; when
//! they cross a modeled network (shuffle, broadcast) their serialized
//! size is estimated by this trait.

use std::sync::Arc;

/// Estimated serialized size in bytes.
pub trait SizeOf {
    /// Bytes this value would occupy in a shuffle file.
    fn size_of(&self) -> u64;
}

impl SizeOf for () {
    fn size_of(&self) -> u64 {
        0
    }
}

impl SizeOf for f64 {
    fn size_of(&self) -> u64 {
        8
    }
}

impl SizeOf for u64 {
    fn size_of(&self) -> u64 {
        8
    }
}

impl SizeOf for u32 {
    fn size_of(&self) -> u64 {
        4
    }
}

impl SizeOf for usize {
    fn size_of(&self) -> u64 {
        8
    }
}

impl SizeOf for String {
    fn size_of(&self) -> u64 {
        self.len() as u64 + 4
    }
}

impl<T: SizeOf> SizeOf for Vec<T> {
    fn size_of(&self) -> u64 {
        8 + self.iter().map(SizeOf::size_of).sum::<u64>()
    }
}

impl<T: SizeOf> SizeOf for Arc<T> {
    fn size_of(&self) -> u64 {
        // Serialization materializes the pointee.
        (**self).size_of()
    }
}

impl<A: SizeOf, B: SizeOf> SizeOf for (A, B) {
    fn size_of(&self) -> u64 {
        self.0.size_of() + self.1.size_of()
    }
}

impl<A: SizeOf, B: SizeOf, C: SizeOf> SizeOf for (A, B, C) {
    fn size_of(&self) -> u64 {
        self.0.size_of() + self.1.size_of() + self.2.size_of()
    }
}

impl SizeOf for smda_stats::SeriesMatrix {
    fn size_of(&self) -> u64 {
        // Header (rows, stride) plus the contiguous f64 buffer.
        16 + (self.rows() * self.stride()) as u64 * 8
    }
}

impl SizeOf for smda_types::ConsumerId {
    fn size_of(&self) -> u64 {
        4
    }
}

impl SizeOf for smda_core::tasks::ConsumerResult {
    fn size_of(&self) -> u64 {
        // A compact row: id + a few model coefficients / bucket counts.
        match self {
            smda_core::tasks::ConsumerResult::Histogram(_) => 4 + 10 * 8,
            smda_core::tasks::ConsumerResult::ThreeLine(_) => 4 + 6 * 16,
            smda_core::tasks::ConsumerResult::Par(_) => 4 + 24 * (8 + 5 * 8),
        }
    }
}

impl SizeOf for smda_core::ConsumerMatches {
    fn size_of(&self) -> u64 {
        4 + self.matches.len() as u64 * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(1.0f64.size_of(), 8);
        assert_eq!(7u32.size_of(), 4);
        assert_eq!("abc".to_string().size_of(), 7);
    }

    #[test]
    fn container_sizes_compose() {
        let v = vec![1.0f64, 2.0, 3.0];
        assert_eq!(v.size_of(), 8 + 24);
        let pair = (1u32, vec![1.0f64]);
        assert_eq!(pair.size_of(), 4 + 8 + 8);
        let arc = Arc::new(vec![0u64; 4]);
        assert_eq!(arc.size_of(), 8 + 32);
    }
}
