//! "The same bits": the one equality every equivalence check in the
//! workspace is stated in.
//!
//! Two values are the same bits when every `f64` in them has the same
//! bit pattern ([`f64::to_bits`]) and everything else is `==`. Unlike
//! `PartialEq` this tells `0.0` from `-0.0` and finds a NaN equal to
//! itself (to a NaN with the same payload). Sequences are the same bits
//! when they have the same length and the same bits element by element.
//!
//! A compared struct implements [`BitEq`] through [`crate::bit_eq_fields!`],
//! whose pattern names every field with no `..`: a field added to the
//! struct but not to its list does not compile. An enum matches on
//! `self`'s variants with no wildcard and binds every field, so a new
//! variant does not compile and a field bound but not compared is an
//! unused variable.

use crate::series::ConsumerId;

/// Equality down to the bits of every floating-point value.
pub trait BitEq {
    /// Whether `self` and `other` are the same bits.
    fn bits_eq(&self, other: &Self) -> bool;
}

impl BitEq for f64 {
    fn bits_eq(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

macro_rules! by_eq {
    ($($t:ty),+) => {$(
        impl BitEq for $t {
            fn bits_eq(&self, other: &Self) -> bool {
                self == other
            }
        }
    )+};
}
by_eq!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, ConsumerId);

impl<T: BitEq> BitEq for [T] {
    fn bits_eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a.bits_eq(b))
    }
}

impl<T: BitEq> BitEq for Vec<T> {
    fn bits_eq(&self, other: &Self) -> bool {
        self.as_slice().bits_eq(other)
    }
}

impl<T: BitEq, const N: usize> BitEq for [T; N] {
    fn bits_eq(&self, other: &Self) -> bool {
        self.as_slice().bits_eq(other)
    }
}

impl<T: BitEq> BitEq for Option<T> {
    fn bits_eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Some(a), Some(b)) => a.bits_eq(b),
            (None, None) => true,
            _ => false,
        }
    }
}

impl<T: BitEq + ?Sized> BitEq for &T {
    fn bits_eq(&self, other: &Self) -> bool {
        (**self).bits_eq(other)
    }
}

macro_rules! tuples {
    ($(($($t:ident $i:tt),+))+) => {$(
        impl<$($t: BitEq),+> BitEq for ($($t,)+) {
            fn bits_eq(&self, other: &Self) -> bool {
                $(self.$i.bits_eq(&other.$i))&&+
            }
        }
    )+};
}
tuples!((A 0, B 1) (A 0, B 1, C 2) (A 0, B 1, C 2, D 3));

/// Implement [`BitEq`] for structs, field by field:
/// `bit_eq_fields!(Point { x, y } Line { from, to });`. The list must name
/// every field — the impl destructures `self` with no `..`.
#[macro_export]
macro_rules! bit_eq_fields {
    ($($ty:ty { $($field:ident),+ $(,)? })+) => {$(
        impl $crate::BitEq for $ty {
            fn bits_eq(&self, other: &Self) -> bool {
                let Self { $($field),+ } = self;
                $($crate::BitEq::bits_eq($field, &other.$field))&&+
            }
        }
    )+};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_compare_by_bit_pattern() {
        assert!(!0.0f64.bits_eq(&-0.0));
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let other_nan = f64::from_bits(0x7ff8_0000_0000_0002);
        assert!(nan.bits_eq(&f64::from_bits(nan.to_bits())));
        assert!(!nan.bits_eq(&other_nan));
        assert!(!nan.bits_eq(&1.0));
    }

    #[test]
    fn sequences_options_and_tuples_compare_every_position() {
        let a = vec![1.0, 2.0, 3.0];
        assert!(a.bits_eq(&a.clone()));
        assert!(!a.bits_eq(&a[..2].to_vec()), "a length mismatch differs");
        assert!(!a[..2].bits_eq(&a[..]), "a length mismatch differs");
        assert!(![1.0, 0.0].bits_eq(&[1.0, -0.0]));
        assert!(!Some(0usize).bits_eq(&None));
        assert!(!None.bits_eq(&Some(0usize)));
        assert!(None::<usize>.bits_eq(&None));
        let t = (ConsumerId(1), 2.0, 3u64, true);
        assert!(t.bits_eq(&t));
        assert!(!t.bits_eq(&(ConsumerId(2), 2.0, 3, true)));
        assert!(!t.bits_eq(&(ConsumerId(1), -2.0, 3, true)));
        assert!(!t.bits_eq(&(ConsumerId(1), 2.0, 4, true)));
        assert!(!t.bits_eq(&(ConsumerId(1), 2.0, 3, false)));
        assert!(!(1u8, 0.0).bits_eq(&(1, -0.0)));
        assert!(!(1u8, 0.0, 2i32).bits_eq(&(1, 0.0, 3)));
    }

    #[test]
    fn a_struct_compares_every_listed_field() {
        #[derive(Clone)]
        struct Pair {
            id: ConsumerId,
            scores: Vec<f64>,
        }
        bit_eq_fields!(Pair { id, scores });
        let a = Pair {
            id: ConsumerId(3),
            scores: vec![0.5, 0.0],
        };
        assert!(a.bits_eq(&a.clone()));
        let mut b = a.clone();
        b.id = ConsumerId(4);
        assert!(!a.bits_eq(&b));
        let mut b = a.clone();
        b.scores[1] = -0.0;
        assert!(!a.bits_eq(&b));
    }
}
