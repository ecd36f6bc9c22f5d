//! Property-based tests for the transport frame codec.
//!
//! The contract under test: a well-formed frame round-trips its payload
//! exactly, and **every** corruption — truncation at any point, any
//! single flipped byte, an oversized length prefix — yields a typed
//! [`Error::BadFrame`], never a panic and never silently-wrong bytes.

use proptest::prelude::*;
use smda_types::frame::{decode_frame, encode_frame, FRAME_HEADER_BYTES, MAX_FRAME_BYTES};
use smda_types::{Error, FrameDefect};

fn payloads() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 0..2048)
}

/// Decode must return a typed frame error — anything else is a bug.
fn assert_bad_frame(result: Result<Vec<u8>, Error>) {
    match result {
        Err(Error::BadFrame { .. }) => {}
        Ok(_) => panic!("corrupted frame decoded successfully"),
        Err(other) => panic!("corrupted frame produced a non-frame error: {other}"),
    }
}

proptest! {
    #[test]
    fn round_trip_is_exact(payload in payloads()) {
        let frame = encode_frame(&payload);
        prop_assert_eq!(frame.len(), FRAME_HEADER_BYTES + payload.len());
        let back = decode_frame(&frame, MAX_FRAME_BYTES, "proptest").unwrap();
        prop_assert_eq!(back, payload);
    }

    #[test]
    fn any_truncation_is_a_typed_error(payload in payloads(), cut in 0usize..4096) {
        let frame = encode_frame(&payload);
        prop_assume!(cut < frame.len());
        assert_bad_frame(decode_frame(&frame[..cut], MAX_FRAME_BYTES, "proptest"));
    }

    #[test]
    fn any_single_flipped_byte_is_a_typed_error(
        payload in payloads(),
        pos in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let mut frame = encode_frame(&payload);
        prop_assume!(pos < frame.len());
        frame[pos] ^= flip;
        // Wherever the flip lands — magic, length, checksum, payload —
        // some header check must catch it. A flipped length byte may
        // also make the buffer too short or oversized; both are still
        // typed frame errors.
        assert_bad_frame(decode_frame(&frame, MAX_FRAME_BYTES, "proptest"));
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_allocation(
        payload in payloads(),
        above in 1u32..1024,
    ) {
        let mut frame = encode_frame(&payload);
        // Rewrite the length prefix to exceed the cap: the decoder must
        // refuse with `Oversized` without trusting (or allocating) it.
        let huge = MAX_FRAME_BYTES as u32 + above;
        frame[4..8].copy_from_slice(&huge.to_le_bytes());
        match decode_frame(&frame, MAX_FRAME_BYTES, "proptest") {
            Err(Error::BadFrame {
                defect: FrameDefect::Oversized { len, max },
                ..
            }) => {
                prop_assert_eq!(len, u64::from(huge));
                prop_assert_eq!(max, MAX_FRAME_BYTES);
            }
            other => panic!("want an Oversized defect, got {other:?}"),
        }
    }

    #[test]
    fn flipping_one_payload_byte_names_the_checksum(
        payload in prop::collection::vec(0u8..=255, 1..512),
        idx in 0usize..512,
        flip in 1u8..=255,
    ) {
        prop_assume!(idx < payload.len());
        let mut frame = encode_frame(&payload);
        frame[FRAME_HEADER_BYTES + idx] ^= flip;
        match decode_frame(&frame, MAX_FRAME_BYTES, "proptest") {
            Err(Error::BadFrame {
                defect: FrameDefect::ChecksumMismatch,
                ..
            }) => {}
            other => panic!("want a ChecksumMismatch defect, got {other:?}"),
        }
    }
}
