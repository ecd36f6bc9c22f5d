//! Property-based tests for the append-only frame log — the real
//! cluster's shuffle spill log and the ingest shards' write-ahead log.
//!
//! The contract under test, for any list of payloads appended and
//! flushed: every truncation of the file replays exactly the frames that
//! lie wholly before the cut (a crash mid-append loses only the torn
//! frame); a single flipped byte anywhere outside a frame's four length
//! bytes fails replay with a typed [`Error::BadFrame`]; a flipped length
//! byte fails replay or yields a strict prefix, never a payload that was
//! not appended.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use smda_storage::wal::{replay_frames, FrameLog};
use smda_types::frame::FRAME_HEADER_BYTES;
use smda_types::{Error, FrameDefect};

/// A fresh file path under the system temp directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Scratch(std::env::temp_dir().join(format!(
            "smda-log-props-{name}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Append `payloads` to a new log at `path` and flush it.
fn write_log(path: &Path, payloads: &[Vec<u8>]) {
    let mut log = FrameLog::create(path).unwrap();
    for p in payloads {
        log.append(p).unwrap();
    }
    log.flush().unwrap();
}

/// Byte offset at which each frame of `payloads` starts, plus the file
/// length at the end.
fn frame_starts(payloads: &[Vec<u8>]) -> Vec<usize> {
    let mut starts = vec![0];
    for p in payloads {
        starts.push(starts[starts.len() - 1] + FRAME_HEADER_BYTES + p.len());
    }
    starts
}

fn payload_lists() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..=255, 0..48), 1..6)
}

fn assert_bad_frame(result: smda_types::Result<Vec<Vec<u8>>>) {
    match result {
        Err(Error::BadFrame { .. }) => {}
        Ok(back) => panic!("a damaged log replayed {} record(s)", back.len()),
        Err(other) => panic!("a damaged log produced a non-frame error: {other}"),
    }
}

proptest! {
    #[test]
    fn every_truncation_replays_the_frames_wholly_before_it(payloads in payload_lists()) {
        let scratch = Scratch::new("truncate");
        write_log(&scratch.0, &payloads);
        let ends = &frame_starts(&payloads)[1..];
        let file = std::fs::OpenOptions::new().write(true).open(&scratch.0).unwrap();
        for cut in (0..=ends[ends.len() - 1]).rev() {
            file.set_len(cut as u64).unwrap();
            let whole = ends.iter().take_while(|&&end| end <= cut).count();
            prop_assert_eq!(replay_frames(&scratch.0).unwrap(), &payloads[..whole], "cut at {}", cut);
        }
    }

    #[test]
    fn a_flipped_byte_outside_the_length_fails_replay(
        payloads in payload_lists(),
        pos in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let scratch = Scratch::new("flip");
        write_log(&scratch.0, &payloads);
        let mut bytes = std::fs::read(&scratch.0).unwrap();
        let pos = pos % bytes.len();
        let starts = frame_starts(&payloads);
        prop_assume!(!starts.iter().any(|&s| (s + 4..s + 8).contains(&pos)));
        bytes[pos] ^= flip;
        std::fs::write(&scratch.0, &bytes).unwrap();
        assert_bad_frame(replay_frames(&scratch.0));
    }

    #[test]
    fn a_flipped_length_byte_fails_replay_or_yields_a_strict_prefix(
        payloads in payload_lists(),
        frame in any::<usize>(),
        byte in 0usize..4,
        flip in 1u8..=255,
    ) {
        let scratch = Scratch::new("length");
        write_log(&scratch.0, &payloads);
        let mut bytes = std::fs::read(&scratch.0).unwrap();
        bytes[frame_starts(&payloads)[frame % payloads.len()] + 4 + byte] ^= flip;
        std::fs::write(&scratch.0, &bytes).unwrap();
        match replay_frames(&scratch.0) {
            Err(Error::BadFrame { .. }) => {}
            Ok(back) => {
                prop_assert!(back.len() < payloads.len());
                prop_assert_eq!(&back[..], &payloads[..back.len()]);
            }
            Err(other) => panic!("a damaged length produced a non-frame error: {other}"),
        }
    }
}

#[test]
fn a_file_that_does_not_start_with_a_frame_is_refused() {
    let scratch = Scratch::new("magic");
    // A whole header's worth of bytes that are not a frame: an old
    // `SMWAL01` shard log with one 24-byte record.
    let mut bytes = b"SMWAL01\n".to_vec();
    bytes.extend_from_slice(&[0u8; 24]);
    std::fs::write(&scratch.0, &bytes).unwrap();
    match replay_frames(&scratch.0) {
        Err(Error::BadFrame {
            defect: FrameDefect::BadMagic,
            ..
        }) => {}
        other => panic!("want a BadMagic defect, got {other:?}"),
    }
}

#[test]
fn an_empty_log_replays_empty() {
    let scratch = Scratch::new("empty");
    write_log(&scratch.0, &[]);
    assert!(replay_frames(&scratch.0).unwrap().is_empty());
}

#[test]
fn create_truncates_a_previous_log() {
    let scratch = Scratch::new("recreate");
    write_log(&scratch.0, &vec![b"old".to_vec(); 10]);
    write_log(&scratch.0, &[b"new".to_vec()]);
    assert_eq!(replay_frames(&scratch.0).unwrap(), vec![b"new".to_vec()]);
}

#[test]
fn body_corruption_names_the_log_and_the_record() {
    let scratch = Scratch::new("corrupt");
    write_log(
        &scratch.0,
        &[b"record one".to_vec(), b"record two".to_vec()],
    );
    let mut bytes = std::fs::read(&scratch.0).unwrap();
    bytes[2 * FRAME_HEADER_BYTES + b"record one".len() + 2] ^= 0x40;
    std::fs::write(&scratch.0, &bytes).unwrap();
    match replay_frames(&scratch.0) {
        Err(Error::BadFrame {
            context,
            defect: FrameDefect::ChecksumMismatch,
        }) => {
            assert!(
                context.contains(&scratch.0.display().to_string()),
                "{context}"
            );
            assert!(context.ends_with("record 1"), "{context}");
        }
        other => panic!("want a ChecksumMismatch defect, got {other:?}"),
    }
}
