//! Append-only logs of checksummed frames: the real cluster's shuffle
//! spill log and the streaming ingest shards' write-ahead log.
//!
//! A [`FrameLog`] file is [`smda_types::frame`] frames back to back —
//! the same magic, length and FNV-1a checksum the worker socket sends,
//! with no file header of its own. [`replay_frames`] reads them back in
//! append order. A frame cut short at the end of the file is the torn
//! tail of a crash mid-append and is dropped; any other defect — a bad
//! magic, a checksum mismatch — is data corruption and surfaces as a
//! typed [`Error::BadFrame`] naming the log and the record.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

use smda_types::frame::{frame_header, read_frame, MAX_FRAME_BYTES};
use smda_types::{Error, FrameDefect, Result};

/// An open, appendable frame log.
pub struct FrameLog {
    path: PathBuf,
    file: BufWriter<File>,
}

impl FrameLog {
    /// Create (or truncate) the log at `path`, creating its directory.
    pub fn create(path: impl Into<PathBuf>) -> Result<FrameLog> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| {
                Error::io(
                    format!("creating frame log directory {}", parent.display()),
                    e,
                )
            })?;
        }
        let file = File::create(&path)
            .map_err(|e| Error::io(format!("creating frame log {}", path.display()), e))?;
        Ok(FrameLog {
            path,
            file: BufWriter::new(file),
        })
    }

    /// Append one record as one frame.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        self.file
            .write_all(&frame_header(payload))
            .and_then(|()| self.file.write_all(payload))
            .map_err(|e| Error::io(format!("appending to frame log {}", self.path.display()), e))
    }

    /// Flush buffered records to the operating system, making them
    /// visible to [`replay_frames`] on the same path.
    pub fn flush(&mut self) -> Result<()> {
        self.file
            .flush()
            .map_err(|e| Error::io(format!("flushing frame log {}", self.path.display()), e))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Read every complete record from the frame log at `path`, in append
/// order. A frame truncated by the end of the file is dropped; any
/// other defect is an [`Error::BadFrame`] naming the log and the index
/// of the record that carries it.
pub fn replay_frames(path: &Path) -> Result<Vec<Vec<u8>>> {
    let bytes = std::fs::read(path)
        .map_err(|e| Error::io(format!("reading frame log {}", path.display()), e))?;
    let mut rest = &bytes[..];
    let mut out = Vec::new();
    while !rest.is_empty() {
        match read_frame(&mut rest, MAX_FRAME_BYTES, "replaying a frame log") {
            Ok(payload) => out.push(payload),
            Err(Error::BadFrame {
                defect: FrameDefect::Truncated,
                ..
            }) => break,
            Err(Error::BadFrame { defect, .. }) => {
                return Err(Error::BadFrame {
                    context: format!(
                        "replaying frame log {} record {}",
                        path.display(),
                        out.len()
                    ),
                    defect,
                })
            }
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_types::frame::{encode_frame, FRAME_HEADER_BYTES};
    use smda_types::{BitEq, ConsumerId, Reading};

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "smda-wal-{name}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos())
                .unwrap_or(0)
        ))
    }

    fn sample(n: u32) -> Vec<Reading> {
        (0..n)
            .map(|i| Reading {
                consumer: ConsumerId(i % 7),
                hour: i,
                temperature: -5.0 + f64::from(i) * 0.25,
                kwh: 0.125 * f64::from(i),
            })
            .collect()
    }

    /// Append `records` to a new log at `path`, flush it and close it.
    fn write_log(path: &Path, records: &[Vec<u8>]) {
        let mut log = FrameLog::create(path).unwrap();
        for r in records {
            log.append(r).unwrap();
        }
        log.flush().unwrap();
    }

    #[test]
    fn round_trips_records_bit_exactly() {
        let path = scratch("roundtrip");
        let readings = sample(100);
        let records: Vec<Vec<u8>> = readings.iter().map(|r| r.to_le_bytes().to_vec()).collect();
        write_log(&path, &records);
        let back = replay_frames(&path).unwrap();
        assert_eq!(back.len(), readings.len());
        for (record, r) in back.iter().zip(&readings) {
            assert!(Reading::from_le_bytes(record).unwrap().bits_eq(r));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = scratch("torn");
        let readings = sample(6);
        let records: Vec<Vec<u8>> = readings.iter().map(|r| r.to_le_bytes().to_vec()).collect();
        write_log(&path, &records[..5]);
        // Simulate a crash mid-append: half of the sixth reading's frame
        // at the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        let torn = encode_frame(&records[5]);
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let back = replay_frames(&path).unwrap();
        assert_eq!(back, &records[..5], "torn record must be dropped");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn frame_log_round_trips() {
        let path = scratch("frames");
        let records: Vec<Vec<u8>> = vec![b"".to_vec(), b"abc".to_vec(), vec![0xEE; 4096]];
        write_log(&path, &records);
        assert_eq!(replay_frames(&path).unwrap(), records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn frame_log_drops_torn_tail() {
        let path = scratch("frames-torn");
        write_log(&path, &[b"intact".to_vec()]);
        // Crash mid-append: a header announcing more bytes than follow.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&encode_frame(&[7u8; 100])[..FRAME_HEADER_BYTES + 10]);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(replay_frames(&path).unwrap(), vec![b"intact".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }
}
