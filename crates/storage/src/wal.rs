//! Append-only write-ahead log for the streaming ingest shards.
//!
//! Each ingest shard appends every reading it is handed — *before* any
//! lateness/duplicate decision is made — so replaying the log through a
//! fresh shard state reproduces the exact same decisions, counters and
//! sealed rows. Records are fixed-width little-endian (24 bytes: consumer
//! id, hour, temperature bits, kWh bits) behind an 8-byte magic header; a
//! torn final record (crash mid-append) is tolerated and truncated on
//! replay.

use std::fs::File;
use std::io::{BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};

use smda_types::{ConsumerId, Error, Reading, Result};

/// File magic identifying a shard WAL (versioned: bump on format change).
pub const WAL_MAGIC: [u8; 8] = *b"SMWAL01\n";

/// Fixed on-disk size of one record: u32 consumer + u32 hour + f64
/// temperature + f64 kWh, all little-endian.
pub const WAL_RECORD_BYTES: usize = 24;

fn encode(r: &Reading) -> [u8; WAL_RECORD_BYTES] {
    let mut buf = [0u8; WAL_RECORD_BYTES];
    buf[0..4].copy_from_slice(&r.consumer.0.to_le_bytes());
    buf[4..8].copy_from_slice(&r.hour.to_le_bytes());
    buf[8..16].copy_from_slice(&r.temperature.to_bits().to_le_bytes());
    buf[16..24].copy_from_slice(&r.kwh.to_bits().to_le_bytes());
    buf
}

fn decode(buf: &[u8; WAL_RECORD_BYTES]) -> Reading {
    let le_u32 = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4-byte slice"));
    let le_f64 = |b: &[u8]| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8-byte slice")));
    Reading {
        consumer: ConsumerId(le_u32(&buf[0..4])),
        hour: le_u32(&buf[4..8]),
        temperature: le_f64(&buf[8..16]),
        kwh: le_f64(&buf[16..24]),
    }
}

/// An open, appendable shard log.
pub struct WriteAheadLog {
    path: PathBuf,
    file: BufWriter<File>,
    records: u64,
}

impl WriteAheadLog {
    /// Create (or truncate) the log at `path` and write the header.
    pub fn create(path: impl Into<PathBuf>) -> Result<WriteAheadLog> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| {
                Error::io(format!("creating WAL directory {}", parent.display()), e)
            })?;
        }
        let file = File::create(&path)
            .map_err(|e| Error::io(format!("creating WAL {}", path.display()), e))?;
        let mut file = BufWriter::new(file);
        file.write_all(&WAL_MAGIC)
            .map_err(|e| Error::io(format!("writing WAL header {}", path.display()), e))?;
        Ok(WriteAheadLog {
            path,
            file,
            records: 0,
        })
    }

    /// Append one reading.
    pub fn append(&mut self, r: &Reading) -> Result<()> {
        self.file
            .write_all(&encode(r))
            .map_err(|e| Error::io(format!("appending to WAL {}", self.path.display()), e))?;
        self.records += 1;
        Ok(())
    }

    /// Flush buffered records to the operating system, making them
    /// visible to [`replay`] on the same path.
    pub fn flush(&mut self) -> Result<()> {
        self.file
            .flush()
            .map_err(|e| Error::io(format!("flushing WAL {}", self.path.display()), e))
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Read every complete record from the log at `path`, in append order.
///
/// A partial record at the tail (torn write from a crash mid-append) is
/// silently dropped; a missing or malformed header is an error.
pub fn replay(path: &Path) -> Result<Vec<Reading>> {
    let mut file =
        File::open(path).map_err(|e| Error::io(format!("opening WAL {}", path.display()), e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| Error::io(format!("reading WAL {}", path.display()), e))?;
    if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(Error::parse(
            path.display().to_string(),
            None,
            "missing or unrecognized WAL magic",
        ));
    }
    let body = &bytes[WAL_MAGIC.len()..];
    let complete = body.len() / WAL_RECORD_BYTES;
    let mut out = Vec::with_capacity(complete);
    for i in 0..complete {
        let chunk: &[u8; WAL_RECORD_BYTES] = body[i * WAL_RECORD_BYTES..(i + 1) * WAL_RECORD_BYTES]
            .try_into()
            .expect("exact chunk");
        out.push(decode(chunk));
    }
    Ok(out)
}

/// File magic identifying a frame log (versioned: bump on format change).
pub const FRAME_LOG_MAGIC: [u8; 8] = *b"SMFLOG1\n";

/// Fixed per-record header: u32 length + u64 FNV-1a checksum.
pub const FRAME_LOG_HEADER_BYTES: usize = 12;

/// 64-bit FNV-1a, the same digest the cluster transport uses for its
/// frames; one corrupted byte always changes it.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Append-only log of variable-length, checksummed byte records — the
/// spill target for real-cluster shuffle partitions. Each record is a
/// little-endian `u32` length, a little-endian `u64` FNV-1a checksum,
/// then the payload. Like the shard WAL, a torn record at the tail
/// (crash mid-append) is dropped on replay; a checksum mismatch in the
/// *body* of the log is data corruption and surfaces as a typed error.
pub struct FrameLog {
    path: PathBuf,
    file: BufWriter<File>,
    records: u64,
}

impl FrameLog {
    /// Create (or truncate) the log at `path` and write the header.
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
        let mut file = BufWriter::new(file);
        file.write_all(&FRAME_LOG_MAGIC)
            .map_err(|e| Error::io(format!("writing frame log header {}", path.display()), e))?;
        Ok(FrameLog {
            path,
            file,
            records: 0,
        })
    }

    /// Append one record.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        let mut header = [0u8; FRAME_LOG_HEADER_BYTES];
        header[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..12].copy_from_slice(&fnv1a64(payload).to_le_bytes());
        self.file
            .write_all(&header)
            .and_then(|()| self.file.write_all(payload))
            .map_err(|e| Error::io(format!("appending to frame log {}", self.path.display()), e))?;
        self.records += 1;
        Ok(())
    }

    /// Flush buffered records to the operating system, making them
    /// visible to [`replay_frames`] on the same path.
    pub fn flush(&mut self) -> Result<()> {
        self.file
            .flush()
            .map_err(|e| Error::io(format!("flushing frame log {}", self.path.display()), e))
    }

    /// Records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Read every complete record from the frame log at `path`, in append
/// order. A torn record at the tail is dropped; a missing header or a
/// checksum mismatch on a complete record is an error.
pub fn replay_frames(path: &Path) -> Result<Vec<Vec<u8>>> {
    let mut file = File::open(path)
        .map_err(|e| Error::io(format!("opening frame log {}", path.display()), e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| Error::io(format!("reading frame log {}", path.display()), e))?;
    if bytes.len() < FRAME_LOG_MAGIC.len() || bytes[..FRAME_LOG_MAGIC.len()] != FRAME_LOG_MAGIC {
        return Err(Error::parse(
            path.display().to_string(),
            None,
            "missing or unrecognized frame log magic",
        ));
    }
    let body = &bytes[FRAME_LOG_MAGIC.len()..];
    let mut out = Vec::new();
    let mut pos = 0usize;
    while body.len() - pos >= FRAME_LOG_HEADER_BYTES {
        let len = u32::from_le_bytes(body[pos..pos + 4].try_into().expect("4-byte slice")) as usize;
        let expected =
            u64::from_le_bytes(body[pos + 4..pos + 12].try_into().expect("8-byte slice"));
        let start = pos + FRAME_LOG_HEADER_BYTES;
        let Some(end) = start.checked_add(len) else {
            break; // absurd length prefix in a torn tail
        };
        if end > body.len() {
            break; // torn payload at the tail
        }
        let payload = &body[start..end];
        if fnv1a64(payload) != expected {
            return Err(Error::parse(
                path.display().to_string(),
                None,
                format!("frame log record {} failed its checksum", out.len()),
            ));
        }
        out.push(payload.to_vec());
        pos = end;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

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
                temperature: -5.0 + i as f64 * 0.25,
                kwh: 0.125 * i as f64,
            })
            .collect()
    }

    #[test]
    fn round_trips_records_bit_exactly() {
        let path = scratch("roundtrip");
        let readings = sample(100);
        let mut wal = WriteAheadLog::create(&path).unwrap();
        for r in &readings {
            wal.append(r).unwrap();
        }
        assert_eq!(wal.records(), 100);
        wal.flush().unwrap();
        let back = replay(&path).unwrap();
        assert_eq!(back.len(), readings.len());
        for (a, b) in back.iter().zip(&readings) {
            assert_eq!(a.consumer, b.consumer);
            assert_eq!(a.hour, b.hour);
            assert_eq!(a.temperature.to_bits(), b.temperature.to_bits());
            assert_eq!(a.kwh.to_bits(), b.kwh.to_bits());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated() {
        let path = scratch("torn");
        let readings = sample(5);
        let mut wal = WriteAheadLog::create(&path).unwrap();
        for r in &readings {
            wal.append(r).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // Simulate a crash mid-append: half a record at the tail.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(&[0xAB; WAL_RECORD_BYTES / 2]).unwrap();
        drop(f);
        let back = replay(&path).unwrap();
        assert_eq!(back.len(), 5, "torn record must be dropped");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = scratch("magic");
        std::fs::write(&path, b"not a wal").unwrap();
        assert!(replay(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_log_replays_empty() {
        let path = scratch("empty");
        let mut wal = WriteAheadLog::create(&path).unwrap();
        wal.flush().unwrap();
        assert_eq!(replay(&path).unwrap().len(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn frame_log_round_trips() {
        let path = scratch("frames");
        let records: Vec<Vec<u8>> = vec![b"".to_vec(), b"abc".to_vec(), vec![0xEE; 4096]];
        let mut log = FrameLog::create(&path).unwrap();
        for r in &records {
            log.append(r).unwrap();
        }
        assert_eq!(log.records(), 3);
        log.flush().unwrap();
        assert_eq!(replay_frames(&path).unwrap(), records);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn frame_log_drops_torn_tail() {
        let path = scratch("frames-torn");
        let mut log = FrameLog::create(&path).unwrap();
        log.append(b"intact").unwrap();
        log.flush().unwrap();
        drop(log);
        // Crash mid-append: a header announcing more bytes than follow.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        let mut header = [0u8; FRAME_LOG_HEADER_BYTES];
        header[0..4].copy_from_slice(&100u32.to_le_bytes());
        f.write_all(&header).unwrap();
        f.write_all(b"only a bit").unwrap();
        drop(f);
        let back = replay_frames(&path).unwrap();
        assert_eq!(back, vec![b"intact".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn frame_log_detects_body_corruption() {
        let path = scratch("frames-corrupt");
        let mut log = FrameLog::create(&path).unwrap();
        log.append(b"record one").unwrap();
        log.append(b"record two").unwrap();
        log.flush().unwrap();
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        let flip = FRAME_LOG_MAGIC.len() + FRAME_LOG_HEADER_BYTES + 2;
        bytes[flip] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(replay_frames(&path).is_err(), "corruption must be detected");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_truncates_previous_log() {
        let path = scratch("truncate");
        let mut wal = WriteAheadLog::create(&path).unwrap();
        for r in sample(10) {
            wal.append(&r).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        let mut wal = WriteAheadLog::create(&path).unwrap();
        wal.append(&sample(1)[0]).unwrap();
        wal.flush().unwrap();
        assert_eq!(replay(&path).unwrap().len(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
