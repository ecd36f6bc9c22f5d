//! Socket transport for the real cluster: wire encoding primitives and
//! a retrying RPC client.
//!
//! Every message between the coordinator and a worker process travels
//! as one [`smda_types::frame`]: a 16-byte header (magic `SMF1`, `u32`
//! payload length, `u64` FNV-1a checksum) and the payload. The receiver
//! rejects a damaged frame with a typed [`Error::BadFrame`] — corruption
//! is always *detected*, never silently decoded, and never a panic.
//!
//! [`Endpoint::call`] layers bounded retry with exponential backoff on
//! top: every RPC in the worker protocol is a pure function of its
//! request, so re-sending after a connect or read failure is safe.
//! Timeouts, retries, and traffic volume flow into the
//! `transport.*` counters of the metrics sink.

use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use smda_obs::{counters, MetricsSink};
use smda_types::frame::{read_frame, write_frame, MAX_FRAME_BYTES};
use smda_types::{Error, Result};

/// Whether an error is a connect/read deadline expiry.
fn is_timeout(err: &Error) -> bool {
    match err {
        Error::Io { source, .. } => matches!(
            source.kind(),
            std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
        ),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Wire encoding primitives
// ---------------------------------------------------------------------------

/// Append a `u8` to a wire buffer.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its exact bit pattern (lossless round trip).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append a length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

/// Append a count-prefixed `f64` slice, each value by bit pattern.
pub fn put_f64_slice(buf: &mut Vec<u8>, values: &[f64]) {
    put_u32(buf, values.len() as u32);
    for &v in values {
        put_f64(buf, v);
    }
}

/// Sequential reader over a wire buffer with typed decode errors.
pub struct WireCursor<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'a str,
}

impl<'a> WireCursor<'a> {
    /// Start decoding `buf`; `context` names the message being decoded.
    pub fn new(buf: &'a [u8], context: &'a str) -> Self {
        WireCursor {
            buf,
            pos: 0,
            context,
        }
    }

    fn short(&self, what: &str) -> Error {
        Error::parse(
            self.context,
            None,
            format!("wire message too short reading {what} at byte {}", self.pos),
        )
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.short(what))?;
        if end > self.buf.len() {
            return Err(self.short(what));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Decode a `u8`.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Decode a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Decode a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Decode an `f64` from its bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Decode a length-prefixed byte string.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8]> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    /// Decode a count-prefixed `f64` slice.
    pub fn f64_slice(&mut self, what: &str) -> Result<Vec<f64>> {
        let count = self.u32(what)? as usize;
        // Cap the pre-allocation by what the buffer can actually hold.
        let mut out = Vec::with_capacity(count.min(self.buf.len() / 8 + 1));
        for _ in 0..count {
            out.push(self.f64(what)?);
        }
        Ok(out)
    }

    /// Assert the whole buffer was consumed.
    pub fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(Error::parse(
                self.context,
                None,
                format!(
                    "trailing garbage: {} of {} bytes unread",
                    self.buf.len() - self.pos,
                    self.buf.len()
                ),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Retrying RPC client
// ---------------------------------------------------------------------------

/// Timeouts, retry budget, and heartbeat cadence for the real cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportConfig {
    /// Deadline for establishing a connection to a worker.
    pub connect_timeout: Duration,
    /// Deadline for reading a response frame.
    pub read_timeout: Duration,
    /// Additional attempts after the first failed RPC (bounded retry).
    pub max_retries: u32,
    /// Backoff before retry `n` is `backoff_base × 2^(n−1)`.
    pub backoff_base: Duration,
    /// Interval between liveness pings from the heartbeat monitor.
    pub heartbeat_interval: Duration,
    /// Consecutive missed pings before a worker is declared dead.
    pub heartbeat_misses: u32,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(10),
            max_retries: 2,
            backoff_base: Duration::from_millis(20),
            heartbeat_interval: Duration::from_millis(25),
            heartbeat_misses: 4,
        }
    }
}

/// A worker address plus the policy for talking to it. Each RPC opens
/// a fresh connection: a SIGKILLed worker then fails fast with a
/// connection error instead of wedging a pooled stream.
#[derive(Debug, Clone)]
pub struct Endpoint {
    addr: SocketAddr,
    config: TransportConfig,
    metrics: MetricsSink,
}

impl Endpoint {
    /// An endpoint for `addr` under `config`, reporting to `metrics`.
    pub fn new(addr: SocketAddr, config: TransportConfig, metrics: MetricsSink) -> Self {
        Endpoint {
            addr,
            config,
            metrics,
        }
    }

    fn attempt(&self, request: &[u8], read_timeout: Duration) -> Result<Vec<u8>> {
        let mut stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)
            .map_err(|e| Error::io(format!("connecting to worker {}", self.addr), e))?;
        stream
            .set_read_timeout(Some(read_timeout))
            .and_then(|()| stream.set_write_timeout(Some(read_timeout)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| Error::io(format!("configuring socket to {}", self.addr), e))?;
        write_frame(&mut stream, request, "sending worker request")?;
        self.metrics.incr(counters::TRANSPORT_FRAMES_SENT, 1);
        self.metrics
            .incr(counters::TRANSPORT_BYTES_SENT, request.len() as u64);
        let response = read_frame(&mut stream, MAX_FRAME_BYTES, "reading worker response")?;
        self.metrics.incr(counters::TRANSPORT_FRAMES_RECEIVED, 1);
        self.metrics
            .incr(counters::TRANSPORT_BYTES_RECEIVED, response.len() as u64);
        Ok(response)
    }

    /// Send `request` and await the response frame, retrying up to
    /// `max_retries` extra times with exponential backoff. Safe for
    /// every protocol RPC: all are pure functions of the request, so a
    /// duplicate delivery cannot corrupt state.
    pub fn call(&self, request: &[u8]) -> Result<Vec<u8>> {
        let mut last = None;
        for attempt in 0..=self.config.max_retries {
            if attempt > 0 {
                self.metrics.incr(counters::TRANSPORT_RETRIES, 1);
                // Timed wait: the retry backoff, time for a busy or
                // restarting worker to come back.
                std::thread::sleep(self.config.backoff_base * (1 << (attempt - 1)));
            }
            match self.attempt(request, self.config.read_timeout) {
                Ok(response) => return Ok(response),
                Err(e) => {
                    if is_timeout(&e) {
                        self.metrics.incr(counters::TRANSPORT_TIMEOUTS, 1);
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.expect("at least one attempt was made"))
    }

    /// A single liveness probe: one attempt, heartbeat-scale deadline,
    /// no retry. Returns the raw response payload.
    pub fn probe(&self, request: &[u8]) -> Result<Vec<u8>> {
        let deadline = self.config.heartbeat_interval.max(Duration::from_millis(1)) * 4;
        self.attempt(request, deadline).inspect_err(|e| {
            if is_timeout(e) {
                self.metrics.incr(counters::TRANSPORT_TIMEOUTS, 1);
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_types::frame::{decode_frame, encode_frame, frame_header, FRAME_HEADER_BYTES};
    use smda_types::FrameDefect;

    #[test]
    fn frame_round_trips() {
        for payload in [&b""[..], &b"x"[..], &[0u8; 1024][..]] {
            let frame = encode_frame(payload);
            assert_eq!(frame.len(), FRAME_HEADER_BYTES + payload.len());
            let decoded = decode_frame(&frame, MAX_FRAME_BYTES, "test").unwrap();
            assert_eq!(decoded, payload);
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut frame = encode_frame(b"hello");
        frame[0] ^= 0xFF;
        match decode_frame(&frame, MAX_FRAME_BYTES, "test") {
            Err(Error::BadFrame { defect, .. }) => assert_eq!(defect, FrameDefect::BadMagic),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_is_typed() {
        let mut frame = encode_frame(b"hello");
        frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame(&frame, 1024, "test") {
            Err(Error::BadFrame {
                defect: FrameDefect::Oversized { len, max },
                ..
            }) => {
                assert_eq!(len, u64::from(u32::MAX));
                assert_eq!(max, 1024);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_typed() {
        let frame = encode_frame(b"hello world");
        for cut in [0, 3, FRAME_HEADER_BYTES, frame.len() - 1] {
            match decode_frame(&frame[..cut], MAX_FRAME_BYTES, "test") {
                Err(Error::BadFrame { defect, .. }) => {
                    assert_eq!(defect, FrameDefect::Truncated, "cut at {cut}")
                }
                other => panic!("expected Truncated at cut {cut}, got {other:?}"),
            }
        }
    }

    #[test]
    fn payload_corruption_is_typed() {
        let mut frame = encode_frame(b"hello world");
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        match decode_frame(&frame, MAX_FRAME_BYTES, "test") {
            Err(Error::BadFrame { defect, .. }) => {
                assert_eq!(defect, FrameDefect::ChecksumMismatch)
            }
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn wire_primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 42);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -0.0);
        put_bytes(&mut buf, b"abc");
        put_f64_slice(&mut buf, &[1.5, f64::NAN, 3.0]);
        let mut c = WireCursor::new(&buf, "test");
        assert_eq!(c.u8("a").unwrap(), 7);
        assert_eq!(c.u32("b").unwrap(), 42);
        assert_eq!(c.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(c.f64("d").unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(c.bytes("e").unwrap(), b"abc");
        let v = c.f64_slice("f").unwrap();
        assert_eq!(v.len(), 3);
        assert_eq!(v[0], 1.5);
        assert!(v[1].is_nan());
        c.finish().unwrap();
    }

    #[test]
    fn wire_cursor_rejects_short_and_trailing_input() {
        let mut c = WireCursor::new(&[1, 2], "short");
        assert!(c.u32("field").is_err());
        let buf = [0u8; 8];
        let mut c = WireCursor::new(&buf, "trailing");
        c.u32("field").unwrap();
        assert!(c.finish().is_err());
    }

    #[test]
    fn fnv_detects_single_byte_changes() {
        // Header bytes 8..16 are the payload's FNV-1a.
        let fnv = |payload: &[u8]| frame_header(payload)[8..].to_vec();
        let base = fnv(b"0123456789");
        let mut data = *b"0123456789";
        for i in 0..data.len() {
            data[i] ^= 0x20;
            assert_ne!(fnv(&data), base, "flip at {i} undetected");
            data[i] ^= 0x20;
        }
    }

    #[test]
    fn timeouts_are_classified() {
        let e = Error::io(
            "x",
            std::io::Error::new(std::io::ErrorKind::TimedOut, "slow"),
        );
        assert!(is_timeout(&e));
        assert!(!is_timeout(&Error::NoHealthyNodes));
    }
}
