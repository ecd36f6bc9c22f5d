//! The worker side of the real cluster: RPC protocol and serving loop.
//!
//! A worker is the `smda` binary re-exec'd in `worker` mode. It binds a
//! local TCP listener, prints `SMDA-WORKER-LISTENING <addr>` so the
//! coordinator can find it, and then serves a fixed vocabulary of RPCs,
//! one frame in / one frame out per request, a thread per connection.
//!
//! Closures cannot cross a process boundary, so the protocol names
//! *operations*, and both sides execute them through the same pure
//! functions ([`execute_map`], [`execute_merge`],
//! [`execute_similarity_partial`]). The virtual twin runs the identical
//! functions in-process, which is what makes the real and virtual
//! outputs bit-identical by construction: every `f64` travels as its
//! exact bit pattern, and every reduce is an order-insensitive
//! sort-then-fold.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};

use smda_core::tasks::ConsumerResult;
use smda_core::{
    ConsumerHistogram, ConsumerTask, HourModel, LineSegment, ParModel, PiecewiseFit, Task,
    ThreeLineModel,
};
use smda_stats::{
    top_k_tiled_partial, with_fit_scratch, EquiWidthHistogram, HistogramSpec, SeriesMatrixBuilder,
    SimilarityMatch, TileConfig,
};
use smda_types::frame::{read_frame, write_frame, MAX_FRAME_BYTES};
use smda_types::{ConsumerId, Error, Result, HOURS_PER_DAY, HOURS_PER_YEAR};

use crate::transport::{put_bytes, put_f64, put_f64_slice, put_u32, put_u64, put_u8, WireCursor};

/// Line a worker prints on stdout once its listener is bound.
pub const LISTENING_PREFIX: &str = "SMDA-WORKER-LISTENING ";

const REQ_PING: u8 = 0;
const REQ_MAP: u8 = 1;
const REQ_MERGE: u8 = 2;
const REQ_SIMILARITY: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;

const RESP_PONG: u8 = 0;
const RESP_MAP_OUT: u8 = 1;
const RESP_MERGED: u8 = 2;
const RESP_PARTIAL: u8 = 3;
const RESP_GONE: u8 = 4;
const RESP_ERR: u8 = 255;

fn task_tag(task: Task) -> u8 {
    match task {
        Task::Histogram => 0,
        Task::ThreeLine => 1,
        Task::Par => 2,
        Task::Similarity => 3,
    }
}

fn task_from_tag(tag: u8) -> Result<Task> {
    Ok(match tag {
        0 => Task::Histogram,
        1 => Task::ThreeLine,
        2 => Task::Par,
        3 => Task::Similarity,
        other => {
            return Err(Error::parse(
                "worker request",
                None,
                format!("unknown task tag {other}"),
            ))
        }
    })
}

/// A request the coordinator sends to a worker. Every variant is a pure
/// function of its payload — the response bytes included: no clock, no
/// arena state and no thread count reaches them — so duplicate delivery
/// after a retry is safe, and a map task re-run after a crash spills the
/// bytes the lost run would have.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Run a per-consumer task over a chunk of households and bucket
    /// the results into `reduce_parts` shuffle partitions by
    /// `consumer % reduce_parts`.
    MapConsumers {
        /// Which per-consumer task to run.
        task: Task,
        /// Shuffle partition count.
        reduce_parts: u32,
        /// The shared hourly temperature year.
        temps: Vec<f64>,
        /// The chunk: consumer id + its hourly kWh year.
        chunk: Vec<(u32, Vec<f64>)>,
    },
    /// Merge spilled shuffle-partition payloads (each an encoded
    /// [`ConsumerResult`] list) into one sorted, re-encoded list.
    MergeConsumers {
        /// The task the payloads belong to.
        task: Task,
        /// One payload per completed map task, in map-task order.
        payloads: Vec<Vec<u8>>,
    },
    /// Score the tile rows `tr` with `tr % parts == part` of the
    /// consumers' unit-normalized series matrix and return per-query
    /// top-k partials.
    SimilarityPartial {
        /// Top-k per query.
        k: u32,
        /// Total partition count.
        parts: u32,
        /// This partition's index.
        part: u32,
        /// Every consumer's raw year, one row each, by bit pattern; the
        /// worker normalizes each row as `smda_core::unit_matrix` does.
        rows: Vec<Vec<f64>>,
    },
    /// Ask the worker process to exit.
    Shutdown,
}

/// A worker's reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness ack.
    Pong,
    /// Map output: `(partition, encoded ConsumerResult list)` pairs,
    /// ascending by partition, empty partitions omitted.
    MapOut(Vec<(u32, Vec<u8>)>),
    /// Merged, sorted, re-encoded [`ConsumerResult`] list.
    Merged(Vec<u8>),
    /// Encoded similarity partial (per-query top-k + pairs scored).
    Partial(Vec<u8>),
    /// Shutdown ack.
    Gone,
    /// Typed failure from the worker side, as a rendered message.
    Err(String),
}

impl Request {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Ping => put_u8(&mut buf, REQ_PING),
            Request::MapConsumers {
                task,
                reduce_parts,
                temps,
                chunk,
            } => {
                put_u8(&mut buf, REQ_MAP);
                put_u8(&mut buf, task_tag(*task));
                put_u32(&mut buf, *reduce_parts);
                put_f64_slice(&mut buf, temps);
                put_u32(&mut buf, chunk.len() as u32);
                for (id, kwh) in chunk {
                    put_u32(&mut buf, *id);
                    put_f64_slice(&mut buf, kwh);
                }
            }
            Request::MergeConsumers { task, payloads } => {
                put_u8(&mut buf, REQ_MERGE);
                put_u8(&mut buf, task_tag(*task));
                put_u32(&mut buf, payloads.len() as u32);
                for p in payloads {
                    put_bytes(&mut buf, p);
                }
            }
            Request::SimilarityPartial {
                k,
                parts,
                part,
                rows,
            } => {
                put_u8(&mut buf, REQ_SIMILARITY);
                put_u32(&mut buf, *k);
                put_u32(&mut buf, *parts);
                put_u32(&mut buf, *part);
                put_u32(&mut buf, rows.len() as u32);
                for row in rows {
                    put_f64_slice(&mut buf, row);
                }
            }
            Request::Shutdown => put_u8(&mut buf, REQ_SHUTDOWN),
        }
        buf
    }

    /// Decode from a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Request> {
        let mut c = WireCursor::new(buf, "worker request");
        let req = match c.u8("request tag")? {
            REQ_PING => Request::Ping,
            REQ_MAP => {
                let task = task_from_tag(c.u8("task tag")?)?;
                let reduce_parts = c.u32("reduce_parts")?;
                let temps = c.f64_slice("temps")?;
                let n = c.u32("chunk len")?;
                let mut chunk = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let id = c.u32("consumer id")?;
                    let kwh = c.f64_slice("kwh")?;
                    chunk.push((id, kwh));
                }
                Request::MapConsumers {
                    task,
                    reduce_parts,
                    temps,
                    chunk,
                }
            }
            REQ_MERGE => {
                let task = task_from_tag(c.u8("task tag")?)?;
                let n = c.u32("payload count")?;
                let mut payloads = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    payloads.push(c.bytes("payload")?.to_vec());
                }
                Request::MergeConsumers { task, payloads }
            }
            REQ_SIMILARITY => {
                let k = c.u32("k")?;
                let parts = c.u32("parts")?;
                let part = c.u32("part")?;
                let n = c.u32("row count")?;
                let mut rows = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    rows.push(c.f64_slice("row")?);
                }
                Request::SimilarityPartial {
                    k,
                    parts,
                    part,
                    rows,
                }
            }
            REQ_SHUTDOWN => Request::Shutdown,
            other => {
                return Err(Error::parse(
                    "worker request",
                    None,
                    format!("unknown request tag {other}"),
                ))
            }
        };
        c.finish()?;
        Ok(req)
    }
}

impl Response {
    /// Encode to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Pong => put_u8(&mut buf, RESP_PONG),
            Response::MapOut(parts) => {
                put_u8(&mut buf, RESP_MAP_OUT);
                put_u32(&mut buf, parts.len() as u32);
                for (partition, payload) in parts {
                    put_u32(&mut buf, *partition);
                    put_bytes(&mut buf, payload);
                }
            }
            Response::Merged(payload) => {
                put_u8(&mut buf, RESP_MERGED);
                put_bytes(&mut buf, payload);
            }
            Response::Partial(payload) => {
                put_u8(&mut buf, RESP_PARTIAL);
                put_bytes(&mut buf, payload);
            }
            Response::Gone => put_u8(&mut buf, RESP_GONE),
            Response::Err(msg) => {
                put_u8(&mut buf, RESP_ERR);
                put_bytes(&mut buf, msg.as_bytes());
            }
        }
        buf
    }

    /// Decode from a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Response> {
        let mut c = WireCursor::new(buf, "worker response");
        let resp = match c.u8("response tag")? {
            RESP_PONG => Response::Pong,
            RESP_MAP_OUT => {
                let n = c.u32("partition count")?;
                let mut parts = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let partition = c.u32("partition")?;
                    let payload = c.bytes("partition payload")?.to_vec();
                    parts.push((partition, payload));
                }
                Response::MapOut(parts)
            }
            RESP_MERGED => Response::Merged(c.bytes("merged payload")?.to_vec()),
            RESP_PARTIAL => Response::Partial(c.bytes("partial payload")?.to_vec()),
            RESP_GONE => Response::Gone,
            RESP_ERR => {
                let msg = String::from_utf8_lossy(c.bytes("error message")?).into_owned();
                Response::Err(msg)
            }
            other => {
                return Err(Error::parse(
                    "worker response",
                    None,
                    format!("unknown response tag {other}"),
                ))
            }
        };
        c.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// ConsumerResult wire codec
// ---------------------------------------------------------------------------

const RESULT_HISTOGRAM: u8 = 0;
const RESULT_THREE_LINE: u8 = 1;
const RESULT_PAR: u8 = 2;

fn put_fit(buf: &mut Vec<u8>, fit: &PiecewiseFit) {
    for seg in &fit.segments {
        put_f64(buf, seg.lo);
        put_f64(buf, seg.hi);
        put_f64(buf, seg.intercept);
        put_f64(buf, seg.slope);
    }
    put_f64(buf, fit.knots[0]);
    put_f64(buf, fit.knots[1]);
    put_f64(buf, fit.sse);
    put_u8(buf, u8::from(fit.adjusted));
}

fn read_fit(c: &mut WireCursor<'_>) -> Result<PiecewiseFit> {
    let mut segments = [LineSegment {
        lo: 0.0,
        hi: 0.0,
        intercept: 0.0,
        slope: 0.0,
    }; 3];
    for seg in &mut segments {
        seg.lo = c.f64("segment lo")?;
        seg.hi = c.f64("segment hi")?;
        seg.intercept = c.f64("segment intercept")?;
        seg.slope = c.f64("segment slope")?;
    }
    let knots = [c.f64("knot 0")?, c.f64("knot 1")?];
    let sse = c.f64("sse")?;
    let adjusted = c.u8("adjusted")? != 0;
    Ok(PiecewiseFit {
        segments,
        knots,
        sse,
        adjusted,
    })
}

/// Encode a [`ConsumerResult`] list — the unit that travels through the
/// shuffle and the WAL. Lossless: every `f64` goes by bit pattern, and
/// nothing but the results goes at all, so
/// `encode_results(decode_results(b)) == b`.
fn encode_results(results: &[ConsumerResult]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, results.len() as u32);
    for r in results {
        match r {
            ConsumerResult::Histogram(h) => {
                put_u8(&mut buf, RESULT_HISTOGRAM);
                put_u32(&mut buf, h.consumer.raw());
                put_f64(&mut buf, h.histogram.spec.min);
                put_f64(&mut buf, h.histogram.spec.max);
                put_u32(&mut buf, h.histogram.spec.buckets as u32);
                put_u32(&mut buf, h.histogram.counts.len() as u32);
                for &count in &h.histogram.counts {
                    put_u64(&mut buf, count);
                }
            }
            ConsumerResult::ThreeLine(m) => {
                put_u8(&mut buf, RESULT_THREE_LINE);
                put_u32(&mut buf, m.consumer.raw());
                put_fit(&mut buf, &m.high);
                put_fit(&mut buf, &m.low);
            }
            ConsumerResult::Par(p) => {
                put_u8(&mut buf, RESULT_PAR);
                put_u32(&mut buf, p.consumer.raw());
                for h in &p.hourly {
                    put_f64(&mut buf, h.intercept);
                    for &a in &h.ar {
                        put_f64(&mut buf, a);
                    }
                    put_f64(&mut buf, h.temp_coef);
                    put_f64(&mut buf, h.r2);
                }
                for &v in &p.profile {
                    put_f64(&mut buf, v);
                }
            }
        }
    }
    buf
}

/// Decode a [`ConsumerResult`] list produced by `encode_results`.
pub fn decode_results(buf: &[u8]) -> Result<Vec<ConsumerResult>> {
    let mut c = WireCursor::new(buf, "consumer results");
    let n = c.u32("result count")?;
    let mut out = Vec::with_capacity((n as usize).min(buf.len() / 4 + 1));
    for _ in 0..n {
        let result = match c.u8("result tag")? {
            RESULT_HISTOGRAM => {
                let consumer = ConsumerId(c.u32("consumer")?);
                let min = c.f64("min")?;
                let max = c.f64("max")?;
                let buckets = c.u32("buckets")? as usize;
                let count = c.u32("count len")?;
                let mut counts = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    counts.push(c.u64("bucket count")?);
                }
                ConsumerResult::Histogram(ConsumerHistogram {
                    consumer,
                    histogram: EquiWidthHistogram {
                        spec: HistogramSpec { min, max, buckets },
                        counts,
                    },
                })
            }
            RESULT_THREE_LINE => ConsumerResult::ThreeLine(ThreeLineModel {
                consumer: ConsumerId(c.u32("consumer")?),
                high: read_fit(&mut c)?,
                low: read_fit(&mut c)?,
            }),
            RESULT_PAR => {
                let consumer = ConsumerId(c.u32("consumer")?);
                let mut hourly = [HourModel {
                    intercept: 0.0,
                    ar: [0.0; 3],
                    temp_coef: 0.0,
                    r2: 0.0,
                }; HOURS_PER_DAY];
                for h in &mut hourly {
                    h.intercept = c.f64("intercept")?;
                    for a in &mut h.ar {
                        *a = c.f64("ar")?;
                    }
                    h.temp_coef = c.f64("temp_coef")?;
                    h.r2 = c.f64("r2")?;
                }
                let mut profile = [0.0; HOURS_PER_DAY];
                for v in &mut profile {
                    *v = c.f64("profile")?;
                }
                ConsumerResult::Par(Box::new(ParModel {
                    consumer,
                    hourly,
                    profile,
                }))
            }
            other => {
                return Err(Error::parse(
                    "consumer results",
                    None,
                    format!("unknown result tag {other}"),
                ))
            }
        };
        out.push(result);
    }
    c.finish()?;
    Ok(out)
}

// ---------------------------------------------------------------------------
// Similarity partial wire codec
// ---------------------------------------------------------------------------

/// Encode per-query top-k partials plus the pairs-scored count.
fn encode_partial(rows: &[Vec<SimilarityMatch>], pairs_scored: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, rows.len() as u32);
    for hits in rows {
        put_u32(&mut buf, hits.len() as u32);
        for h in hits {
            put_u32(&mut buf, h.index as u32);
            put_f64(&mut buf, h.score);
        }
    }
    put_u64(&mut buf, pairs_scored);
    buf
}

/// Decode a similarity partial produced by `encode_partial`.
pub fn decode_partial(buf: &[u8]) -> Result<(Vec<Vec<SimilarityMatch>>, u64)> {
    let mut c = WireCursor::new(buf, "similarity partial");
    let n = c.u32("row count")?;
    let mut rows = Vec::with_capacity((n as usize).min(buf.len() / 4 + 1));
    for _ in 0..n {
        let k = c.u32("hit count")?;
        let mut hits = Vec::with_capacity(k as usize);
        for _ in 0..k {
            let index = c.u32("index")? as usize;
            let score = c.f64("score")?;
            hits.push(SimilarityMatch { index, score });
        }
        rows.push(hits);
    }
    let pairs = c.u64("pairs scored")?;
    c.finish()?;
    Ok((rows, pairs))
}

// ---------------------------------------------------------------------------
// Pure executors — shared by the worker server and the virtual twin
// ---------------------------------------------------------------------------

/// Run a per-consumer task over a chunk — one [`ConsumerTask`] for the
/// request, so the temperature year is validated once, not per household
/// — and bucket the encoded results into shuffle partitions by
/// `consumer % reduce_parts`. Partitions come back ascending, empty ones
/// omitted; a household too degenerate for a 3-line model is absent.
pub fn execute_map(
    task: Task,
    reduce_parts: u32,
    temps: &[f64],
    chunk: &[(u32, Vec<f64>)],
) -> Result<Vec<(u32, Vec<u8>)>> {
    if reduce_parts == 0 {
        return Err(Error::Invalid("reduce_parts must be at least 1".into()));
    }
    let kernel = ConsumerTask::new(task, temps)?;
    let mut buckets: Vec<Vec<ConsumerResult>> = vec![Vec::new(); reduce_parts as usize];
    with_fit_scratch(|scratch| {
        for (id, kwh) in chunk {
            let result = kernel.run(ConsumerId(*id), kwh, scratch)?;
            buckets[(*id % reduce_parts) as usize].extend(result);
        }
        Ok::<_, Error>(())
    })?;
    Ok(buckets
        .iter()
        .enumerate()
        .filter(|(_, b)| !b.is_empty())
        .map(|(partition, b)| (partition as u32, encode_results(b)))
        .collect())
}

/// Merge shuffle-partition payloads: decode each, concatenate in
/// payload order, sort by consumer, re-encode. Map output bytes are a
/// function of the map request and sorting makes the merge insensitive
/// to map completion order, so a re-run after a crash lands on identical
/// bytes.
pub fn execute_merge(payloads: &[Vec<u8>]) -> Result<Vec<u8>> {
    let mut all = Vec::new();
    for p in payloads {
        all.extend(decode_results(p)?);
    }
    all.sort_by_key(ConsumerResult::consumer);
    Ok(encode_results(&all))
}

/// Score partition `part` of `parts` over the consumers' raw years:
/// tile rows `tr` with `tr % parts == part` of their unit-normalized
/// matrix, via the exact tiled kernel. Each row is normalized by
/// [`SeriesMatrixBuilder::set_row_normalized`], the pass
/// `smda_core::unit_matrix` runs, so the matrix is bit-exact.
pub fn execute_similarity_partial(
    k: u32,
    parts: u32,
    part: u32,
    rows: &[Vec<f64>],
) -> Result<Vec<u8>> {
    if parts == 0 || part >= parts {
        return Err(Error::Invalid(format!(
            "similarity partition {part} of {parts} is out of range"
        )));
    }
    for row in rows {
        if row.len() != HOURS_PER_YEAR {
            return Err(Error::Invalid(format!(
                "similarity row has {} points, expected {HOURS_PER_YEAR}",
                row.len()
            )));
        }
    }
    let builder = SeriesMatrixBuilder::new(rows.len(), HOURS_PER_YEAR);
    for (i, row) in rows.iter().enumerate() {
        builder.set_row_normalized(i, row);
    }
    let matrix = builder.finish();
    let config = TileConfig::default();
    let tiles = config.tile_rows(rows.len());
    let next = std::sync::atomic::AtomicUsize::new(part as usize);
    let claim = move || {
        let tr = next.fetch_add(parts as usize, std::sync::atomic::Ordering::Relaxed);
        (tr < tiles).then_some(tr)
    };
    let (partials, stats) = top_k_tiled_partial(&matrix, k as usize, &config, &claim);
    Ok(encode_partial(&partials, stats.pairs_scored))
}

fn handle(request: Request) -> Option<Response> {
    let outcome = match request {
        Request::Ping => Ok(Response::Pong),
        Request::MapConsumers {
            task,
            reduce_parts,
            temps,
            chunk,
        } => execute_map(task, reduce_parts, &temps, &chunk).map(Response::MapOut),
        Request::MergeConsumers { task: _, payloads } => {
            execute_merge(&payloads).map(Response::Merged)
        }
        Request::SimilarityPartial {
            k,
            parts,
            part,
            rows,
        } => execute_similarity_partial(k, parts, part, &rows).map(Response::Partial),
        Request::Shutdown => return None,
    };
    Some(outcome.unwrap_or_else(|e| Response::Err(e.to_string())))
}

fn serve_connection(mut stream: TcpStream) -> Result<bool> {
    loop {
        let payload = match read_frame(&mut stream, MAX_FRAME_BYTES, "reading worker request") {
            Ok(p) => p,
            // A closed or torn connection ends the session, not the worker.
            Err(Error::BadFrame { .. }) | Err(Error::Io { .. }) => return Ok(false),
            Err(e) => return Err(e),
        };
        let request = Request::decode(&payload)?;
        match handle(request) {
            Some(response) => {
                write_frame(&mut stream, &response.encode(), "sending worker response")?;
            }
            None => {
                write_frame(&mut stream, &Response::Gone.encode(), "acking shutdown")?;
                return Ok(true);
            }
        }
    }
}

/// Bind `bind` and serve RPCs until a `Shutdown` request arrives.
/// Prints [`LISTENING_PREFIX`] plus the bound address on stdout so the
/// parent process can discover an OS-assigned port.
pub fn serve(bind: &str) -> Result<()> {
    let listener = TcpListener::bind(bind)
        .map_err(|e| Error::io(format!("binding worker listener on {bind}"), e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| Error::io("resolving worker listener address", e))?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "{LISTENING_PREFIX}{addr}")
        .and_then(|()| stdout.flush())
        .map_err(|e| Error::io("announcing worker address", e))?;
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    std::thread::scope(|scope| -> Result<()> {
        scope.spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let done = done_tx.clone();
                scope.spawn(move || {
                    if let Ok(true) = serve_connection(stream) {
                        let _ = done.send(());
                    }
                });
            }
        });
        done_rx
            .recv()
            .map_err(|_| Error::Invalid("worker accept loop ended unexpectedly".into()))?;
        // A Shutdown was acked; exit without joining the accept loop,
        // which blocks in `incoming()`.
        std::process::exit(0);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smda_core::tasks::collect_consumer_results;
    use smda_types::BitEq;

    fn year(f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..HOURS_PER_YEAR).map(f).collect()
    }

    fn sample_chunk(n: u32) -> Vec<(u32, Vec<f64>)> {
        (0..n)
            .map(|id| {
                (
                    id,
                    year(|h| 0.4 + 0.3 * ((h + id as usize) % 24) as f64 / 24.0),
                )
            })
            .collect()
    }

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Ping,
            Request::MapConsumers {
                task: Task::Histogram,
                reduce_parts: 4,
                temps: vec![1.0, -2.5],
                chunk: vec![(7, vec![0.5, 0.25]), (9, vec![])],
            },
            Request::MergeConsumers {
                task: Task::Par,
                payloads: vec![b"one".to_vec(), b"".to_vec()],
            },
            Request::SimilarityPartial {
                k: 10,
                parts: 3,
                part: 2,
                rows: vec![vec![0.5; 4], vec![-0.5; 4]],
            },
            Request::Shutdown,
        ];
        for r in requests {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = vec![
            Response::Pong,
            Response::MapOut(vec![(0, b"a".to_vec()), (3, b"bc".to_vec())]),
            Response::Merged(b"merged".to_vec()),
            Response::Partial(b"partial".to_vec()),
            Response::Gone,
            Response::Err("it broke".into()),
        ];
        for r in responses {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn consumer_results_round_trip_bit_exactly() {
        let temps = year(|h| -5.0 + (h % 48) as f64 * 0.5);
        let chunk = sample_chunk(3);
        for task in [Task::Histogram, Task::ThreeLine, Task::Par] {
            let kernel = ConsumerTask::new(task, &temps).unwrap();
            let mut scratch = smda_stats::FitScratch::new();
            let results: Vec<ConsumerResult> = chunk
                .iter()
                .filter_map(|(id, kwh)| kernel.run(ConsumerId(*id), kwh, &mut scratch).unwrap())
                .collect();
            assert_eq!(results.len(), chunk.len());
            let bytes = encode_results(&results);
            let back = decode_results(&bytes).unwrap();
            assert_eq!(encode_results(&back), bytes, "{task:?}");
            let a = collect_consumer_results(task, results);
            let b = collect_consumer_results(task, back);
            assert!(a.bits_eq(&b), "codec must be lossless for {task:?}");
        }
    }

    #[test]
    fn map_output_bytes_are_a_function_of_the_request() {
        let temps = year(|h| -5.0 + (h % 48) as f64 * 0.5);
        let chunk = sample_chunk(5);
        for task in [Task::Histogram, Task::ThreeLine, Task::Par] {
            let first = execute_map(task, 2, &temps, &chunk).unwrap();
            // The second run meets a warm arena and another moment of the
            // clock; neither is part of a result.
            let second = execute_map(task, 2, &temps, &chunk).unwrap();
            assert_eq!(first, second, "{task:?}");
            assert_eq!(first.len(), 2, "{task:?}");
            for (_, payload) in &first {
                let decoded = decode_results(payload).unwrap();
                assert_eq!(&encode_results(&decoded), payload, "{task:?}");
            }
            let payloads: Vec<Vec<u8>> = first.into_iter().map(|(_, p)| p).collect();
            assert_eq!(
                execute_merge(&payloads).unwrap(),
                execute_merge(&payloads).unwrap(),
                "{task:?}"
            );
        }
    }

    #[test]
    fn a_household_with_no_model_is_absent_from_the_wire_not_present_and_empty() {
        // A constant temperature year supports no 3-line model.
        let flat = year(|_| 10.0);
        let chunk = sample_chunk(4);
        let out = execute_map(Task::ThreeLine, 3, &flat, &chunk).unwrap();
        assert!(out.is_empty(), "no result, so no partition holds one");
        assert_eq!(encode_results(&[]), 0u32.to_le_bytes());
        // One byte of tag, four of id, two fits: nothing rides along.
        let temps = year(|h| -5.0 + (h % 48) as f64 * 0.5);
        let out = execute_map(Task::ThreeLine, 1, &temps, &chunk[..1]).unwrap();
        let fit_bytes = 3 * 4 * 8 + 2 * 8 + 8 + 1;
        assert_eq!(out[0].1.len(), 4 + 1 + 4 + 2 * fit_bytes);
    }

    #[test]
    fn execute_map_partitions_by_consumer_id() {
        let temps = year(|_| 10.0);
        let out = execute_map(Task::Histogram, 3, &temps, &sample_chunk(7)).unwrap();
        let partitions: Vec<u32> = out.iter().map(|(p, _)| *p).collect();
        assert_eq!(partitions, vec![0, 1, 2]);
        let total: usize = out
            .iter()
            .map(|(_, payload)| decode_results(payload).unwrap().len())
            .sum();
        assert_eq!(total, 7);
        for (partition, payload) in &out {
            for r in decode_results(payload).unwrap() {
                assert_eq!(r.consumer().raw() % 3, *partition);
            }
        }
    }

    #[test]
    fn execute_merge_is_order_insensitive() {
        let temps = year(|_| 10.0);
        let out = execute_map(Task::Histogram, 1, &temps, &sample_chunk(6)).unwrap();
        let payload = out.into_iter().next().unwrap().1;
        let halves = [
            decode_results(&payload).unwrap()[..3].to_vec(),
            decode_results(&payload).unwrap()[3..].to_vec(),
        ];
        let forward =
            execute_merge(&[encode_results(&halves[0]), encode_results(&halves[1])]).unwrap();
        let backward =
            execute_merge(&[encode_results(&halves[1]), encode_results(&halves[0])]).unwrap();
        assert_eq!(forward, backward, "merge must not depend on spill order");
    }

    #[test]
    fn similarity_partials_reassemble_the_sequential_result() {
        use smda_stats::{merge_partials, top_k_tiled, SeriesMatrixBuilder};
        let rows: Vec<Vec<f64>> = (0..10)
            .map(|i| year(|h| 0.2 + ((h * (i + 2)) % 31) as f64 * 0.05))
            .collect();
        let parts = 3u32;
        let mut partials = Vec::new();
        for part in 0..parts {
            let payload = execute_similarity_partial(5, parts, part, &rows).unwrap();
            let (rows_part, _pairs) = decode_partial(&payload).unwrap();
            partials.push(rows_part);
        }
        let merged = merge_partials(rows.len(), partials, 5);
        let builder = SeriesMatrixBuilder::new(rows.len(), HOURS_PER_YEAR);
        for (i, row) in rows.iter().enumerate() {
            builder.set_row_normalized(i, row);
        }
        let (expected, _) = top_k_tiled(&builder.finish(), 5, &TileConfig::default());
        assert_eq!(merged.len(), expected.len());
        for (m, e) in merged.iter().zip(&expected) {
            assert_eq!(m.len(), e.len());
            for (a, b) in m.iter().zip(e) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.score.to_bits(), b.score.to_bits());
            }
        }
    }

    #[test]
    fn handle_rejects_bad_work_with_typed_err_response() {
        let resp = handle(Request::MapConsumers {
            task: Task::Similarity,
            reduce_parts: 2,
            temps: vec![],
            chunk: vec![(0, vec![1.0])],
        })
        .unwrap();
        match resp {
            Response::Err(msg) => assert!(msg.contains("per-consumer"), "{msg}"),
            other => panic!("expected Err response, got {other:?}"),
        }
    }
}
