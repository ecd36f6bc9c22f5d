//! Error handling shared across the workspace.

use std::fmt;

use crate::series::ConsumerId;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// What exactly was wrong with a transport frame. Carried by
/// [`Error::BadFrame`] so callers can distinguish corruption (checksum,
/// magic) from framing problems (truncation, oversized length prefix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameDefect {
    /// The 4-byte frame magic did not match: the peer is not speaking
    /// the frame protocol, or the stream lost sync.
    BadMagic,
    /// The stream ended before the announced payload arrived.
    Truncated,
    /// The length prefix exceeds the configured maximum frame size.
    Oversized {
        /// Announced payload length.
        len: u64,
        /// Maximum the receiver accepts.
        max: u64,
    },
    /// The payload arrived but its checksum does not match the header.
    ChecksumMismatch,
}

impl fmt::Display for FrameDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameDefect::BadMagic => write!(f, "bad frame magic"),
            FrameDefect::Truncated => write!(f, "truncated frame"),
            FrameDefect::Oversized { len, max } => {
                write!(
                    f,
                    "oversized frame: length prefix {len} exceeds maximum {max}"
                )
            }
            FrameDefect::ChecksumMismatch => write!(f, "frame checksum mismatch"),
        }
    }
}

/// What exactly was wrong with an `SMC1` binary file. Carried by
/// [`Error::BadFormat`] so callers can distinguish corruption (checksum
/// mismatches) from structural problems (truncation, bad magic, an
/// index that points outside the file) — mirroring [`FrameDefect`] for
/// the on-disk format the way PR 7 typed the wire format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatDefect {
    /// The 4-byte header magic is not `SMC1`: not a binary store file,
    /// or the first bytes were overwritten.
    BadMagic,
    /// The trailing footer magic is not `SMCE`: the file was truncated
    /// or the tail was overwritten.
    BadFooterMagic,
    /// The header version is not the one this reader understands
    /// (older versions checksum with a different digest).
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// The version this reader supports.
        supported: u16,
    },
    /// The file ended before a region the metadata promises.
    Truncated {
        /// Bytes the region needs.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The per-consumer index bytes do not match their checksum.
    IndexChecksumMismatch,
    /// The temperature block bytes do not match the header checksum.
    TemperatureChecksumMismatch,
    /// One consumer's reading block does not match its index checksum.
    BlockChecksumMismatch {
        /// Raw id of the consumer whose block is corrupt.
        consumer: u32,
    },
    /// The whole-file footer checksum does not match the file bytes.
    FileChecksumMismatch,
    /// The index parsed but violates a structural invariant (ids out of
    /// order, a block outside the data region, an unknown encoding tag,
    /// a misaligned raw block). Carries a description of the violation.
    CorruptIndex(String),
}

impl fmt::Display for FormatDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatDefect::BadMagic => write!(f, "bad SMC1 header magic"),
            FormatDefect::BadFooterMagic => write!(f, "bad SMC1 footer magic"),
            FormatDefect::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported SMC1 version {found} (supported: {supported})"
                )
            }
            FormatDefect::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated file: region needs {expected} bytes, only {actual} present"
                )
            }
            FormatDefect::IndexChecksumMismatch => write!(f, "consumer index checksum mismatch"),
            FormatDefect::TemperatureChecksumMismatch => {
                write!(f, "temperature block checksum mismatch")
            }
            FormatDefect::BlockChecksumMismatch { consumer } => {
                write!(
                    f,
                    "reading block checksum mismatch for consumer {}",
                    ConsumerId(*consumer)
                )
            }
            FormatDefect::FileChecksumMismatch => write!(f, "whole-file checksum mismatch"),
            FormatDefect::CorruptIndex(why) => write!(f, "corrupt index: {why}"),
        }
    }
}

/// Errors produced while loading, validating or processing benchmark data.
#[derive(Debug)]
pub enum Error {
    /// An underlying I/O failure, annotated with the operation that failed.
    Io {
        /// What the caller was doing when the failure occurred.
        context: String,
        /// The operating system error.
        source: std::io::Error,
    },
    /// A malformed line or field in a text file.
    Parse {
        /// Path or format being parsed.
        context: String,
        /// Line number (1-based) if known.
        line: Option<usize>,
        /// Description of what was wrong.
        message: String,
    },
    /// Data that parses but violates a benchmark invariant
    /// (e.g. a series whose length is not 8760).
    Schema(String),
    /// A request that cannot be satisfied (unknown consumer, empty
    /// dataset, invalid parameter value).
    Invalid(String),
    /// A task that is not embarrassingly parallel over consumers was
    /// handed to a per-consumer execution path. Carries the task name.
    NotPerConsumer(String),
    /// A task exhausted its retry budget (worker panic or injected
    /// failure). Carries an identifier of the failing task and the number
    /// of attempts made.
    TaskFailed {
        /// Which task failed (e.g. `phase 0 task 3`).
        task: String,
        /// Attempts made before giving up.
        attempts: usize,
    },
    /// Every replica of a DFS block is gone: the data cannot be read and
    /// the job must fail with a diagnostic instead of a fictitious
    /// makespan.
    BlockUnavailable {
        /// File owning the block.
        file: String,
        /// Block index within the file.
        block: usize,
    },
    /// Every node of the modeled cluster is dead; nothing can be
    /// scheduled.
    NoHealthyNodes,
    /// A transport frame could not be decoded. Carries the defect and
    /// the operation during which it was detected.
    BadFrame {
        /// What the receiver was doing (e.g. `reading worker response`).
        context: String,
        /// What exactly was wrong with the frame.
        defect: FrameDefect,
    },
    /// An `SMC1` binary store file could not be validated. Carries the
    /// defect and the operation during which it was detected.
    BadFormat {
        /// What the reader was doing (e.g. `opening data.smc`).
        context: String,
        /// What exactly was wrong with the file.
        defect: FormatDefect,
    },
    /// A malformed term in a `--faults` spec. Carries the offending
    /// term, its byte offset within the spec, and the reason it was
    /// rejected, so the CLI can point at the exact position.
    FaultSpec {
        /// The term that failed to parse, verbatim.
        term: String,
        /// Byte offset of the term within the full spec string.
        offset: usize,
        /// Why the term was rejected.
        reason: String,
    },
}

impl Error {
    /// Wrap an I/O error with context about the failed operation.
    pub fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        Error::Io {
            context: context.into(),
            source,
        }
    }

    /// Build a parse error for `context` at an optional line number.
    pub fn parse(
        context: impl Into<String>,
        line: Option<usize>,
        message: impl Into<String>,
    ) -> Self {
        Error::Parse {
            context: context.into(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io { context, source } => write!(f, "I/O error while {context}: {source}"),
            Error::Parse {
                context,
                line: Some(line),
                message,
            } => {
                write!(f, "parse error in {context} at line {line}: {message}")
            }
            Error::Parse {
                context,
                line: None,
                message,
            } => {
                write!(f, "parse error in {context}: {message}")
            }
            Error::Schema(msg) => write!(f, "schema violation: {msg}"),
            Error::Invalid(msg) => write!(f, "invalid request: {msg}"),
            Error::NotPerConsumer(task) => {
                write!(
                    f,
                    "task {task} is not per-consumer and cannot run on a per-consumer path"
                )
            }
            Error::TaskFailed { task, attempts } => {
                write!(
                    f,
                    "{task} failed after {attempts} attempt(s); retry budget exhausted"
                )
            }
            Error::BlockUnavailable { file, block } => {
                write!(
                    f,
                    "block {block} of DFS file `{file}` has no surviving replica"
                )
            }
            Error::NoHealthyNodes => write!(f, "no healthy node left in the cluster"),
            Error::BadFrame { context, defect } => {
                write!(f, "bad frame while {context}: {defect}")
            }
            Error::BadFormat { context, defect } => {
                write!(f, "bad SMC1 file while {context}: {defect}")
            }
            Error::FaultSpec {
                term,
                offset,
                reason,
            } => {
                write!(
                    f,
                    "bad fault spec term `{term}` at offset {offset}: {reason}"
                )
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_error_displays_context() {
        let e = Error::io(
            "reading seed file",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        );
        let s = e.to_string();
        assert!(s.contains("reading seed file"), "{s}");
        assert!(s.contains("gone"), "{s}");
    }

    #[test]
    fn parse_error_displays_line() {
        let e = Error::parse("readings.csv", Some(42), "expected 4 fields");
        assert_eq!(
            e.to_string(),
            "parse error in readings.csv at line 42: expected 4 fields"
        );
    }

    #[test]
    fn parse_error_without_line() {
        let e = Error::parse("readings.csv", None, "truncated");
        assert_eq!(e.to_string(), "parse error in readings.csv: truncated");
    }

    #[test]
    fn source_is_preserved_for_io() {
        use std::error::Error as _;
        let e = Error::io("x", std::io::Error::other("y"));
        assert!(e.source().is_some());
        assert!(Error::Schema("s".into()).source().is_none());
    }

    #[test]
    fn fault_variants_identify_the_failure() {
        let e = Error::TaskFailed {
            task: "phase 1 task 7".into(),
            attempts: 4,
        };
        assert!(e.to_string().contains("phase 1 task 7"), "{e}");
        assert!(e.to_string().contains('4'), "{e}");
        let e = Error::BlockUnavailable {
            file: "meter_data".into(),
            block: 2,
        };
        assert!(e.to_string().contains("meter_data"), "{e}");
        assert!(e.to_string().contains("block 2"), "{e}");
        assert!(Error::NoHealthyNodes
            .to_string()
            .contains("no healthy node"));
    }

    #[test]
    fn bad_frame_names_the_defect() {
        let e = Error::BadFrame {
            context: "reading worker response".into(),
            defect: FrameDefect::Oversized { len: 99, max: 10 },
        };
        let s = e.to_string();
        assert!(s.contains("reading worker response"), "{s}");
        assert!(s.contains("99"), "{s}");
        assert!(s.contains("10"), "{s}");
        let e = Error::BadFrame {
            context: "x".into(),
            defect: FrameDefect::ChecksumMismatch,
        };
        assert!(e.to_string().contains("checksum"), "{e}");
    }

    #[test]
    fn bad_format_names_the_defect() {
        let e = Error::BadFormat {
            context: "opening data.smc".into(),
            defect: FormatDefect::BlockChecksumMismatch { consumer: 7 },
        };
        let s = e.to_string();
        assert!(s.contains("opening data.smc"), "{s}");
        assert!(s.contains("H000007"), "{s}");
        let e = Error::BadFormat {
            context: "x".into(),
            defect: FormatDefect::Truncated {
                expected: 100,
                actual: 9,
            },
        };
        let s = e.to_string();
        assert!(s.contains("100"), "{s}");
        assert!(s.contains('9'), "{s}");
        let e = Error::BadFormat {
            context: "x".into(),
            defect: FormatDefect::UnsupportedVersion {
                found: 9,
                supported: 1,
            },
        };
        assert!(e.to_string().contains("version 9"), "{e}");
        assert!(FormatDefect::CorruptIndex("ids out of order".into())
            .to_string()
            .contains("ids out of order"));
    }

    #[test]
    fn fault_spec_error_carries_position() {
        let e = Error::FaultSpec {
            term: "crash=2".into(),
            offset: 7,
            reason: "expected NODE@SECS".into(),
        };
        let s = e.to_string();
        assert!(s.contains("`crash=2`"), "{s}");
        assert!(s.contains("offset 7"), "{s}");
        assert!(s.contains("expected NODE@SECS"), "{s}");
    }

    #[test]
    fn not_per_consumer_names_the_task() {
        use std::error::Error as _;
        let e = Error::NotPerConsumer("Similarity".into());
        assert!(e.to_string().contains("Similarity"), "{e}");
        assert!(e.source().is_none());
    }
}
