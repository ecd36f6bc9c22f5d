//! The one codec for the paper's text formats: a line parser and a line
//! writer for Format 1/3 rows (`consumer,hour,temperature,kwh`) and for
//! Format 2 rows (`consumer,kwh0,...,kwh8759`).
//!
//! The files the benchmark reads are numeric-only and schema-fixed, so a
//! hand-rolled parser is both simpler and faster than a general CSV crate
//! (and keeps the dependency set to the approved list). Floats are written
//! with shortest-round-trip formatting so every value parses back
//! bit-identical — required for the cross-platform equivalence tests.
//! Every reader of text rows — the format reader, the file store, the
//! cluster twins' mappers — parses through here, so a line is refused for
//! the same reasons everywhere: a field that is missing, does not parse
//! (surrounding blanks are trimmed first) or is left over.

use std::fmt::Write as _;
use std::io::BufRead;

use crate::error::{Error, Result};
use crate::reading::Reading;
use crate::series::{ConsumerId, ConsumerSeries};

/// One reading as a Format-1/3 line, without the newline.
pub fn reading_line(r: &Reading) -> String {
    format!(
        "{},{},{},{}",
        r.consumer.raw(),
        r.hour,
        r.temperature,
        r.kwh
    )
}

/// One household as a Format-2 line, without the newline.
pub fn consumer_line(id: ConsumerId, readings: &[f64]) -> String {
    let mut line = String::with_capacity(8 + readings.len() * 7);
    let _ = write!(line, "{}", id.raw());
    for v in readings {
        let _ = write!(line, ",{v}");
    }
    line
}

/// The first 60 bytes of `text`, cut back to a character boundary.
fn excerpt(text: &str) -> &str {
    let mut end = text.len().min(60);
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    &text[..end]
}

/// One line being parsed: its fields still to read, and where it came
/// from for error messages.
struct Fields<'a> {
    line: &'a str,
    rest: std::str::Split<'a, char>,
    context: &'a str,
    line_no: Option<usize>,
}

impl<'a> Fields<'a> {
    fn of(line: &'a str, context: &'a str, line_no: Option<usize>) -> Self {
        Fields {
            line,
            rest: line.split(','),
            context,
            line_no,
        }
    }

    /// A parse error that carries the start of the offending line, so a
    /// job's diagnostic says which line it was.
    fn refuse(&self, what: String) -> Error {
        let message = format!("{what} in `{}`", excerpt(self.line));
        Error::parse(self.context, self.line_no, message)
    }

    /// `raw` as field `name`. Surrounding blanks are trimmed, on a second
    /// look only: a rendered field has none.
    #[inline]
    fn parse<T: std::str::FromStr>(&self, raw: &str, name: &str) -> Result<T> {
        let invalid = |_| self.refuse(format!("invalid `{name}` value `{}`", excerpt(raw)));
        raw.parse().or_else(|_| raw.trim().parse()).map_err(invalid)
    }

    /// The next field, which must be there, as field `name`.
    #[inline]
    fn next<T: std::str::FromStr>(&mut self, name: &str) -> Result<T> {
        let raw = self.rest.next();
        let raw = raw.ok_or_else(|| self.refuse(format!("missing field `{name}`")))?;
        self.parse(raw, name)
    }
}

/// Parse one Format-1/3 line. `context`/`line_no` feed error messages.
/// The hour is not held to the year here: what a household's rows add up
/// to is [`crate::formats::assemble_households`]'s question.
pub fn parse_reading_line(line: &str, context: &str, line_no: Option<usize>) -> Result<Reading> {
    let mut fields = Fields::of(line, context, line_no);
    let reading = Reading {
        consumer: ConsumerId(fields.next("consumer")?),
        hour: fields.next("hour")?,
        temperature: fields.next("temperature")?,
        kwh: fields.next("kwh")?,
    };
    if fields.rest.next().is_some() {
        return Err(fields.refuse("trailing fields".into()));
    }
    Ok(reading)
}

/// Parse one Format-2 line into a series: a line is a household's whole
/// year, so one that is not 8760 valid readings is a schema error naming
/// the household.
pub fn parse_consumer_line(
    line: &str,
    context: &str,
    line_no: Option<usize>,
) -> Result<ConsumerSeries> {
    let mut fields = Fields::of(line, context, line_no);
    let id = fields.next("consumer")?;
    let mut readings = Vec::new();
    while let Some(raw) = fields.rest.next() {
        readings.push(fields.parse(raw, "kwh")?);
    }
    ConsumerSeries::new(ConsumerId(id), readings)
}

/// Read every reading from a Format-1/3 stream.
pub fn read_readings<R: BufRead>(reader: R, context: &str) -> Result<Vec<Reading>> {
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| Error::io(format!("reading {context}"), e))?;
        if line.is_empty() {
            continue;
        }
        out.push(parse_reading_line(&line, context, Some(i + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::HOURS_PER_YEAR;
    use std::io::Cursor;

    #[test]
    fn reading_round_trip() {
        // An awkward float (0.1 + 0.2) must survive the trip bit-exactly.
        let r = Reading {
            consumer: ConsumerId(12),
            hour: 8759,
            temperature: -10.5,
            kwh: 0.1 + 0.2,
        };
        let parsed = parse_reading_line(&reading_line(&r), "test", Some(1)).unwrap();
        assert_eq!(parsed.consumer, r.consumer);
        assert_eq!(parsed.hour, r.hour);
        assert_eq!(parsed.temperature.to_bits(), r.temperature.to_bits());
        assert_eq!(parsed.kwh.to_bits(), r.kwh.to_bits());
    }

    #[test]
    fn rejects_malformed_lines() {
        let parse = |line| parse_reading_line(line, "t", Some(1));
        assert!(parse("1,2,3").is_err()); // missing field
        assert!(parse("1,2,3,4,5").is_err()); // extra field
        assert!(parse("x,2,3.0,4.0").is_err()); // bad consumer
        assert!(parse("1,y,3.0,4.0").is_err()); // bad hour
        assert!(parse(" 1, 2 ,3.0,4.0\r").is_ok()); // blanks are trimmed
        assert!(matches!(
            parse_consumer_line("noreadings", "t", None),
            Err(Error::Parse { .. })
        ));
        assert!(matches!(
            parse_consumer_line("1,x", "t", None),
            Err(Error::Parse { .. })
        ));
        match parse_consumer_line("7,0.1,0.2,0.3", "t", None) {
            Err(Error::Schema(msg)) => assert!(msg.contains(&ConsumerId(7).to_string()), "{msg}"),
            other => panic!("a three-hour year is a schema error, got {other:?}"),
        }
    }

    #[test]
    fn error_mentions_line_number() {
        let err = parse_reading_line("bad", "seed.csv", Some(17)).unwrap_err();
        assert!(err.to_string().contains("line 17"), "{err}");
    }

    #[test]
    fn error_carries_the_offending_text_cut_on_a_character_boundary() {
        let err = parse_reading_line("0,lower,split", "t", None).unwrap_err();
        assert!(err.to_string().contains("lower,split"), "{err}");
        // 59 ASCII bytes, then a two-byte character straddling byte 60.
        let line = format!("{}é,tail", "x".repeat(59));
        let err = parse_reading_line(&line, "t", None).unwrap_err();
        assert!(!err.to_string().contains('é'), "{err}");
    }

    #[test]
    fn read_readings_skips_blank_lines() {
        let data = "1,0,5.000,0.5000\n\n1,1,5.000,0.6000\n";
        let rows = read_readings(Cursor::new(data), "mem").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].hour, 1);
    }

    #[test]
    fn f64_line_round_trip() {
        let vals: Vec<f64> = (0..HOURS_PER_YEAR).map(|h| 0.1 * h as f64 + 0.2).collect();
        let line = consumer_line(ConsumerId(7), &vals);
        let parsed = parse_consumer_line(&line, "t", Some(1)).unwrap();
        assert_eq!(parsed.id, ConsumerId(7));
        assert_eq!(parsed.readings().len(), vals.len());
        for (a, b) in parsed.readings().iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
