//! Result tables: the rows/series the paper's figures plot.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use smda_types::{Error, Result};

/// One experiment's output table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Experiment id (`fig7`, `table1`, ...).
    pub id: String,
    /// Human-readable title quoting the paper's caption.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// A new empty table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row.
    ///
    /// # Panics
    /// Panics if the cell count does not match the header.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row arity must match header"
        );
        self.rows.push(cells);
    }

    /// Render as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "### {} — {}\n", self.id, self.title);
        let _ = writeln!(s, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            s,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(s, "| {} |", row.join(" | "));
        }
        s
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{}", self.columns.join(","));
        for row in &self.rows {
            let _ = writeln!(s, "{}", row.join(","));
        }
        s
    }

    /// Write `<dir>/<id>.csv`.
    pub fn write_csv(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::io(format!("creating {}", dir.display()), e))?;
        let path = dir.join(format!("{}.csv", self.id));
        std::fs::write(&path, self.to_csv())
            .map_err(|e| Error::io(format!("writing {}", path.display()), e))
    }
}

/// Seconds with millisecond precision, the unit used in result tables.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Mebibytes with one decimal.
pub fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// A rate (per second) with one decimal.
pub fn rate(count: usize, d: Duration) -> String {
    if d.is_zero() {
        return "inf".into();
    }
    format!("{:.1}", count as f64 / d.as_secs_f64())
}

#[cfg(test)]
impl Table {
    /// The number in the cell after `key`, in the first row whose leading
    /// cells are `key` — how the figure-shape tests read a table.
    pub(crate) fn value(&self, key: &[&str]) -> f64 {
        let row = self
            .rows
            .iter()
            .find(|r| r.iter().zip(key).all(|(c, k)| c == k));
        let row = row.unwrap_or_else(|| panic!("{}: no row {key:?}", self.id));
        row[key.len()].parse().expect("a numeric cell")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_and_csv_render() {
        let mut t = Table::new("fig0", "demo", &["size", "time"]);
        t.row(vec!["1".into(), "2.5".into()]);
        t.row(vec!["2".into(), "5.0".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### fig0"));
        assert!(md.contains("| 1 | 2.5 |"));
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("size,time"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", "y", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_written_to_disk() {
        let dir = std::env::temp_dir().join(format!("smda-report-{}", std::process::id()));
        let mut t = Table::new("figx", "demo", &["a"]);
        t.row(vec!["1".into()]);
        t.write_csv(&dir).unwrap();
        let content = std::fs::read_to_string(dir.join("figx.csv")).unwrap();
        assert!(content.contains('1'));
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
        assert_eq!(mib(1024 * 1024), "1.0");
        assert_eq!(rate(100, Duration::from_secs(2)), "50.0");
        assert_eq!(rate(1, Duration::ZERO), "inf");
    }
}
