//! Table 1: statistical functions built into the five tested platforms.

use smda_engines::Capabilities;

use crate::report::Table;
use crate::scale::Scale;

/// Regenerate Table 1 (a static capability matrix).
pub fn run(_scale: Scale) -> Vec<Table> {
    let mut t = Table::new(
        "table1",
        "Statistical functions built into the five tested platforms",
        &["Function", "Matlab", "MADLib", "System C", "Spark", "Hive"],
    );
    let platforms = [
        Capabilities::matlab(),
        Capabilities::madlib(),
        Capabilities::system_c(),
        Capabilities::spark(),
        Capabilities::hive(),
    ];
    type Column = fn(&Capabilities) -> smda_engines::Support;
    let rows: [(&str, Column); 4] = [
        ("Histogram", |c| c.histogram),
        ("Quantiles", |c| c.quantiles),
        ("Regression", |c| c.regression),
        ("Cosine similarity", |c| c.cosine_similarity),
    ];
    for (name, get) in rows {
        let mut cells = vec![name.to_string()];
        cells.extend(platforms.iter().map(|p| get(p).label().to_string()));
        t.row(cells);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_matches_paper() {
        let tables = run(Scale::smoke());
        assert_eq!(tables.len(), 1);
        let t = &tables[0];
        assert_eq!(t.rows.len(), 4);
        // Histogram row: yes, yes, no, no, yes.
        assert_eq!(
            t.rows[0][1..],
            ["yes", "yes", "no", "no", "yes"].map(String::from)
        );
        // Cosine similarity: nobody ships it.
        assert!(t.rows[3][1..].iter().all(|c| c == "no"));
    }
}
