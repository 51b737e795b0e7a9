//! Plain-text tables and series for the harness binaries.
//!
//! Every figure-reproducing binary in `gls-bench` prints its data in the same
//! shape the paper plots it: a header row followed by one row per x-axis
//! value, with one column per lock algorithm / configuration. The format is
//! both human-readable and trivially machine-parseable (tab-separated).

use std::fmt::Write as _;

/// A rectangular result table: one labelled row per x value, one labelled
/// column per series.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesTable {
    title: String,
    x_label: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

impl SeriesTable {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, x_label: impl Into<String>, columns: Vec<String>) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends one row of values.
    ///
    /// # Panics
    ///
    /// Panics if the number of values does not match the number of columns.
    pub fn push_row(&mut self, x: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width must match the number of columns"
        );
        self.rows.push((x.into(), values));
    }

    /// Renders the table as tab-separated text with a `#`-prefixed title.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = write!(out, "{}", self.x_label);
        for c in &self.columns {
            let _ = write!(out, "\t{c}");
        }
        let _ = writeln!(out);
        for (x, values) in &self.rows {
            let _ = write!(out, "{x}");
            for v in values {
                let _ = write!(out, "\t{v:.4}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Geometric-mean helper used for "Avg" columns in the system figures.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().filter(|v| **v > 0.0).map(|v| v.ln()).sum();
    let count = values.iter().filter(|v| **v > 0.0).count();
    if count == 0 {
        0.0
    } else {
        (log_sum / count as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> SeriesTable {
        let mut t = SeriesTable::new(
            "Figure X",
            "threads",
            vec!["TICKET".into(), "MCS".into(), "MUTEX".into()],
        );
        t.push_row("1", vec![5.0, 3.0, 2.0]);
        t.push_row("10", vec![1.0, 2.0, 0.5]);
        t
    }

    #[test]
    fn render_contains_title_headers_and_rows() {
        let t = sample_table();
        let s = t.render();
        assert!(s.starts_with("# Figure X"));
        assert!(s.contains("threads\tTICKET\tMCS\tMUTEX"));
        assert!(s.contains("10\t1.0000\t2.0000\t0.5000"));
        assert_eq!(s.lines().count(), 4, "title, header and two rows");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_rejected() {
        sample_table().push_row("2", vec![1.0]);
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
        assert!((geometric_mean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-9);
    }
}
