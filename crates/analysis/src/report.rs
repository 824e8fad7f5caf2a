//! Plain-text tables and data series for the figure-regeneration harnesses.
//!
//! Every experiment binary prints its rows through these helpers so that the
//! output is uniform, alignable, and easy to diff against EXPERIMENTS.md.
//! Series can also be emitted as CSV for external plotting.

use std::fmt::Write as _;

/// A simple aligned text table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of already-formatted cells.
    ///
    /// # Panics
    /// Panics if the number of cells does not match the number of headers.
    pub fn push_row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Appends a row of floating-point values formatted with `precision`
    /// significant digits.
    pub fn push_values(&mut self, values: &[f64], precision: usize) {
        let cells: Vec<String> = values.iter().map(|v| format_sig(*v, precision)).collect();
        self.push_row(&cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as aligned text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let _ = writeln!(out, "{}", "-".repeat(header.join("  ").len()));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Renders the table as CSV (headers plus rows).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// A named (x, y) series, one per curve of a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Curve label (e.g. `"var[L]/var[HT]"`).
    pub label: String,
    /// The x/y points in plotting order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    #[must_use]
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Renders the series as `x y` lines preceded by a `# label` comment
    /// (gnuplot-friendly, matching how the paper's figures are described).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.label);
        for (x, y) in &self.points {
            let _ = writeln!(out, "{x:.6e} {y:.6e}");
        }
        out
    }
}

/// Formats a float with a fixed number of significant digits, using plain
/// decimal notation for moderate magnitudes and scientific notation otherwise.
#[must_use]
pub fn format_sig(value: f64, digits: usize) -> String {
    if value == 0.0 {
        return "0".to_string();
    }
    let magnitude = value.abs().log10();
    if (-3.0..6.0).contains(&magnitude) {
        let decimals = (digits as i32 - 1 - magnitude.floor() as i32).max(0) as usize;
        format!("{value:.decimals$}")
    } else {
        format!("{value:.prec$e}", prec = digits.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new("demo", &["x", "value"]);
        t.push_row(&["1".to_string(), "10.5".to_string()]);
        t.push_values(&[2.0, 0.333_333], 3);
        let text = t.render();
        assert!(text.contains("# demo"));
        assert!(text.contains("value"));
        assert!(text.lines().count() >= 5);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn table_csv_roundtrip_structure() {
        let mut t = Table::new("csv", &["a", "b"]);
        t.push_values(&[1.0, 2.0], 3);
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("a,b"));
        assert_eq!(lines.next(), Some("1.00,2.00"));
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn mismatched_row_length_rejected() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.push_row(&["only one".to_string()]);
    }

    #[test]
    fn series_renders_points() {
        let mut s = Series::new("curve");
        s.push(0.1, 2.0);
        s.push(0.2, 3.0);
        let text = s.render();
        assert!(text.starts_with("# curve"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn format_sig_switches_notation() {
        assert_eq!(format_sig(0.0, 3), "0");
        assert_eq!(format_sig(1.0, 3), "1.00");
        assert_eq!(format_sig(123.456, 4), "123.5");
        assert!(format_sig(1.0e9, 3).contains('e'));
        assert!(format_sig(1.0e-5, 3).contains('e'));
    }
}
