//! Plain-text table formatting for experiment results.

use std::fmt::Write as _;

/// A simple column-aligned text table, used by the `experiments` binary to
/// print every table of its output.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TextTable {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; the number of cells should match the header.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width does not match header width"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", render_row(&self.header, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)))
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row, &widths));
        }
        out
    }
}

/// Formats a float with a fixed, compact precision used across the tables.
pub fn fmt_f64(value: f64) -> String {
    if value.is_nan() {
        "-".to_string()
    } else {
        format!("{value:.2}")
    }
}

/// Formats an optional step count (`None` renders as "stalled").
pub fn fmt_steps(steps: Option<usize>) -> String {
    match steps {
        Some(s) => s.to_string(),
        None => "stalled".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TextTable {
        let mut t = TextTable::new("demo", &["a", "bbb", "c"]);
        t.push_row(vec!["1".into(), "2".into(), "3".into()]);
        t.push_row(vec!["10".into(), "200".into(), "3000".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let text = sample().render();
        assert!(text.contains("== demo =="));
        assert!(text.lines().count() >= 4);
        // The longest cell in column 3 is "3000"; header line must be padded
        // to at least that width.
        let header_line = text.lines().nth(1).unwrap();
        assert!(header_line.ends_with("   c"));
    }

    #[test]
    #[should_panic]
    fn mismatched_row_width_panics() {
        let mut t = TextTable::new("bad", &["a", "b"]);
        t.push_row(vec!["1".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f64(1.5), "1.50");
        assert_eq!(fmt_f64(f64::NAN), "-");
        assert_eq!(fmt_steps(Some(12)), "12");
        assert_eq!(fmt_steps(None), "stalled");
    }
}
