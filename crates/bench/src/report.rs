//! Table rendering for the experiment harness.
//!
//! Every experiment produces one or more [`Table`]s; the harness prints
//! them in an aligned, paper-style plain-text format, so a write-up can
//! quote rows verbatim.

use std::fmt::Write as _;

/// A printable experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (e.g. "E5a — RMS error vs conjunction width").
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of rendered cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (cells rendered by the caller).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders the table to a string.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n## {}", self.title);
        let line = |widths: &[usize]| {
            let mut s = String::from("+");
            for w in widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let _ = writeln!(out, "{}", line(&widths));
        let mut header = String::from("|");
        for (w, h) in widths.iter().zip(&self.headers) {
            let _ = write!(header, " {h:>w$} |");
        }
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{}", line(&widths));
        for row in &self.rows {
            let mut r = String::from("|");
            for (w, cell) in widths.iter().zip(row) {
                let _ = write!(r, " {cell:>w$} |");
            }
            let _ = writeln!(out, "{r}");
        }
        let _ = writeln!(out, "{}", line(&widths));
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float with `prec` decimals.
#[must_use]
pub fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Formats a float in scientific notation with 2 significant decimals.
#[must_use]
pub fn sci(x: f64) -> String {
    format!("{x:.2e}")
}

/// Root-mean-square of a slice.
///
/// # Panics
///
/// Panics on empty input.
#[must_use]
pub fn rms(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    (xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Mean of a slice.
///
/// # Panics
///
/// Panics on empty input.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("demo", &["a", "bee"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100".into(), "x".into()]);
        t.note("hello");
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("| 100 |"));
        assert!(s.contains("note: hello"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((rms(&[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
        assert_eq!(f(1.23456, 2), "1.23");
        assert!(sci(0.000123).contains('e'));
    }
}
