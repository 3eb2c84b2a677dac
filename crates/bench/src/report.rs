//! Buffered experiment output.
//!
//! Each experiment builds a [`Report`] — its complete printed output as one
//! string — instead of writing to stdout as it goes. That single change is
//! what lets `run_all --jobs N` execute experiments on worker threads and
//! still emit output byte-identical to a serial run: workers return their
//! reports, and the runner prints them in battery order.

use crate::util;
use std::fmt;

/// One experiment's rendered output, accumulated line by line.
#[derive(Clone, Debug)]
pub struct Report {
    name: String,
    text: String,
}

/// Append a formatted line to a [`Report`] — the buffered counterpart of
/// `println!`.
///
/// ```
/// use hint_bench::report::Report;
/// use hint_bench::rline;
///
/// let mut r = Report::new("demo");
/// rline!(r, "answer: {}", 42);
/// assert_eq!(r.text(), "answer: 42\n");
/// ```
#[macro_export]
macro_rules! rline {
    ($r:expr) => {
        $r.line(format_args!(""))
    };
    ($r:expr, $($arg:tt)*) => {
        $r.line(format_args!($($arg)*))
    };
}

impl Report {
    /// Start an empty report for the experiment called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Report {
            name: name.into(),
            text: String::new(),
        }
    }

    /// The experiment name (battery job id).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The output accumulated so far.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Consume the report, returning its output.
    pub fn into_text(self) -> String {
        self.text
    }

    /// Append one formatted line (used via the [`rline!`] macro).
    pub fn line(&mut self, args: fmt::Arguments<'_>) {
        use fmt::Write;
        let _ = self.text.write_fmt(args);
        self.text.push('\n');
    }

    /// Append an empty line.
    pub fn blank(&mut self) {
        self.text.push('\n');
    }

    /// Append a section header.
    pub fn header(&mut self, title: &str) {
        self.text.push_str(&util::header(title));
    }

    /// Append an aligned table.
    pub fn table(&mut self, headers: &[&str], rows: &[Vec<String>]) {
        self.text.push_str(&util::table(headers, rows));
    }

    /// Append a y-over-time bar series.
    pub fn series(&mut self, label: &str, points: &[(f64, f64)], y_max: f64, bar_width: usize) {
        self.text
            .push_str(&util::series(label, points, y_max, bar_width));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_accumulate_in_order() {
        let mut r = Report::new("t");
        rline!(r, "a {}", 1);
        r.blank();
        rline!(r, "b");
        assert_eq!(r.name(), "t");
        assert_eq!(r.text(), "a 1\n\nb\n");
        assert_eq!(r.into_text(), "a 1\n\nb\n");
    }

    #[test]
    fn helpers_append_rendered_blocks() {
        let mut r = Report::new("t");
        r.header("H");
        r.table(&["x"], &[vec!["1".into()]]);
        r.series("s", &[(0.0, 0.5)], 1.0, 4);
        let t = r.text();
        assert!(t.contains("H\n"));
        assert!(t.contains('x'));
        assert!(t.contains("|##  |"));
    }
}
