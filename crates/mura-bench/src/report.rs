//! Table output for the repro binaries: fixed-width text tables in the
//! shape of the paper's figures, plus a TSV mode for post-processing.

use crate::systems::Outcome;

/// Formats one outcome the way the paper's figures annotate them:
/// a time, `fail` (system crashed), or `timeout`.
pub fn fmt_outcome(o: &Outcome) -> String {
    match o {
        Outcome::Ok { millis, .. } => {
            if *millis >= 1000.0 {
                format!("{:.2}s", millis / 1000.0)
            } else {
                format!("{millis:.1}ms")
            }
        }
        Outcome::Failed(reason) => format!("fail({reason})"),
        Outcome::Timeout => "timeout".to_string(),
        Outcome::Unsupported => "n/a".to_string(),
    }
}

/// A simple fixed-width table writer.
pub struct Table {
    widths: Vec<usize>,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            widths: header.iter().map(|h| h.len()).collect(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        for (w, c) in self.widths.iter_mut().zip(&cells) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("| ");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{c:<w$} | ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &self.widths));
        out.push('\n');
        let sep: Vec<String> = self.widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep, &self.widths));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &self.widths));
            out.push('\n');
        }
        out
    }

    /// Renders as TSV (for scripting).
    pub fn render_tsv(&self) -> String {
        let mut out = self.header.join("\t");
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join("\t"));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Prints an experiment banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_formatting() {
        assert_eq!(fmt_outcome(&Outcome::Ok { millis: 12.34, rows: 5, comm_rows: 0 }), "12.3ms");
        assert_eq!(fmt_outcome(&Outcome::Ok { millis: 2500.0, rows: 5, comm_rows: 0 }), "2.50s");
        assert_eq!(fmt_outcome(&Outcome::Failed("OOM".into())), "fail(OOM)");
        assert_eq!(fmt_outcome(&Outcome::Timeout), "timeout");
        assert_eq!(fmt_outcome(&Outcome::Unsupported), "n/a");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["query", "time"]);
        t.row(vec!["Q1".into(), "1.0ms".into()]);
        t.row(vec!["Q22".into(), "timeout".into()]);
        let s = t.render();
        assert!(s.contains("| query | time    |"), "{s}");
        assert!(s.lines().count() == 4);
        let tsv = t.render_tsv();
        assert!(tsv.starts_with("query\ttime\n"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_row() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["x".into(), "y".into()]);
    }
}
