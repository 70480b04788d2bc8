//! Fixed-width ASCII reporting for the figure harness.

use std::fmt::Write as _;

/// A printable table: title, column headers, string rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table caption (e.g. "Figure 8a: runtime vs exception %").
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row cells; each row should have `columns.len()` entries.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.columns.len());
        self.rows.push(cells);
    }

    /// Renders the table with right-aligned numeric-ish columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(widths.iter())
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .zip(widths.iter())
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            let _ = writeln!(out, "{}", line.join("  "));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
        println!();
    }

    /// Renders the table as a JSON object
    /// `{"title": …, "rows": [{col: cell, …}, …]}` for plotting scripts.
    /// Hand-rolled (flat strings only) because `serde_json` is outside
    /// the allowed offline dependency set.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"title\":");
        push_json_string(&mut out, &self.title);
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            for (j, (col, cell)) in self.columns.iter().zip(row.iter()).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_json_string(&mut out, col);
                out.push(':');
                push_json_string(&mut out, cell);
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Appends a JSON string literal with the escapes flat tables can need.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a set of tables as one JSON array document.
pub fn tables_to_json(tables: &[Table]) -> String {
    let mut out = String::from("[");
    for (i, t) in tables.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&t.to_json());
    }
    out.push(']');
    out
}

/// Formats bytes as MB with two decimals (the paper's M-bytes axis).
pub fn fmt_mb(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats a duration in seconds with three decimals.
pub fn fmt_secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a large count with thousands separators.
pub fn fmt_count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["x", "value"]);
        t.push_row(vec!["1".into(), "10.00".into()]);
        t.push_row(vec!["100".into(), "7.25".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 5);
        // All data lines share the same width.
        assert_eq!(lines[2].len(), lines[3].len().max(lines[4].len()));
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_mb(1024 * 1024), "1.00");
        assert_eq!(fmt_mb(0), "0.00");
        assert_eq!(fmt_secs(Duration::from_millis(1500)), "1.500");
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1000), "1,000");
        assert_eq!(fmt_count(1234567), "1,234,567");
    }

    #[test]
    fn json_rendering_escapes_and_structures() {
        let mut t = Table::new("fig \"8a\"", &["x", "t\n"]);
        t.push_row(vec!["0.1".into(), "1.00".into()]);
        let json = t.to_json();
        assert_eq!(
            json,
            r#"{"title":"fig \"8a\"","rows":[{"x":"0.1","t\n":"1.00"}]}"#
        );
        let doc = tables_to_json(&[t.clone(), t]);
        assert!(doc.starts_with('['));
        assert!(doc.ends_with(']'));
        assert_eq!(doc.matches("\"title\"").count(), 2);
    }
}
