//! Result output: aligned console tables plus CSV files under
//! `results/` for EXPERIMENTS.md. Experiments only *build* tables;
//! [`Table::emit`] prints and writes relative to the working
//! directory, and only the `experiments` binary calls it — a test that
//! runs an experiment leaves no file behind.

use std::fs;
use std::io::Write as _;
use std::path::Path;

/// A simple result table: header row plus data rows.
#[derive(Debug, Clone, Default)]
pub struct Table {
    pub title: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// File stem the table persists under: `results/<name>.csv`.
    pub name: String,
}

impl Table {
    pub fn new(name: &str, title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            name: name.to_string(),
            ..Table::default()
        }
    }

    pub fn row<I: IntoIterator<Item = String>>(&mut self, cells: I) {
        let cells: Vec<String> = cells.into_iter().collect();
        assert_eq!(cells.len(), self.header.len(), "row arity");
        self.rows.push(cells);
    }

    /// Render as an aligned console table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = format!("== {} ==\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}")).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Write as CSV to `results/<name>.csv`.
    fn write_csv(&self) -> std::io::Result<()> {
        let dir = Path::new("results");
        fs::create_dir_all(dir)?;
        let mut f = fs::File::create(dir.join(format!("{}.csv", self.name)))?;
        writeln!(f, "{}", self.header.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(())
    }

    /// Print and persist the CSV. A raw-data table too long to read on
    /// a console is only persisted.
    pub fn emit(&self) {
        if self.rows.len() <= 100 {
            println!("{}", self.render());
        } else {
            println!(
                "== {} == ({} rows, results/{}.csv)\n",
                self.title,
                self.rows.len(),
                self.name
            );
        }
        if let Err(e) = self.write_csv() {
            eprintln!("warning: could not write results/{}.csv: {e}", self.name);
        }
    }
}

/// Format a nanosecond latency human-readably.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Format packets/second as Mpps.
pub fn fmt_mpps(pps: f64) -> String {
    format!("{:.2}Mpps", pps / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", "demo", &["a", "long_header"]);
        t.row(["1".into(), "2".into()]);
        t.row(["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("long_header"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("x", "x", &["a", "b"]);
        t.row(["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_mpps(16_000_000.0), "16.00Mpps");
    }
}
