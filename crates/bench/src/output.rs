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
    /// Top-level `"key": value` entries the table's experiment
    /// contributes to `BENCH_throughput.json`; each value is valid JSON.
    pub bench_json: Vec<(String, String)>,
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

    /// Print and persist: the CSV, and the table's entries merged into
    /// `BENCH_throughput.json`. A raw-data table too long to read on a
    /// console is only persisted.
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
        for (key, value) in &self.bench_json {
            merge_bench_json(key, value);
        }
    }
}

/// Merge one top-level `"key": value` entry into `BENCH_throughput.json`
/// without clobbering the other experiments' entries (the vendored
/// `serde_json` has no serializer, so this splices text). `value` must
/// already be valid JSON.
fn merge_bench_json(key: &str, value: &str) {
    let path = "BENCH_throughput.json";
    let current = fs::read_to_string(path).unwrap_or_default();
    if let Err(e) = fs::write(path, splice_json_key(&current, key, value)) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

/// Replace or append a top-level key in a JSON object document.
fn splice_json_key(doc: &str, key: &str, value: &str) -> String {
    let trimmed = doc.trim();
    if !trimmed.starts_with('{') || !trimmed.ends_with('}') {
        return format!("{{\n  \"{key}\": {value}\n}}\n");
    }
    let mut body = trimmed[1..trimmed.len() - 1].trim_end().to_string();
    let needle = format!("\"{key}\":");
    if let Some(start) = body.find(&needle) {
        // Scan the entry's value, balancing nesting, to the top-level
        // comma that ends it (or the end of the body).
        let bytes = body.as_bytes();
        let mut depth = 0i32;
        let mut in_str = false;
        let mut end = body.len();
        for i in start + needle.len()..bytes.len() {
            match bytes[i] {
                b'"' if i == 0 || bytes[i - 1] != b'\\' => in_str = !in_str,
                b'{' | b'[' if !in_str => depth += 1,
                b'}' | b']' if !in_str => depth -= 1,
                b',' if !in_str && depth == 0 => {
                    end = i + 1;
                    break;
                }
                _ => {}
            }
        }
        // A last entry leaves no trailing comma; eat the one before it.
        let from = if end == body.len() { body[..start].rfind(',').unwrap_or(0) } else { start };
        body.replace_range(from..end, "");
    }
    let body = body.trim_end().trim_end_matches(',').to_string();
    if body.trim().is_empty() {
        format!("{{\n  \"{key}\": {value}\n}}\n")
    } else {
        format!("{{{body},\n  \"{key}\": {value}\n}}\n")
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
    fn splice_appends_replaces_and_creates() {
        let fresh = splice_json_key("", "telemetry", "{\"x\": 1}");
        assert_eq!(fresh, "{\n  \"telemetry\": {\"x\": 1}\n}\n");
        // Appending keeps existing entries (including nested commas).
        let doc = "{\n  \"a\": {\"x\": 1, \"y\": [2, 3]},\n  \"b\": 4\n}\n";
        let appended = splice_json_key(doc, "telemetry", "5");
        assert!(appended.contains("\"a\": {\"x\": 1, \"y\": [2, 3]}"));
        assert!(appended.contains("\"b\": 4"));
        assert!(appended.ends_with("\"telemetry\": 5\n}\n"));
        // Re-merging replaces the old value, middle or last position.
        let replaced = splice_json_key(&appended, "telemetry", "6");
        assert!(!replaced.contains("\"telemetry\": 5"));
        assert!(replaced.ends_with("\"telemetry\": 6\n}\n"));
        let mid = splice_json_key(&replaced, "a", "0");
        assert!(mid.contains("\"b\": 4") && mid.contains("\"telemetry\": 6"));
        assert!(!mid.contains("\"y\""));
        assert!(mid.ends_with("\"a\": 0\n}\n"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.5us");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_mpps(16_000_000.0), "16.00Mpps");
    }
}
