//! Spans recorded by the benchmark around calls into the product.
//!
//! This PR changes no product code, so a layer is timed from outside:
//! the traced run wraps each public call in a span (`name`,
//! `start_ns`, `end_ns`, `parent`, `op_id`). Spans live in a buffer
//! sized up front and are written as JSON when the run ends. A span's
//! *self time* is its duration minus the part its children cover, and
//! an operation's *coverage* is the share of its root span its direct
//! children account for.

use crate::stats::Summary;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one operation (a burst, a deploy, a pass) share this.
    pub op_id: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    op_id: u32,
}

impl Tracer {
    /// `capacity` spans are reserved so recording does not allocate
    /// inside a timed call.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    /// Spans opened from now on belong to operation `op_id`.
    pub fn set_op(&mut self, op_id: u32) {
        self.op_id = op_id;
    }

    /// Run `f` inside a span named `name`, nested under whichever span
    /// is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len() as u32;
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, op_id: self.op_id });
        self.stack.push(id);
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.stack.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per span name, largest self time first.
    pub fn by_name(&self) -> Vec<NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        let mut acc: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = acc.entry(s.name).or_insert(NameTotals {
                name: s.name,
                calls: 0,
                total_ns: 0,
                self_ns: 0,
            });
            e.calls += 1;
            e.total_ns += s.ns();
            // Children run one after another inside their parent, so
            // the union of their intervals is their sum.
            e.self_ns += s.ns().saturating_sub(child_ns[i]);
        }
        let mut out: Vec<NameTotals> = acc.into_values().collect();
        out.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        out
    }

    /// Total time under spans named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
    }

    /// Durations of every span named `name`, in ns.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.ns() as f64).collect()
    }

    /// Median over root spans named `root` of (sum of direct children)
    /// / (root duration). `None` when no such root has a child.
    pub fn coverage(&self, root: &str) -> Option<f64> {
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != NO_PARENT && self.spans[s.parent as usize].name == root {
                *child_ns.entry(s.parent).or_insert(0) += s.ns();
            }
        }
        let shares: Vec<f64> = child_ns
            .iter()
            .filter(|(&p, _)| self.spans[p as usize].ns() > 0)
            .map(|(&p, &c)| c as f64 / self.spans[p as usize].ns() as f64)
            .collect();
        Summary::new(shares).ok().map(|s| s.median())
    }

    /// Write the spans to `<dir>/<workload>.trace.json`; the line to
    /// print about it either way.
    pub fn save(&self, dir: &std::path::Path, workload: &str) -> String {
        let path = dir.join(format!("{workload}.trace.json"));
        match self.write_json(&path) {
            Ok(()) => format!("{} spans written to {}", self.spans.len(), path.display()),
            Err(e) => format!("could not write {}: {e}", path.display()),
        }
    }

    /// Write every span as one JSON array.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == NO_PARENT { "null".to_string() } else { s.parent.to_string() };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameTotals {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn children_nest_under_the_open_span_and_share_the_op_id() {
        let mut t = Tracer::with_capacity(8);
        t.set_op(7);
        t.span("op", |t| {
            t.span("a", |_| spin(200_000));
            t.span("b", |t| t.span("c", |_| spin(100_000)));
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!((s[1].name, s[1].parent), ("a", 0));
        assert_eq!((s[2].name, s[2].parent), ("b", 0));
        assert_eq!((s[3].name, s[3].parent), ("c", 2));
        assert!(s.iter().all(|x| x.op_id == 7 && x.end_ns >= x.start_ns));
        // Children lie inside their parent.
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::with_capacity(8);
        t.span("op", |t| {
            t.span("a", |_| spin(300_000));
            spin(300_000);
        });
        let names = t.by_name();
        let op = names.iter().find(|n| n.name == "op").unwrap();
        let a = names.iter().find(|n| n.name == "a").unwrap();
        assert_eq!(a.self_ns, a.total_ns);
        assert_eq!(op.self_ns, op.total_ns - a.total_ns);
        assert!(op.self_ns >= 300_000);
        let cov = t.coverage("op").unwrap();
        assert!(cov > 0.2 && cov < 0.8, "{cov}");
        assert!(t.coverage("a").is_none(), "a has no children");
    }

    #[test]
    fn writes_parseable_json() {
        let mut t = Tracer::with_capacity(4);
        t.span("op", |t| t.span("a", |_| ()));
        // `out/` is the benchmark's own ignored output directory.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/selftest.trace.json");
        t.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let v: crate::json::Json = serde_json::from_str(&text).unwrap();
        let items = v.array().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].get("name").unwrap().str(), Some("a"));
        assert_eq!(items[1].get("parent").and_then(|n| n.num()), Some(0.0));
        assert!(items[0].get("parent").unwrap().is_null());
    }
}
