//! The metric tables, and a run's printed and machine-readable form.
//!
//! Three tables live here so the code, `BENCHMARK.json` and the README
//! cannot drift apart silently (`tests/contract.rs` checks the first
//! two against the JSON):
//!
//! * [`CONTRACT`] — the end-to-end metrics every workload reports, the
//!   ones `BENCHMARK.json` names and the driver gates on;
//! * [`WORKLOAD_ROWS`] — each workload's own end-to-end rows in their
//!   natural units, from which the contract metrics are derived;
//! * [`PER_LAYER`] — the traced run's per-layer metrics.

use crate::digest;
use crate::json::Json;
use crate::{Metric, Outcome};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
    /// Workloads that report it; empty means all.
    pub workloads: &'static [&'static str],
}

const fn row(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    workloads: &'static [&'static str],
) -> MetricDef {
    MetricDef { name, unit, better, bound, workloads }
}

use Better::{Higher, Lower};

const FWD: &[&str] = &["fwd-int", "fwd-itch-fanout"];
const CHURN: &[&str] = &["churn-burst"];
const COLD: &[&str] = &["cold-deploy"];

/// What every workload reports. A workload's *operation* is a packet
/// (`fwd-*`), a subscribe/unsubscribe request (`churn-burst`) or a
/// subscription deployed (`cold-deploy`).
pub const CONTRACT: [MetricDef; 4] = [
    row("setup_s", "s", Lower, 0.25, &[]),
    row("ops_per_s", "1/s", Higher, 0.25, &[]),
    row("op_p50_us", "us", Lower, 0.25, &[]),
    row("peak_rss_mb", "MB", Lower, 0.10, &[]),
];

/// Each workload's own rows, in the units a reader expects.
pub const WORKLOAD_ROWS: [MetricDef; 9] = [
    row("setup_s", "s", Lower, 0.10, &[]),
    row("pkt_mpps", "Mpkt/s", Higher, 0.05, FWD),
    row("pkt_ns_p50", "ns", Lower, 0.05, FWD),
    row("pkt_ns_p99", "ns", Lower, 0.10, FWD),
    row("sub_ttt_ms_p50", "ms", Lower, 0.07, CHURN),
    row("sub_ttt_ms_p95", "ms", Lower, 0.10, CHURN),
    row("sub_ops_per_s", "ops/s", Higher, 0.07, CHURN),
    row("cold_deploy_s", "s", Lower, 0.07, COLD),
    row("peak_rss_mb", "MB", Lower, 0.05, &[]),
];

/// The traced run's rows: `(name, unit, better)`. A layer a workload
/// never calls into was busy for zero time and did zero work there.
pub const PER_LAYER: [(&str, &str, Better); 53] = [
    ("lang.parse_us", "us", Lower),
    ("routing.route_ms", "ms", Lower),
    ("routing.rules_ms", "ms", Lower),
    ("routing.fingerprint_ms", "ms", Lower),
    ("routing.compile_ms", "ms", Lower),
    ("routing.recompiled", "count", Lower),
    ("routing.reused", "count", Higher),
    ("routing.distinct_compiles", "count", Lower),
    ("routing.cache_hit_ratio", "ratio", Higher),
    ("bdd.build_ms", "ms", Lower),
    ("bdd.maintain_us", "us", Lower),
    ("bdd.snapshot_ms", "ms", Lower),
    ("bdd.live_nodes", "count", Lower),
    ("bdd.peak_alloc_nodes", "count", Lower),
    ("bdd.gc_runs", "count", Lower),
    ("core.emit_ms", "ms", Lower),
    ("core.lower_ms", "ms", Lower),
    ("core.dispatch_ns", "ns", Lower),
    ("core.table_entries", "count", Lower),
    ("core.sram_bits_per_sub", "bits", Lower),
    ("core.tcam_bits_per_sub", "bits", Lower),
    ("dataplane.process_ns", "ns", Lower),
    ("dataplane.extract_ns", "ns", Lower),
    ("dataplane.action_ns", "ns", Lower),
    ("dataplane.reference_ns", "ns", Lower),
    ("dataplane.install_us", "us", Lower),
    ("dataplane.msgs_per_pkt", "count", Lower),
    ("dataplane.copies_per_pkt", "count", Lower),
    ("dataplane.deep_copies_per_pkt", "count", Lower),
    ("dataplane.shared_copy_ratio", "ratio", Higher),
    ("dataplane.entries_scanned_per_msg", "count", Lower),
    ("dataplane.recirc_per_pkt", "count", Lower),
    ("dataplane.allocs_per_pkt", "count", Lower),
    ("dataplane.alloc_bytes_per_pkt", "B", Lower),
    ("telemetry.overhead_pct", "%", Lower),
    ("net.install_ms", "ms", Lower),
    ("net.publish_us", "us", Lower),
    ("net.reinstalled", "count", Lower),
    ("net.control_ops", "count", Lower),
    ("net.events_per_publish", "count", Lower),
    ("service.compile_ms", "ms", Lower),
    ("service.wait_ms", "ms", Lower),
    ("service.window_ms", "ms", Lower),
    ("service.overhead_ms", "ms", Lower),
    ("service.batches", "count", Lower),
    ("service.compiles", "count", Lower),
    ("service.noops", "count", Higher),
    ("service.cancelled_ops", "count", Higher),
    ("mem.peak_heap_mb", "MB", Lower),
    ("mem.heap_kb_per_sub", "KB", Lower),
    ("mem.allocs_per_txn", "count", Lower),
    ("trace.coverage", "ratio", Higher),
    ("trace.overhead_pct", "%", Lower),
];

/// One run, as the one command stores it and `compare` reads it back.
#[derive(Debug, Clone)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
    pub outcome: Outcome,
}

fn metric_json(m: &Metric) -> Json {
    Json::object(vec![
        ("name", Json::text(&m.name)),
        ("value", Json::float(m.value)),
        ("unit", Json::text(m.unit)),
        ("samples", Json::uint(m.samples as u64)),
    ])
}

impl Record {
    /// The metrics the contract asks for in this mode: every
    /// [`CONTRACT`] metric untraced, every [`PER_LAYER`] metric traced.
    pub fn contract_metrics(&self) -> Vec<Metric> {
        if self.trace {
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| {
                    self.outcome
                        .per_layer
                        .iter()
                        .find(|m| m.name == name)
                        .cloned()
                        .unwrap_or(Metric::new(name, 0.0, unit, 0))
                })
                .collect()
        } else {
            self.outcome.contract.clone()
        }
    }

    /// The last line of a run's standard output: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .contract_metrics()
            .into_iter()
            .map(|m| {
                let body = vec![("value", Json::float(m.value)), ("unit", Json::text(m.unit))];
                (m.name, Json::object(body))
            })
            .collect();
        Json::object(vec![
            ("correct", Json::boolean(self.outcome.failed == 0)),
            ("attempted", Json::uint(self.outcome.attempted)),
            ("failed", Json::uint(self.outcome.failed)),
            ("metrics", Json::object::<String>(metrics)),
        ])
        .render()
    }

    /// Everything about the run, for `results.json`.
    pub fn to_json(&self) -> Json {
        let o = &self.outcome;
        Json::object(vec![
            ("workload", Json::text(&self.workload)),
            ("seed", Json::uint(self.seed)),
            ("seconds", Json::uint(self.seconds as u64)),
            ("trace", Json::boolean(self.trace)),
            ("input_digest", Json::text(&digest::hex(o.input_digest))),
            ("ops_attempted", Json::uint(o.attempted)),
            ("ops_failed", Json::uint(o.failed)),
            ("end_to_end", Json::list(o.end_to_end.iter().map(metric_json).collect())),
            ("contract", Json::list(o.contract.iter().map(metric_json).collect())),
            ("per_layer", Json::list(o.per_layer.iter().map(metric_json).collect())),
            (
                "self_time",
                Json::list(
                    o.self_time
                        .iter()
                        .map(|t| {
                            Json::object(vec![
                                ("name", Json::text(t.name)),
                                ("calls", Json::uint(t.calls)),
                                ("total_ns", Json::uint(t.total_ns)),
                                ("self_ns", Json::uint(t.self_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name with its unit and sample count, then the
    /// op accounting.
    pub fn print(&self, pinned_digest: Option<&str>) {
        let o = &self.outcome;
        println!(
            "== {} (seed {:#x}, --seconds {}, {}) ==",
            self.workload,
            self.seed,
            self.seconds,
            if self.trace { "traced" } else { "untraced" }
        );
        for note in &o.notes {
            println!("note: {note}");
        }
        let hex = digest::hex(o.input_digest);
        match pinned_digest {
            Some(p) if p == hex => println!("input_digest {hex} (matches the pinned digest)"),
            Some(p) => println!("input_digest {hex} (PINNED {p}: MISMATCH)"),
            None => println!("input_digest {hex} (not the pinned seed and scale: not checked)"),
        }
        let row = |m: &Metric| {
            println!("  {:<34} {:>18.6} {:<7} n={}", m.name, m.value, m.unit, m.samples)
        };
        if self.trace {
            println!("per-layer (layers this workload never calls read 0, n=0):");
            self.contract_metrics().iter().for_each(row);
            println!("self time by span name:");
            for t in &o.self_time {
                println!(
                    "  {:<34} {:>14.3} ms self {:>14.3} ms total  calls={}",
                    t.name,
                    t.self_ns as f64 / 1e6,
                    t.total_ns as f64 / 1e6,
                    t.calls
                );
            }
        } else {
            println!("end-to-end:");
            o.end_to_end.iter().for_each(row);
            println!("end-to-end, as every workload reports it (BENCHMARK.json):");
            o.contract.iter().for_each(row);
        }
        println!("ops_attempted {} ops_failed {}", o.attempted, o.failed);
    }
}

/// Parse one record back from `results.json`; only the fields
/// `compare` reads.
pub struct StoredRun {
    pub workload: String,
    pub trace: bool,
    pub failed: u64,
    /// `(name, value)` of the workload's rows and the contract rows.
    pub metrics: Vec<(String, f64)>,
}

impl StoredRun {
    pub fn from_json(j: &Json) -> Option<StoredRun> {
        let mut metrics = Vec::new();
        for key in ["end_to_end", "contract"] {
            for m in j.get(key)?.array()? {
                let name = m.get("name")?.str()?.to_string();
                if !metrics.iter().any(|(n, _)| *n == name) {
                    metrics.push((name, m.get("value")?.num()?));
                }
            }
        }
        Some(StoredRun {
            workload: j.get("workload")?.str()?.to_string(),
            trace: j.get("trace")?.bool()?,
            failed: j.get("ops_failed")?.num()? as u64,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(trace: bool) -> Record {
        Record {
            workload: "fwd-int".into(),
            seed: 1,
            seconds: 10,
            trace,
            outcome: Outcome {
                attempted: 10,
                failed: 0,
                contract: CONTRACT.iter().map(|d| Metric::new(d.name, 1.5, d.unit, 3)).collect(),
                end_to_end: vec![Metric::new("pkt_mpps", 20.5, "Mpkt/s", 150)],
                per_layer: vec![Metric::new("core.dispatch_ns", 12.25, "ns", 100)],
                ..Outcome::default()
            },
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let j = Json::parse(&record(false).contract_line()).unwrap();
        let keys: Vec<String> = j.members().unwrap().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = j.get("metrics").unwrap().members().unwrap();
        assert_eq!(
            metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            CONTRACT.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        assert_eq!(metrics[0].1.get("unit").unwrap().str(), Some("s"));
    }

    #[test]
    fn traced_line_lists_every_layer_metric_with_zero_for_idle_layers() {
        let j = Json::parse(&record(true).contract_line()).unwrap();
        let metrics = j.get("metrics").unwrap().members().unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        let get =
            |n: &str| metrics.iter().find(|(k, _)| k == n).unwrap().1.get("value").unwrap().num();
        assert_eq!(get("core.dispatch_ns"), Some(12.25));
        assert_eq!(get("service.batches"), Some(0.0));
    }

    #[test]
    fn stored_run_round_trips_the_metrics_compare_needs() {
        let run = StoredRun::from_json(&record(false).to_json()).unwrap();
        assert_eq!(run.workload, "fwd-int");
        assert!(!run.trace);
        assert_eq!(run.failed, 0);
        assert!(run.metrics.contains(&("pkt_mpps".to_string(), 20.5)));
        assert!(run.metrics.contains(&("ops_per_s".to_string(), 1.5)));
    }

    #[test]
    fn tables_are_well_formed() {
        for (name, unit, _) in PER_LAYER {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
        }
        let mut names: Vec<&str> = PER_LAYER.iter().map(|p| p.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len(), "per-layer names are unique");
        assert!(CONTRACT.iter().all(|d| d.bound <= 0.25 && d.workloads.is_empty()));
        let setup = CONTRACT.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(CONTRACT.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
    }
}
