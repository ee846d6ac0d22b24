//! The Camus ledger benchmark.
//!
//! Four workloads drive the product through its public functions and
//! report what a user of the system would see — packets forwarded per
//! second, time from subscribing to traffic, cold deploy time, memory —
//! checked against a definitional oracle. A separate traced run wraps
//! each layer's public calls in spans for the per-layer numbers. See
//! `benchmark/README.md` for the tables and the reasoning.

pub mod compare;
pub mod digest;
pub mod json;
pub mod mem;
pub mod oracle;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

/// One measured number with its unit and the count of samples behind
/// it (1 for a single reading such as `VmHWM`).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name: name.to_string(), value, unit, samples }
    }
}

/// What the command line selects for one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    /// Scales every pinned op count: a run does `seconds /`
    /// [`RUN_SECONDS`] of the pinned work.
    pub seconds: u32,
    pub trace: bool,
    /// Where the traced run writes `<workload>.trace.json`.
    pub out_dir: PathBuf,
    /// Oracle self-test only: break the system under test so the
    /// oracle has something to catch.
    pub tamper: Tamper,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    None,
    /// `fwd-*`: delete one rule from the installed pipeline.
    DropRule,
    /// `cold-deploy`: drop one host's subscriptions before deploy.
    DropHost,
}

/// What one run of one workload produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations checked against the oracle, and how many differed.
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a of every input generated from the seed.
    pub input_digest: u64,
    /// Untraced run: the workload's own end-to-end rows (README).
    pub end_to_end: Vec<Metric>,
    /// Untraced run: the rows every workload reports
    /// ([`report::CONTRACT`]), derived from `end_to_end`.
    pub contract: Vec<Metric>,
    /// Traced run: per-layer rows.
    pub per_layer: Vec<Metric>,
    /// Traced run: span names by self time, largest first.
    pub self_time: Vec<trace::NameTotals>,
    /// Facts about the run worth a line in the output.
    pub notes: Vec<String>,
}

/// `BENCHMARK.json`'s `run_seconds`: the `--seconds` the op counts are
/// pinned for. Work is fixed by count, never by the clock, so both
/// sides of a comparison do identical work; on the reference host the
/// pinned counts keep a run's timed region between 8 and 25 seconds.
pub const RUN_SECONDS: u32 = 20;

/// `count` pinned for [`RUN_SECONDS`], scaled to `seconds`; at least
/// `floor`.
pub fn scaled(count: usize, seconds: u32, floor: usize) -> usize {
    ((count as u64 * seconds as u64).div_ceil(RUN_SECONDS as u64) as usize).max(floor)
}

/// The rows every workload reports, from its own: set-up time, its
/// operations per second, the median time of its unit of work in
/// microseconds (each a value and the samples behind it), and peak
/// resident memory.
pub fn contract_rows(
    setup: &Metric,
    ops_per_s: (f64, usize),
    op_p50_us: (f64, usize),
) -> Vec<Metric> {
    vec![
        setup.clone(),
        Metric::new("ops_per_s", ops_per_s.0, "1/s", ops_per_s.1),
        Metric::new("op_p50_us", op_p50_us.0, "us", op_p50_us.1),
        Metric::new("peak_rss_mb", mem::peak_rss_mb(), "MB", 1),
    ]
}
