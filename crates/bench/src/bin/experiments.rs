//! The experiment runner: regenerates every table and figure of the
//! paper's evaluation.
//!
//! ```text
//! cargo run --release -p camus-bench --bin experiments -- all
//! cargo run --release -p camus-bench --bin experiments -- fig12 fig13
//! cargo run --release -p camus-bench --bin experiments -- --quick all
//! ```
//!
//! Results print as aligned tables and are persisted as CSV under
//! `results/`.

use camus_bench::experiments::{self, Scale};

/// Heap accounting for the `scale` experiment's memory columns: the
/// runner pays the (tiny) atomic-counter overhead so every experiment
/// can report allocation high-water marks.
#[global_allocator]
static ALLOC: camus_bench::mem::CountingAlloc = camus_bench::mem::CountingAlloc;

const IDS: &[&str] = &[
    "fig8",
    "fig9",
    "fig11",
    "fig12",
    "tab1",
    "fig13",
    "fig14",
    "fig15",
    "churn",
    "scale",
    "service",
    "faults",
    "chaos",
    "throughput",
    "telemetry",
    "recovery",
];

fn run_one(id: &str, scale: Scale) -> bool {
    let t0 = std::time::Instant::now();
    let tables = match id {
        "fig8" => experiments::fig8::run(scale),
        "fig9" => experiments::fig9::run(scale),
        "fig11" => experiments::fig11::run(scale),
        "fig12" => experiments::fig12::run(scale),
        "tab1" => experiments::tab1::run(scale),
        "fig13" => experiments::fig13::run(scale),
        "fig14" => experiments::fig14::run(scale),
        "fig15" => experiments::fig15::run(scale),
        "churn" => experiments::churn::run(scale),
        "scale" => experiments::scale::run(scale),
        "service" => experiments::service::run(scale),
        "faults" => experiments::faults::run(scale),
        "chaos" => experiments::chaos::run(scale),
        "throughput" => experiments::throughput::run(scale),
        "telemetry" => experiments::telemetry::run(scale),
        "recovery" => experiments::recovery::run(scale),
        _ => return false,
    };
    // The one place results are printed and persisted.
    for table in &tables {
        table.emit();
    }
    eprintln!("[{id}] done in {:.1?}\n", t0.elapsed());
    !tables.is_empty()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let targets: Vec<&str> =
        args.iter().filter(|a| !a.starts_with('-')).map(|s| s.as_str()).collect();
    if targets.is_empty() {
        eprintln!("usage: experiments [--quick] <all|{}>", IDS.join("|"));
        std::process::exit(2);
    }
    let list: Vec<&str> = if targets.contains(&"all") { IDS.to_vec() } else { targets };
    for id in list {
        if !run_one(id, scale) {
            eprintln!("unknown experiment `{id}`; available: all {}", IDS.join(" "));
            std::process::exit(2);
        }
    }
}
