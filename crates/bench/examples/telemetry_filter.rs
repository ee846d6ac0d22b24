//! In-network telemetry analytics (§VIII-C.2): filter an INT report
//! stream for anomalous events on the switch, and compare against the
//! software alternatives of Fig. 9.
//!
//! ```sh
//! cargo run --release -p camus-bench --example telemetry_filter
//! ```

use camus_apps::telemetry::IntApp;
use camus_bench::baselines::cost::CostModel;
use camus_dataplane::SwitchConfig;
use camus_workloads::int::{IntFeed, IntFeedConfig};

fn main() {
    let app = IntApp::new();
    // The paper's example filter: high-latency events at one switch,
    // plus a queue-occupancy watch from a second consumer.
    let rules = vec![
        IntApp::latency_filter(2, 100, 1),
        camus_lang::parser::parse_rule("q_occupancy > 450: fwd(2)").unwrap(),
    ];
    println!("filters installed on the switch:");
    for r in &rules {
        println!("  {r}");
    }
    let mut switch = app.switch(&rules, SwitchConfig::default()).expect("compiles");

    // Stream a telemetry feed through the switch.
    let mut feed = IntFeed::new(IntFeedConfig::default());
    let n = 200_000;
    let t0 = std::time::Instant::now();
    let mut matched = 0usize;
    for (i, report) in feed.reports(n).iter().enumerate() {
        let out = switch.process(&app.packet(report), 0, i as u64);
        matched += usize::from(!out.ports.is_empty());
    }
    let dt = t0.elapsed();
    println!(
        "\nswitch filtered {n} reports in {dt:?} \
         ({:.2} M reports/s through the software model)",
        n as f64 / dt.as_secs_f64() / 1e6
    );
    println!(
        "matched {matched} ({:.2}%) — the collector sees only anomalies",
        100.0 * matched as f64 / n as f64
    );

    // Fig. 9's comparison at various filter counts.
    let model = CostModel::default();
    println!("\nachievable throughput vs #filters (Fig. 9 cost models):");
    println!("{:>10} {:>12} {:>12} {:>12}", "filters", "plain C", "DPDK", "Camus");
    for filters in [1usize, 100, 10_000, 100_000] {
        println!(
            "{:>10} {:>9.1} M {:>9.1} M {:>9.1} M",
            filters,
            model.c_pps(filters) / 1e6,
            model.dpdk_pps(filters) / 1e6,
            model.camus_pps(filters) / 1e6,
        );
    }
    println!("\nthe switch holds filters in hardware tables: line rate, flat.");
}
