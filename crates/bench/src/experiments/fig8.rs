//! Fig. 8 — ITCH end-to-end latency, switch filtering vs subscriber
//! filtering, on the two workloads of §VIII-E.1.
//!
//! Setup mirrored from the paper: the publisher streams the feed at
//! 8.25 Mpps — 90 % of the subscriber's maximum software filtering
//! throughput — and we measure publication→delivery latency of the
//! messages of interest (`stock == GOOGL`).
//!
//! * **baseline** — the switch forwards everything; the subscriber
//!   filters in software. Every message (interesting or not) queues at
//!   the subscriber core, so at 90 % load the tail explodes.
//! * **camus** — the switch (the real [`camus_dataplane`] model,
//!   including recirculation for the batched workload) forwards only
//!   matching messages; the subscriber is nearly idle.
//!
//! NIC microbursts (packets arrive back-to-back at wire speed in
//! groups) provide the burstiness that drives the baseline's tail,
//! matching the paper's DPDK pacing.

use super::Scale;
use crate::baselines::queue::{simulate_fifo, Job, QueueResult};
use crate::output::Table;
use camus_apps::itch::ItchApp;
use camus_dataplane::SwitchConfig;
use camus_workloads::itch::{ItchFeed, ItchFeedConfig, WATCHED};

/// Fixed path costs (ns).
const LINK_NS: f64 = 500.0;
const HOST_RX_NS: f64 = 2_000.0;
const PLAIN_SWITCH_NS: f64 = 600.0;
/// Subscriber filtering capacity (the paper's 8.25 Mpps is 90 % of it).
const SUBSCRIBER_MPPS: f64 = 9.17e6;
const FEED_PPS: f64 = 8.25e6;
/// DPDK burst-train size: the feed replayer transmits packets in
/// back-to-back trains at wire speed (what makes the 90%-load baseline
/// tail explode, as in the paper's 300 µs figure).
const BURST: usize = 1024;

struct WorkloadResult {
    baseline: QueueResult,
    camus: QueueResult,
}

fn arrival_s(packet_idx: usize, pps: f64) -> f64 {
    // Microbursts: groups of BURST packets back-to-back at ~100G wire
    // speed (~7 ns for a small frame), groups spaced for the average
    // rate.
    let group = packet_idx / BURST;
    let within = packet_idx % BURST;
    group as f64 * (BURST as f64 / pps) + within as f64 * 7e-9
}

fn run_workload(cfg: ItchFeedConfig, packets: usize) -> WorkloadResult {
    let app = ItchApp::new();
    let mut switch = app
        .switch(&[ItchApp::subscription(WATCHED, 0, 1)], SwitchConfig::default())
        .expect("fig8 rules compile");
    let mut feed = ItchFeed::new(cfg.clone());
    let service_s = 1.0 / SUBSCRIBER_MPPS;
    // The paper feeds at 90% of the subscriber's *message* filtering
    // capacity; for batched workloads the packet rate scales down by
    // the mean batch size.
    let avg_batch = {
        let mut probe = ItchFeed::new(cfg);
        let sample: usize = probe.packets(2_000).iter().map(Vec::len).sum();
        (sample as f64 / 2_000.0).max(1.0)
    };
    let pps = FEED_PPS / avg_batch;

    // Baseline: every message reaches the subscriber queue; we record
    // the sojourn of the *interesting* ones.
    let mut base_jobs: Vec<Job> = Vec::new();
    let mut base_interesting: Vec<usize> = Vec::new();
    // Camus: the real switch processes each packet; matching messages
    // go to the (idle) subscriber queue.
    let mut camus_jobs: Vec<Job> = Vec::new();

    for i in 0..packets {
        let orders = feed.packet();
        let t_pub = arrival_s(i, pps);
        let plain_path = t_pub + (2.0 * LINK_NS + PLAIN_SWITCH_NS + HOST_RX_NS) * 1e-9;
        for o in &orders {
            if o.stock == WATCHED {
                base_interesting.push(base_jobs.len());
            }
            base_jobs.push(Job { arrival_s: plain_path, service_s });
        }
        // Camus side: real dataplane processing.
        let pkt = app.packet(i as i64, &orders);
        let out = switch.process(&pkt, 0, (t_pub * 1e6) as u64);
        let camus_path = t_pub + (2.0 * LINK_NS + out.latency_ns as f64 + HOST_RX_NS) * 1e-9;
        for (_, copy) in &out.ports {
            for _ in 0..copy.message_count(&app.spec) {
                camus_jobs.push(Job { arrival_s: camus_path, service_s });
            }
        }
    }

    // End-to-end latency = queue sojourn + the path cost folded into
    // the job's arrival time (publish → subscriber ingress).
    let path_s = (2.0 * LINK_NS + PLAIN_SWITCH_NS + HOST_RX_NS) * 1e-9;
    let base_all = simulate_fifo(&base_jobs);
    let baseline = QueueResult {
        sojourn_s: base_interesting.iter().map(|&j| base_all.sojourn_s[j] + path_s).collect(),
    };
    let camus_q = simulate_fifo(&camus_jobs);
    let camus = QueueResult { sojourn_s: camus_q.sojourn_s.iter().map(|s| s + path_s).collect() };
    WorkloadResult { baseline, camus }
}

/// Run the experiment; returns the latency-quantile tables.
pub fn run(scale: Scale) -> Vec<Table> {
    let packets = scale.pick(20_000, 150_000);
    let mut tables = Vec::new();
    for (name, cfg) in [
        ("nasdaq-trace", ItchFeedConfig::nasdaq_trace(8)),
        ("synthetic-batched", ItchFeedConfig::synthetic(8)),
    ] {
        let r = run_workload(cfg, packets);
        let mut t = Table::new(
            &format!("fig8_{name}"),
            &format!("Fig. 8 ({name}): ITCH publication→delivery latency (µs)"),
            &["system", "p50", "p90", "p99", "p99.9", "max", "messages"],
        );
        for (sys, q) in [("baseline", &r.baseline), ("camus", &r.camus)] {
            let us = |quant: f64| format!("{:.1}", q.quantile(quant) * 1e6);
            t.row([
                sys.to_string(),
                us(0.50),
                us(0.90),
                us(0.99),
                us(0.999),
                us(1.0),
                q.sojourn_s.len().to_string(),
            ]);
        }
        tables.push(t);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn camus_beats_baseline_tail_on_both_workloads() {
        for cfg in [ItchFeedConfig::nasdaq_trace(1), ItchFeedConfig::synthetic(1)] {
            let r = run_workload(cfg.clone(), 30_000);
            assert!(!r.baseline.sojourn_s.is_empty());
            assert!(!r.camus.sojourn_s.is_empty());
            // Same number of interesting messages on both sides.
            assert_eq!(r.baseline.sojourn_s.len(), r.camus.sojourn_s.len());
            let b99 = r.baseline.quantile(0.99);
            let c99 = r.camus.quantile(0.99);
            assert!(c99 < b99, "camus p99 {c99:e} must beat baseline p99 {b99:e} ({:?})", cfg);
        }
    }

    #[test]
    fn quick_run_produces_tables() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert_eq!(t.rows.len(), 2);
        }
    }
}
