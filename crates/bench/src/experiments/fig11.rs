//! Fig. 11 — hICN video streaming: latency for *uncached* content with
//! and without the meter-gated forwarder bypass (§VIII-E.3).
//!
//! Two streaming clients request hot content; a third scans many cold
//! identifiers. Baseline routes everything through the software
//! forwarder; Camus sends only likely-hot requests there. The paper
//! reports a 21 % reduction in 95th-percentile latency for uncached
//! content and ~3 % more forwarder throughput for the hot streams.

use super::Scale;
use crate::output::{fmt_ns, Table};
use camus_apps::hicn::{latency_quantile, run as run_hicn, HicnConfig, Mode, Served};
use camus_workloads::content::{ContentConfig, ContentStream, Request};

/// Build the three-client mix: two hot streams + one cold scanner.
fn workload(total: usize, seed: u64) -> (Vec<Request>, u64) {
    let catalogue = 64;
    let mut s = ContentStream::new(ContentConfig { catalogue, skew: 1.2, gap_ns: 2_500, seed });
    let mut reqs = Vec::with_capacity(total);
    let mut cold_pos = 0u64;
    for i in 0..total {
        if i % 5 == 4 {
            reqs.push(s.next_cold(&mut cold_pos)); // the scanning client
        } else {
            reqs.push(s.next_popular()); // the streaming clients
        }
    }
    (reqs, catalogue as u64)
}

fn split_cold(
    served: &[Served],
    requests: &[Request],
    catalogue: u64,
) -> (Vec<Served>, Vec<Served>) {
    let mut cold = Vec::new();
    let mut hot = Vec::new();
    for (s, r) in served.iter().zip(requests) {
        if r.content_id >= catalogue {
            cold.push(*s);
        } else {
            hot.push(*s);
        }
    }
    (cold, hot)
}

pub fn run(scale: Scale) -> Vec<Table> {
    let total = scale.pick(20_000, 200_000);
    let (reqs, catalogue) = workload(total, 0x11CC);
    let cfg = HicnConfig::default();
    let base = run_hicn(&reqs, Mode::Baseline, cfg.clone());
    let camus = run_hicn(&reqs, Mode::Camus, cfg);

    let mut t = Table::new(
        "fig11",
        "Fig. 11: hICN latency for uncached (cold) content",
        &["system", "cold p50", "cold p95", "cold p99", "forwarder load", "hot hit-rate"],
    );
    for (name, served) in [("baseline", &base), ("camus", &camus)] {
        let (cold, hot) = split_cold(served, &reqs, catalogue);
        let fwd_load = served.iter().filter(|s| s.via_forwarder).count();
        let hot_via: Vec<&Served> = hot.iter().filter(|s| s.via_forwarder).collect();
        let hit_rate = if hot_via.is_empty() {
            0.0
        } else {
            hot_via.iter().filter(|s| s.cache_hit).count() as f64 / hot_via.len() as f64
        };
        t.row([
            name.to_string(),
            fmt_ns(latency_quantile(&cold, 0.50)),
            fmt_ns(latency_quantile(&cold, 0.95)),
            fmt_ns(latency_quantile(&cold, 0.99)),
            format!("{:.1}%", 100.0 * fwd_load as f64 / served.len() as f64),
            format!("{:.1}%", 100.0 * hit_rate),
        ]);
    }
    // The headline number: p95 improvement for cold content.
    let (cold_b, _) = split_cold(&base, &reqs, catalogue);
    let (cold_c, _) = split_cold(&camus, &reqs, catalogue);
    let p95_b = latency_quantile(&cold_b, 0.95) as f64;
    let p95_c = latency_quantile(&cold_c, 0.95) as f64;
    let mut headline =
        Table::new("fig11_headline", "Fig. 11 headline", &["metric", "value", "paper"]);
    headline.row([
        "cold p95 reduction".into(),
        format!("{:.0}%", 100.0 * (1.0 - p95_c / p95_b)),
        "21%".into(),
    ]);
    vec![t, headline]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_p95_improves_meaningfully() {
        let (reqs, catalogue) = workload(30_000, 7);
        let cfg = HicnConfig::default();
        let base = run_hicn(&reqs, Mode::Baseline, cfg.clone());
        let camus = run_hicn(&reqs, Mode::Camus, cfg);
        let (cold_b, _) = split_cold(&base, &reqs, catalogue);
        let (cold_c, _) = split_cold(&camus, &reqs, catalogue);
        let p95_b = latency_quantile(&cold_b, 0.95) as f64;
        let p95_c = latency_quantile(&cold_c, 0.95) as f64;
        let reduction = 1.0 - p95_c / p95_b;
        assert!(reduction > 0.0, "cold p95 must improve: {p95_b} -> {p95_c} ({reduction:.2})");
    }

    #[test]
    fn hot_streams_still_hit_the_cache_under_camus() {
        let (reqs, catalogue) = workload(30_000, 7);
        let camus = run_hicn(&reqs, Mode::Camus, HicnConfig::default());
        let (_, hot) = split_cold(&camus, &reqs, catalogue);
        let via: Vec<_> = hot.iter().filter(|s| s.via_forwarder).collect();
        assert!(!via.is_empty(), "hot requests route to the forwarder");
        let hits = via.iter().filter(|s| s.cache_hit).count();
        assert!(hits * 2 > via.len(), "hot content mostly hits: {hits}/{}", via.len());
    }

    #[test]
    fn quick_run_emits_tables() {
        assert_eq!(run(Scale::Quick).len(), 2);
    }
}
