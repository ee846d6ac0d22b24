//! Crash recovery: what a controller restart costs, and what the WAL
//! costs while nothing is crashing.
//!
//! **Recovery cost** (`results/recovery.csv`): a seeded Poisson churn
//! stream runs against the 72-switch churn testbed with the WAL on,
//! the controller is killed mid-stream (no drain, no flush), and
//! [`CamusService::recover`] rebuilds it from the log. Measured per
//! (snapshot cadence × ops) cell: log length, replayed tail, host
//! wall-clock recovery time and modelled control-plane time of the
//! reconcile + reinstall transaction. The cadence sweep is the point:
//! snapshots bound the replay tail, so recovery time flattens as the
//! cadence tightens while the never-snapshot column degrades with log
//! length. Every recovered controller must converge — its recompiled
//! fingerprints are checked against a fresh deploy of the same
//! subscription state.
//!
//! **WAL overhead** (`"recovery"` in `BENCH_throughput.json`): the
//! same churn stream is fed to the batched service lane (PR-7's
//! configuration) in `PAIRS` alternated volatile / write-ahead logged
//! pairs, and the median pair's logged sustained accepted-ops/second
//! must stay within 10% of its volatile lane; the table reports that
//! pair. The log is append-only text with no sync barrier, so the
//! cost is one formatted line per accepted request plus a snapshot
//! per cadence; the assertion pins that it stays noise-level.

use super::churn::{churn_net, spread_subscriptions};
use super::service::generator;
use super::Scale;
use crate::output::Table;
use camus_core::statics::compile_static;
use camus_net::controller::Controller;
use camus_net::PerfectChannel;
use camus_routing::algorithm1::{Policy, RoutingConfig};
use camus_service::{CamusService, RequestOp, ServiceConfig, ServiceOutcome, Wal};
use camus_workloads::churn::{ChurnConfig, ChurnOp, PoissonChurn};

/// Volatile / logged lane pairs behind the WAL-overhead verdict.
const PAIRS: usize = 5;

struct Harness {
    ctrl: Controller,
    events: Vec<(usize, RequestOp, u64)>,
    initial: Vec<Vec<camus_lang::ast::Expr>>,
}

/// One seeded workload shared by every lane and cell: same initial
/// spread, same churn schedule, so rows differ only in durability
/// settings.
fn harness(scale: Scale, ops: usize) -> Harness {
    let net = churn_net();
    let mut g = generator(0xC4A2);
    let initial = spread_subscriptions(&mut g, &net, scale.pick(256, 1_000));
    let statics = compile_static(&g.spec()).expect("siena spec compiles");
    let ctrl = Controller::new(statics, RoutingConfig::new(Policy::MemoryReduction));
    let mut churn = PoissonChurn::new(
        ChurnConfig { rate_per_s: 4_000.0, unsubscribe_fraction: 0.3, seed: 0x5EED },
        net.host_count(),
        &initial,
    );
    let events = churn
        .schedule(&mut g, ops)
        .into_iter()
        .map(|ev| {
            let op = match ev.op {
                ChurnOp::Subscribe(f) => RequestOp::Subscribe(f),
                ChurnOp::Unsubscribe(f) => RequestOp::Unsubscribe(f),
            };
            (ev.host, op, ev.at_ns)
        })
        .collect();
    Harness { ctrl, events, initial }
}

fn start(h: &Harness, cfg: ServiceConfig) -> CamusService {
    let ctrl = h.ctrl.clone();
    let deployment = ctrl.deploy(churn_net(), &h.initial).expect("initial deploy");
    CamusService::start(ctrl, deployment, h.initial.clone(), Box::new(PerfectChannel), cfg)
}

fn feed(svc: &mut CamusService, events: &[(usize, RequestOp, u64)]) {
    for (host, op, at_ns) in events {
        svc.request(*host, op.clone(), *at_ns);
    }
}

/// Feed in chunks with a drain between each, so the run commits many
/// transactions instead of coalescing the whole stream into one or
/// two — the snapshot cadence only has something to count against a
/// multi-transaction history. The last chunk stays undrained: the
/// kill lands with work in flight.
fn feed_chunked(svc: &mut CamusService, events: &[(usize, RequestOp, u64)], chunks: usize) {
    let size = events.len().div_ceil(chunks).max(1);
    let mut it = events.chunks(size).peekable();
    while let Some(chunk) = it.next() {
        feed(svc, chunk);
        if it.peek().is_some() {
            svc.drain();
        }
    }
}

/// Modelled sustained accepted-ops/second, as the `service` experiment
/// computes it.
fn sustained_per_s(out: &ServiceOutcome, first_arrival: u64) -> f64 {
    let last_deployed =
        out.reports.iter().map(|r| r.deployed_ns).max().unwrap_or(first_arrival + 1);
    let span_ns = last_deployed.saturating_sub(first_arrival).max(1);
    out.stats.accepted as f64 / span_ns as f64 * 1e9
}

pub fn run(scale: Scale) -> Vec<Table> {
    // --- Recovery cost vs log length × snapshot cadence ---
    let mut t = Table::new(
        "recovery",
        "Controller recovery: WAL replay + staged reconciliation cost",
        &[
            "snapshot_every",
            "ops",
            "wal_lines",
            "snapshots",
            "tail_replayed",
            "recover_ms",
            "control_ms",
            "rolled_forward",
            "aborted",
            "finalized",
            "reverted",
            "reinstalled",
        ],
    );

    let op_sizes = scale.pick(vec![60, 120], vec![200, 600]);
    let cadences: &[u64] = &[0, 1, 4, 16];
    for &ops in &op_sizes {
        let h = harness(scale, ops);
        for &cadence in cadences {
            let wal = Wal::in_memory();
            let cfg = ServiceConfig {
                wal: Some(wal.clone()),
                snapshot_every: cadence,
                ..ServiceConfig::default()
            };
            let mut svc = start(&h, cfg);
            feed_chunked(&mut svc, &h.events, 8);
            let wreck = svc.kill();
            assert!(wreck.errors.is_empty(), "churn run failed: {:?}", wreck.errors);

            let t0 = std::time::Instant::now();
            let (svc, rec) = CamusService::recover(
                h.ctrl.clone(),
                wreck.deployment.network,
                wal.clone(),
                Box::new(PerfectChannel),
                ServiceConfig::default(),
            )
            .expect("recovery over a perfect channel must commit");
            let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
            let out = svc.shutdown();
            assert!(out.errors.is_empty(), "recovered service failed: {:?}", out.errors);

            // Convergence rider: the recovered controller's compiled
            // fingerprints match a fresh deploy of the same state.
            let fresh = h.ctrl.deploy(churn_net(), &out.subs).expect("reference deploy");
            let fp = |o: &camus_net::controller::Deployment| -> Vec<(usize, u64)> {
                o.compile.switches.iter().map(|s| (s.switch, s.fingerprint)).collect()
            };
            assert_eq!(
                fp(&out.deployment),
                fp(&fresh),
                "recovered state diverged (cadence {cadence})"
            );

            t.row([
                cadence.to_string(),
                ops.to_string(),
                rec.wal_lines.to_string(),
                wreck.stats.snapshots.to_string(),
                rec.tail_replayed.to_string(),
                format!("{recover_ms:.2}"),
                format!("{:.3}", rec.control_ns as f64 / 1e6),
                rec.reconcile.rolled_forward.to_string(),
                rec.reconcile.aborted.to_string(),
                rec.reconcile.finalized.to_string(),
                rec.reconcile.reverted.to_string(),
                rec.reconcile.reinstalled.to_string(),
            ]);
        }
    }

    // --- WAL overhead vs the volatile batched lane ---
    let ops = scale.pick(120, 600);
    let h = harness(scale, ops);
    let first_arrival = h.events.first().map(|e| e.2).unwrap_or(0);

    let lane = |wal: Option<Wal>| -> (ServiceOutcome, f64, f64) {
        let cfg = ServiceConfig { wal, snapshot_every: 8, ..ServiceConfig::default() };
        let wall = std::time::Instant::now();
        let mut svc = start(&h, cfg);
        feed(&mut svc, &h.events);
        let out = svc.shutdown();
        let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
        assert!(out.errors.is_empty(), "lane failed: {:?}", out.errors);
        let per_s = sustained_per_s(&out, first_arrival);
        (out, per_s, wall_ms)
    };
    // One wall-clock sample per lane is at the mercy of whatever else
    // the host runs; alternated pairs see the same noise on both lanes,
    // and the verdict is the median pair's overhead.
    let mut pairs: Vec<_> = (0..PAIRS)
        .map(|_| {
            let volatile = lane(None);
            let wal = Wal::in_memory();
            let logged = lane(Some(wal.clone()));
            // Identical churn, identical batching: the logged lane must
            // accept and commit exactly what the volatile lane did.
            assert_eq!(logged.0.stats.accepted, volatile.0.stats.accepted);
            let overhead_pct = (1.0 - logged.1 / volatile.1.max(1e-9)) * 100.0;
            (overhead_pct, volatile, logged, wal)
        })
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (
        overhead_pct,
        (volatile_out, volatile_per_s, volatile_wall),
        (logged_out, logged_per_s, logged_wall),
        logged_wal,
    ) = pairs.swap_remove(PAIRS / 2);
    assert!(
        overhead_pct <= 10.0,
        "median-pair WAL overhead {overhead_pct:.1}% exceeds the 10% budget \
         (volatile {volatile_per_s:.0}/s, logged {logged_per_s:.0}/s)"
    );

    let mut o = Table::new(
        "recovery_overhead",
        "WAL overhead: batched churn lane, volatile vs write-ahead logged",
        &["mode", "ops", "accepted", "wal_lines", "snapshots", "sustained_per_s", "wall_ms"],
    );
    for (mode, out, per_s, wall_ms, lines) in [
        ("volatile", &volatile_out, volatile_per_s, volatile_wall, 0usize),
        ("wal", &logged_out, logged_per_s, logged_wall, logged_wal.len()),
    ] {
        o.row([
            mode.to_string(),
            ops.to_string(),
            out.stats.accepted.to_string(),
            lines.to_string(),
            out.stats.snapshots.to_string(),
            format!("{per_s:.0}"),
            format!("{wall_ms:.0}"),
        ]);
    }

    o.bench_json.push((
        "recovery".to_string(),
        format!(
            "{{\"volatile_subs_per_s\": {volatile_per_s:.0}, \
             \"wal_subs_per_s\": {logged_per_s:.0}, \
             \"wal_overhead_pct\": {overhead_pct:.2}, \
             \"snapshots\": {}, \"wal_lines\": {}}}",
            logged_out.stats.snapshots,
            logged_wal.len(),
        ),
    ));

    vec![t, o]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_recovers_and_stays_under_the_wal_budget() {
        // run() asserts internally: every recovered controller's
        // fingerprints match a fresh deploy, and WAL overhead <= 10%.
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 8, "2 op sizes x 4 cadences");
        assert_eq!(tables[1].rows.len(), 2);
    }
}
