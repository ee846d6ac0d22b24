//! Property: the batched/coalesced/overlapped controller service is
//! state-equivalent to applying the same churn one op at a time.
//!
//! Random subscribe/unsubscribe streams — including pairs that cancel
//! inside one batching window, which the service elides without
//! compiling — are fed to a [`CamusService`] in its default mode
//! (adaptive windows, overlap and backlog merging), with audit
//! probes riding every commit. The final state must be
//! indistinguishable from (a) the same stream run through the naive
//! one-op-per-transaction service and (b) a from-scratch deploy of
//! the final subscription table: same per-switch rule-list
//! fingerprints, self-consistent installed pipelines, and identical
//! deliveries over a publication matrix that sweeps the filter pool's
//! predicate space: `camus_oracle::same_behaviour`, not the strict
//! `same_tables`, because the service compiles through delta
//! maintenance on live diagrams (the reason is documented there).
//!
//! One run of a schedule, though, is a function of the schedule: the
//! service steps on the caller's thread and merges its backlog on the
//! modelled clock, so two runs of one schedule must agree transaction
//! for transaction and table entry for table entry.

use camus_dataplane::PacketBuilder;
use camus_lang::ast::Expr;
use camus_lang::spec::itch_spec;
use camus_lang::value::Value;
use camus_net::PerfectChannel;
use camus_oracle::{itch_controller, itch_pool, same_behaviour, Publication};
use camus_routing::algorithm1::Policy;
use camus_routing::topology::paper_fat_tree;
use camus_service::{AuditProbe, CamusService, RequestOp, ServiceConfig};
use proptest::prelude::*;

/// One churn event: which host, which pool filter, subscribe or
/// unsubscribe, and how long after the previous event it arrives
/// (gap bucket 0 lands inside the default 500 µs quiet window — that
/// is what makes sub/unsub pairs cancel before they cost a compile).
#[derive(Debug, Clone)]
struct Ev {
    host: usize,
    filter: usize,
    unsub: bool,
    gap: u8,
}

fn arb_ev(hosts: usize, pool: usize) -> impl Strategy<Value = Ev> {
    (0..hosts, 0..pool, any::<bool>(), 0u8..3).prop_map(|(host, filter, unsub, gap)| Ev {
        host,
        filter,
        unsub,
        gap,
    })
}

fn gap_ns(bucket: u8) -> u64 {
    // Scaled to the default windows (500 µs quiet period, 2 ms
    // deadline): inside the quiet period / past it but shorter than
    // the deadline / ten deadlines.
    match bucket {
        0 => 100_000,
        1 => 1_200_000,
        _ => 20_000_000,
    }
}

/// Audit probes: publications whose correct delivery set the service
/// re-proves after every commit.
fn probes() -> Vec<AuditProbe> {
    let spec = itch_spec();
    [
        (0usize, vec![("stock", Value::from("GOOGL")), ("price", Value::Int(30))]),
        (6, vec![("stock", Value::from("MSFT")), ("price", Value::Int(700))]),
    ]
    .into_iter()
    .map(|(publisher, fields)| {
        let packet = PacketBuilder::new(&spec).message(fields.clone()).build();
        let values = fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect::<Vec<_>>();
        AuditProbe { publisher, packet, values }
    })
    .collect()
}

/// Intake's unsubscribe semantics, replicated for the reference
/// mirror: drop the newest equal filter, or soft-reject.
fn mirror_apply(subs: &mut [Vec<Expr>], pool: &[Expr], ev: &Ev) -> bool {
    if ev.unsub {
        match subs[ev.host].iter().rposition(|f| f == &pool[ev.filter]) {
            Some(i) => {
                subs[ev.host].remove(i);
                true
            }
            None => false,
        }
    } else {
        subs[ev.host].push(pool[ev.filter].clone());
        true
    }
}

fn run_service(
    cfg: ServiceConfig,
    initial: &[Vec<Expr>],
    events: &[(Ev, u64)],
    pool: &[Expr],
) -> camus_service::ServiceOutcome {
    let net = paper_fat_tree();
    let ctrl = itch_controller(Policy::TrafficReduction);
    let d = ctrl.deploy(net, initial).expect("initial deploy");
    let mut svc = CamusService::start(ctrl, d, initial.to_vec(), Box::new(PerfectChannel), cfg);
    for (ev, at) in events {
        let op = if ev.unsub {
            RequestOp::Unsubscribe(pool[ev.filter].clone())
        } else {
            RequestOp::Subscribe(pool[ev.filter].clone())
        };
        svc.request(ev.host, op, *at);
    }
    svc.shutdown()
}

/// A matrix sweeping the filter pool's predicate space: every stock in
/// the pool (plus one absent from it) crossed with prices on both
/// sides of each threshold and shares on both sides of the `>= 5` cut.
fn matrix() -> Vec<Publication> {
    let publishers = [0usize, 6, 11];
    let stocks = ["GOOGL", "MSFT", "AAPL", "FB"];
    let prices = [1i64, 15, 30, 75, 120, 501];
    let mut pubs = Vec::new();
    for (si, stock) in stocks.iter().enumerate() {
        for (pi, price) in prices.iter().enumerate() {
            let k = si * prices.len() + pi;
            pubs.push((
                publishers[k % publishers.len()],
                vec![
                    ("stock", Value::from(*stock)),
                    ("price", Value::Int(*price)),
                    ("shares", Value::Int(if k.is_multiple_of(2) { 1 } else { 10 })),
                ],
            ));
        }
    }
    pubs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn batched_service_equals_one_at_a_time(
        seed_adds in proptest::collection::vec((0usize..16, 0usize..9), 0..10),
        churn in proptest::collection::vec(arb_ev(16, 9), 1..16),
    ) {
        let pool = itch_pool();
        let net = paper_fat_tree();
        let hosts = net.host_count();

        let mut initial: Vec<Vec<Expr>> = vec![Vec::new(); hosts];
        for (host, f) in &seed_adds {
            initial[*host].push(pool[*f].clone());
        }

        // Arrival schedule + reference mirror of intake semantics.
        let mut at = 0u64;
        let mut events = Vec::with_capacity(churn.len());
        let mut expected = initial.clone();
        let mut soft_rejects = 0u64;
        for ev in &churn {
            at += gap_ns(ev.gap);
            if !mirror_apply(&mut expected, &pool, ev) {
                soft_rejects += 1;
            }
            events.push((ev.clone(), at));
        }

        // Bucket-0 gaps put several ops in one window, so cancelling
        // pairs meet inside one.
        let batched = run_service(
            ServiceConfig { probes: probes(), ..ServiceConfig::default() },
            &initial,
            &events,
            &pool,
        );
        let naive = run_service(
            ServiceConfig { probes: probes(), ..ServiceConfig::naive() },
            &initial,
            &events,
            &pool,
        );

        for out in [&batched, &naive] {
            prop_assert!(out.errors.is_empty(), "service errors: {:?}", out.errors);
            prop_assert!(out.stats.audit.clean(), "audit violation: {:?}", out.stats.audit);
            prop_assert_eq!(out.rejected_requests.len() as u64, soft_rejects);
            prop_assert_eq!(&out.subs, &expected, "final target state diverges");
        }
        // The naive run never coalesces; the batched run never does
        // *more* transactions than ops.
        prop_assert_eq!(naive.stats.compiles + naive.stats.noops, naive.stats.batches);
        prop_assert!(batched.stats.batches <= naive.stats.batches);

        // Both runs and a from-scratch deploy of the final state must
        // route the same rule lists, each live deployment must run
        // exactly what it compiled, and all three must deliver the
        // matrix identically.
        let mut fresh = itch_controller(Policy::TrafficReduction)
            .deploy(net.clone(), &expected)
            .expect("fresh deploy");
        for (label, mut live) in [("batched", batched.deployment), ("naive", naive.deployment)] {
            for sc in &live.compile.switches {
                prop_assert!(sc.entries > 0, "{}: switch {} compiled empty", label, sc.switch);
            }
            prop_assert_eq!(same_behaviour(&mut live, &mut fresh, &matrix()), Ok(()), "{}", label);
        }
    }

    #[test]
    fn cancelling_churn_is_invisible(
        host in 0usize..16,
        filter in 0usize..9,
        n_pairs in 1usize..4,
    ) {
        // Pure sub/unsub pairs inside one window (5 µs apart, well
        // inside the 500 µs quiet period): the service must commit
        // nothing but noops and end exactly where it started.
        let pool = itch_pool();
        let initial: Vec<Vec<Expr>> = vec![Vec::new(); 16];
        let mut events = Vec::new();
        let mut at = 1_000u64;
        for _ in 0..n_pairs {
            events.push((Ev { host, filter, unsub: false, gap: 0 }, at));
            at += 5_000;
            events.push((Ev { host, filter, unsub: true, gap: 0 }, at));
            at += 5_000;
        }
        let cfg = ServiceConfig { probes: probes(), ..ServiceConfig::default() };
        let out = run_service(cfg, &initial, &events, &pool);
        prop_assert!(out.errors.is_empty(), "{:?}", out.errors);
        prop_assert_eq!(out.stats.compiles, 0, "cancelled churn must not compile");
        prop_assert!(out.stats.noops >= 1);
        prop_assert_eq!(out.stats.cancelled_ops, 2 * n_pairs as u64);
        prop_assert_eq!(&out.subs, &initial);
    }

    #[test]
    fn one_schedule_runs_one_way(
        groups in proptest::collection::vec(proptest::collection::vec(arb_ev(16, 9), 1..5), 1..6),
    ) {
        // The requests of a group arrive at one instant, so each group
        // is one batch window; groups are ten seconds apart, far longer
        // than any window, compile or install. The batches then follow
        // from the stamps alone: two runs of the schedule must agree
        // transaction for transaction and install entry-for-entry
        // identical tables.
        let pool = itch_pool();
        let initial: Vec<Vec<Expr>> = vec![Vec::new(); paper_fat_tree().host_count()];
        let mut events = Vec::new();
        // Accepted requests per group: each group that has any is one
        // transaction.
        let mut mirror = initial.clone();
        let mut per_group = Vec::new();
        for (g, evs) in groups.iter().enumerate() {
            let at = (g as u64 + 1) * 10_000_000_000;
            events.extend(evs.iter().map(|ev| (ev.clone(), at)));
            let accepted = evs.iter().filter(|ev| mirror_apply(&mut mirror, &pool, ev)).count();
            if accepted > 0 {
                per_group.push(accepted);
            }
        }
        let runs = [
            run_service(ServiceConfig::default(), &initial, &events, &pool),
            run_service(ServiceConfig::default(), &initial, &events, &pool),
        ];
        for out in &runs {
            prop_assert!(out.errors.is_empty(), "{:?}", out.errors);
            let ops: Vec<usize> = out.reports.iter().map(|r| r.ops).collect();
            prop_assert_eq!(&ops, &per_group, "one transaction per group");
            prop_assert_eq!(&out.subs, &mirror);
        }
        let shape = |o: &camus_service::ServiceOutcome| -> Vec<(u64, usize, bool, u64, u64)> {
            o.reports
                .iter()
                .map(|r| (r.txn, r.cancelled, r.noop, r.opened_ns, r.closed_ns))
                .collect()
        };
        prop_assert_eq!(shape(&runs[0]), shape(&runs[1]));
        let (a, b) = (&runs[0].deployment, &runs[1].deployment);
        for (s, (x, y)) in a.network.switches.iter().zip(&b.network.switches).enumerate() {
            prop_assert_eq!(x.pipeline(), y.pipeline(), "switch {} differs between runs", s);
        }
    }
}
