//! Property: crashing the controller at an arbitrary point in an
//! arbitrary churn schedule — then recovering from the WAL and
//! finishing the schedule — is observationally equivalent to never
//! having crashed at all.
//!
//! "Observationally equivalent" is checked on every surface a client
//! or a switch can see: the final target subscription state, the
//! per-switch compiled fingerprints, that each switch runs the pipeline
//! its controller compiled, and what every host receives over a
//! publication matrix sweeping the filter pool's predicate space.
//! The snapshot cadence is part of the generated input, so the
//! property also pins that cadence only changes recovery *cost*,
//! never recovered *state*; and the WAL itself must be idempotent
//! under double replay.

use camus_lang::ast::Expr;
use camus_lang::parser::parse_expr;
use camus_lang::value::Value;
use camus_net::PerfectChannel;
use camus_oracle::{itch_controller, same_behaviour, Publication};
use camus_routing::algorithm1::Policy;
use camus_routing::topology::paper_fat_tree;
use camus_service::{CamusService, ServiceConfig, Wal};
use proptest::prelude::*;

fn filters() -> Vec<Expr> {
    ["price > 10", "price > 50", "stock == GOOGL", "stock == MSFT", "shares >= 5"]
        .iter()
        .map(|s| parse_expr(s).unwrap())
        .collect()
}

/// One generated churn step: which host, subscribe or unsubscribe,
/// which filter from the pool, and the model-time gap to the previous
/// step (spanning both within-window and window-splitting gaps).
type Step = (usize, bool, usize, u64);

fn arb_schedule(hosts: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0..hosts, any::<bool>(), 0..5usize, 1_000..3_000_000u64), 1..24)
}

fn start_service(cfg: ServiceConfig) -> CamusService {
    let net = paper_fat_tree();
    let subs = vec![Vec::new(); net.host_count()];
    let ctrl = itch_controller(Policy::TrafficReduction);
    let d = ctrl.deploy(net, &subs).unwrap();
    CamusService::start(ctrl, d, subs, Box::new(PerfectChannel), cfg)
}

fn feed(svc: &mut CamusService, steps: &[Step], pool: &[Expr], t: &mut u64) {
    for &(host, sub, fi, dt) in steps {
        *t += dt;
        if sub {
            svc.subscribe(host, pool[fi].clone(), *t);
        } else {
            // May be a soft reject (host holds no such filter) — that
            // is part of the property: rejects replay as the same
            // no-ops.
            svc.unsubscribe(host, pool[fi].clone(), *t);
        }
    }
}

/// A matrix sweeping the pool's predicate space: every stock in the
/// pool plus one absent from it, prices on both sides of each
/// threshold, shares on both sides of the `>= 5` cut, from three
/// publishers.
fn matrix() -> Vec<Publication> {
    let publishers = [0usize, 6, 11];
    let mut pubs = Vec::new();
    for stock in ["GOOGL", "MSFT", "AAPL"] {
        for price in [5i64, 20, 75] {
            for shares in [1i64, 10] {
                let fields = vec![
                    ("stock", Value::from(stock)),
                    ("price", Value::Int(price)),
                    ("shares", Value::Int(shares)),
                ];
                pubs.push((publishers[pubs.len() % publishers.len()], fields));
            }
        }
    }
    pubs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn crash_anywhere_recover_equals_never_crashed(
        schedule in arb_schedule(paper_fat_tree().host_count()),
        crash_at in 0usize..1024,
        snapshot_every in 0u64..4,
    ) {
        let pool = filters();
        // The crash point may land before or after the whole schedule.
        let k = crash_at % (schedule.len() + 1);

        // Oracle: the same schedule through a never-crashed service.
        let mut oracle = start_service(ServiceConfig::default());
        let mut t = 0u64;
        feed(&mut oracle, &schedule, &pool, &mut t);
        let oracle_out = oracle.shutdown();
        prop_assert!(oracle_out.errors.is_empty(), "{:?}", oracle_out.errors);

        // Subject: crash after k requests, recover from the WAL,
        // finish the schedule.
        let wal = Wal::in_memory();
        let cfg = ServiceConfig {
            wal: Some(wal.clone()),
            snapshot_every,
            ..ServiceConfig::default()
        };
        let mut svc = start_service(cfg);
        let mut t = 0u64;
        feed(&mut svc, &schedule[..k], &pool, &mut t);
        let wreck = svc.kill();
        prop_assert!(wreck.errors.is_empty(), "{:?}", wreck.errors);

        let (mut svc, _stats) = CamusService::recover(
            itch_controller(Policy::TrafficReduction),
            wreck.deployment.network,
            wal.clone(),
            Box::new(PerfectChannel),
            ServiceConfig::default(),
        ).expect("recovery over a perfect channel must commit");
        feed(&mut svc, &schedule[k..], &pool, &mut t);
        let out = svc.shutdown();
        prop_assert!(out.errors.is_empty(), "{:?}", out.errors);
        prop_assert_eq!(out.stats.unaccounted_ops, 0, "post-recovery drain is loss-free");

        // 1. Same target subscription state.
        prop_assert_eq!(&out.subs, &oracle_out.subs);

        // 2. The same behaviour: the same compiled fingerprints, switch
        // for switch; each side runs exactly what it compiled, with no
        // staged wreckage left; and every host receives the same over
        // the matrix. Table structure is not compared: both sides
        // compile through delta maintenance on live diagrams, whose
        // shape depends on how the worker batched the schedule.
        let (mut d, mut od) = (out.deployment, oracle_out.deployment);
        prop_assert_eq!(same_behaviour(&mut d, &mut od, &matrix()), Ok(()));

        // 3. The WAL is idempotent under double replay, and its
        // replayed state is exactly the final target state.
        let once = wal.replay().expect("the log reads back");
        let twice = wal.replay().expect("the log reads back");
        prop_assert_eq!(&once.subs, &twice.subs);
        prop_assert_eq!(&once.subs, &out.subs);
        prop_assert_eq!(once.next_epoch, twice.next_epoch);
    }
}
