//! Property: an incremental reconfiguration is indistinguishable from
//! a fresh `deploy` of the final subscription state.
//!
//! Random churn sequences (hosts adding and dropping random filters)
//! are applied step by step through `Controller::repair`, which reuses
//! fingerprint-matched pipelines from the previous compile and only
//! reinstalls the changed ones. After every step the reconfigured
//! network must hold a fresh deploy's tables (`same_tables`: switch for
//! switch, fingerprints, entry counts, compiled and installed
//! pipelines) and deliver publications identically.

use camus_lang::ast::Expr;
use camus_lang::value::Value;
use camus_net::channel::PerfectChannel;
use camus_oracle::{itch_controller, itch_pool, same_deliveries, same_tables, Publication};
use camus_routing::algorithm1::Policy;
use camus_routing::topology::paper_fat_tree;
use proptest::prelude::*;

/// One churn event: a host either adds a pool filter or drops its
/// newest subscription.
#[derive(Debug, Clone)]
enum Churn {
    Add { host: usize, filter: usize },
    Drop { host: usize },
}

fn arb_churn(hosts: usize, pool: usize) -> impl Strategy<Value = Churn> {
    prop_oneof![
        3 => (0..hosts, 0..pool).prop_map(|(host, filter)| Churn::Add { host, filter }),
        1 => (0..hosts).prop_map(|host| Churn::Drop { host }),
    ]
}

/// Publications that exercise the pool filters from several hosts.
fn publications() -> Vec<Publication> {
    vec![
        (0, vec![("stock", Value::from("GOOGL")), ("price", Value::Int(30))]),
        (6, vec![("stock", Value::from("MSFT")), ("price", Value::Int(700))]),
        (11, vec![("stock", Value::from("FB")), ("price", Value::Int(1))]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn reconfigure_equals_fresh_deploy(
        seed_adds in proptest::collection::vec((0usize..16, 0usize..9), 0..12),
        churn in proptest::collection::vec(arb_churn(16, 9), 1..8),
        policy_tr in any::<bool>(),
    ) {
        let pool = itch_pool();
        let net = paper_fat_tree();
        let policy =
            if policy_tr { Policy::TrafficReduction } else { Policy::MemoryReduction };
        let ctrl = itch_controller(policy);

        // Initial subscription state.
        let mut subs: Vec<Vec<Expr>> = vec![Vec::new(); net.host_count()];
        for (host, f) in &seed_adds {
            subs[*host].push(pool[*f].clone());
        }
        let mut live = ctrl.deploy(net.clone(), &subs).expect("initial deploy");

        for step in &churn {
            match step {
                Churn::Add { host, filter } => subs[*host].push(pool[*filter].clone()),
                Churn::Drop { host } => {
                    subs[*host].pop();
                }
            }
            ctrl.repair(&mut live, &subs, &mut PerfectChannel).expect("reconfigure");
            let mut fresh = ctrl.deploy(net.clone(), &subs).expect("fresh deploy");

            prop_assert_eq!(same_tables(&live, &fresh), Ok(()));
            prop_assert_eq!(
                same_deliveries(&mut live.network, &mut fresh.network, &publications()),
                Ok(())
            );
        }
    }
}
