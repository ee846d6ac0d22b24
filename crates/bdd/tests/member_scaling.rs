//! A hot band member builds in O(n log n).
//!
//! The bulk constructor counts what each band member gets — the labels
//! of single-equality rules and the residual chains hung below it — by
//! one sort of all members' contributions and one pass over the runs.
//! Two lists put everything on one member: `id == 5 and price > i`
//! (n tails) and `id == 5` under n distinct actions (n labels). Four
//! times the rules must build in under 8× the time; a member that looks
//! each contribution up by a scan of the ones it already has is
//! quadratic and reads about 16×. Each size keeps the fastest of seven
//! builds: a busy host only ever slows a run down, so the minimum is the
//! run it disturbed least.

use std::time::{Duration, Instant};

use camus_bdd::{BddBuilder, VarOrder};
use camus_lang::ast::{Action, Expr, Predicate, Rel, Rule};

fn id_five() -> Expr {
    Expr::Atom(Predicate::field("id", Rel::Eq, 5i64))
}

/// `id == 5 and price > i`, one action: n tails on one member.
fn tails(n: i64) -> Vec<Rule> {
    (0..n)
        .map(|i| Rule {
            filter: id_five().and(Expr::Atom(Predicate::field("price", Rel::Gt, i))),
            action: Action::Forward(vec![1]),
        })
        .collect()
}

/// `id == 5` under n distinct actions: n labels on one member.
fn labels(n: i64) -> Vec<Rule> {
    (0..n).map(|i| Rule { filter: id_five(), action: Action::Forward(vec![i as u16]) }).collect()
}

fn fastest_build(rules: &[Rule]) -> Duration {
    (0..7)
        .map(|_| {
            let t0 = Instant::now();
            let bdd = BddBuilder::from_rules(std::hint::black_box(rules))
                .with_order(VarOrder::from_keys(["id", "price"]))
                .build();
            let elapsed = t0.elapsed();
            assert!(bdd.node_count() >= 1);
            elapsed
        })
        .min()
        .unwrap()
}

#[test]
fn a_hot_member_builds_in_n_log_n() {
    for (family, list) in [("tails", tails as fn(i64) -> Vec<Rule>), ("labels", labels)] {
        let small = fastest_build(&list(4_000));
        let large = fastest_build(&list(16_000));
        assert!(
            large < small * 8,
            "{family}: 16k rules on one member took {large:?}, 4k took {small:?}: more than 8x \
             for 4x the rules"
        );
    }
}
