//! The oracle must be able to fail: a convergence check that passes
//! whatever the network does checks nothing.
//!
//! Each check first passes on two deploys of one state; then one side
//! is broken in one small way — a switch running another switch's
//! program, a cut access link, one more subscription — and the same
//! check must name the difference.

use camus_lang::ast::{Expr, Rule};
use camus_lang::parser::{parse_expr, parse_rules};
use camus_lang::value::Value;
use camus_net::controller::Deployment;
use camus_oracle::{
    deliveries, expected_hosts, expected_ports, itch_controller, itch_pool, same_behaviour,
    same_deliveries, same_tables, Publication,
};
use camus_routing::algorithm1::Policy;
use camus_routing::topology::paper_fat_tree;

/// Hosts 3 and 9 want GOOGL, host 12 wants MSFT or a high price.
fn subs() -> Vec<Vec<Expr>> {
    let pool = itch_pool();
    let mut subs = vec![Vec::new(); paper_fat_tree().host_count()];
    subs[3].push(pool[0].clone());
    subs[9].push(pool[0].clone());
    subs[12].push(pool[8].clone());
    subs
}

fn deploy(subs: &[Vec<Expr>]) -> Deployment {
    itch_controller(Policy::TrafficReduction).deploy(paper_fat_tree(), subs).expect("deploy")
}

fn publications() -> Vec<Publication> {
    vec![
        (0, vec![("stock", Value::from("GOOGL")), ("price", Value::Int(30))]),
        (6, vec![("stock", Value::from("MSFT")), ("price", Value::Int(7))]),
        (11, vec![("stock", Value::from("FB")), ("price", Value::Int(900))]),
    ]
}

#[test]
fn same_tables_rejects_a_switch_running_another_switchs_program() {
    let subs = subs();
    let (mut live, fresh) = (deploy(&subs), deploy(&subs));
    assert_eq!(same_tables(&live, &fresh), Ok(()));

    // Host 3's ToR and host 12's ToR route different lists.
    let net = paper_fat_tree();
    let (a, b) = (net.access[3].0, net.access[12].0);
    assert_ne!(live.compile.switches[a].fingerprint, live.compile.switches[b].fingerprint);
    let other = live.compile.switches[b].compiled.pipeline.clone();
    live.network.switches[a].stage(other).expect("admitted");
    assert!(live.network.switches[a].commit_staged());

    let err = same_tables(&live, &fresh).expect_err("a swapped program must be caught");
    assert_eq!(err, format!("switch {a}: installed pipelines differ"));
    let mut fresh = fresh;
    let err = same_behaviour(&mut live, &mut fresh, &publications()).expect_err("and here");
    assert!(err.contains(&format!("live switch {a} runs a pipeline it did not compile")), "{err}");
}

#[test]
fn comparing_deliveries_catches_a_missing_and_an_extra_delivery() {
    let subs = subs();
    let pubs = publications();
    let (mut live, mut fresh) = (deploy(&subs), deploy(&subs));
    assert_eq!(same_deliveries(&mut live.network, &mut fresh.network, &pubs), Ok(()));
    let got = deliveries(&mut live.network, &pubs);
    let mut want = vec![0; got.len()];
    (want[3], want[9], want[12]) = (1, 1, 2);
    assert_eq!(got.iter().map(Vec::len).collect::<Vec<_>>(), want);

    // Missing: host 9's access link is cut and nothing repairs it.
    let (tor, port) = paper_fat_tree().access[9];
    assert!(live.network.fail_link(tor, port));
    let err = same_deliveries(&mut live.network, &mut fresh.network, &pubs)
        .expect_err("a cut access link must be caught");
    assert!(err.starts_with("host 9 delivery 0: live None, fresh Some("), "{err}");

    // Extra: host 5 also subscribes to high prices.
    let mut more = subs.clone();
    more[5].push(parse_expr("price > 500").unwrap());
    let mut extra = deploy(&more);
    let err = same_deliveries(&mut extra.network, &mut fresh.network, &pubs)
        .expect_err("an added subscription must be caught");
    assert!(err.starts_with("host 5 delivery 0: live Some("), "{err}");
    assert!(err.ends_with("fresh None"), "{err}");
}

#[test]
fn expected_hosts_leaves_out_the_publisher_and_misses_on_absent_fields() {
    let subs: Vec<Vec<Expr>> = ["price > 10", "stock == GOOGL", "price > 99", "price > 10"]
        .iter()
        .map(|f| vec![parse_expr(f).unwrap()])
        .collect();
    let witness = vec![("price".to_string(), Value::Int(50))];
    assert_eq!(expected_hosts(&subs, &witness, None), vec![0, 3]);
    assert_eq!(expected_hosts(&subs, &witness, Some(3)), vec![0]);
    // An atom on a field the witness does not carry is false, and so
    // its negation is true.
    assert!(expected_hosts(&subs[1..2], &witness, None).is_empty());
    let negated = vec![vec![parse_expr("not (stock == GOOGL)").unwrap()]];
    assert_eq!(expected_hosts(&negated, &witness, None), vec![0]);
}

#[test]
fn expected_ports_are_the_union_of_matching_rules() {
    let rules: Vec<Rule> = parse_rules(
        "price < 5: fwd(1)\nprice > 2: fwd(2)\nprice > 3: fwd(2, 4)\nstock == X: fwd(3)",
    )
    .unwrap();
    let at = |p: i64| vec![("price".to_string(), Value::Int(p))];
    assert_eq!(expected_ports(&rules, &at(4)), vec![1, 2, 4]);
    assert_eq!(expected_ports(&rules, &at(9)), vec![2, 4]);
    // The absent-attribute vector: a packet with no `price` goes nowhere.
    assert!(expected_ports(&rules, &[("qty".to_string(), Value::Int(1))]).is_empty());
}
