//! The compile path on a 256 KiB thread. BDD construction and
//! maintenance, table emission, the compiler's incremental step and DNF
//! normalisation keep their work on the heap, so a band of 50 000
//! members or a 20 000-atom chain needs no more native stack than a
//! one-rule list does. Every result is checked against
//! `Expr::eval_with` on sampled packets.

use camus_bdd::{Bdd, BddBuilder, IncrementalBdd, VarOrder};
use camus_core::compiler::{CompileState, Compiler, RuleView};
use camus_core::multicast::MulticastAllocator;
use camus_core::pipeline::Pipeline;
use camus_core::tables::bdd_to_pipeline;
use camus_lang::ast::{Action, Expr, Operand, Predicate, Rel, Rule};
use camus_lang::dnf::to_dnf;
use camus_lang::parser::parse_rule;
use camus_lang::value::Value;
use rand::{rngs::StdRng, Rng, SeedableRng};

const SMALL_STACK: usize = 256 << 10;

fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new().stack_size(SMALL_STACK).spawn(f).unwrap().join().unwrap();
}

fn rule(text: &str) -> Rule {
    parse_rule(text).unwrap()
}

/// `n` identifiers plus one range rule: folding the range rule into
/// the identifier band walks every member.
fn id_band(n: usize) -> Vec<Rule> {
    let mut rules: Vec<Rule> =
        (0..n).map(|i| rule(&format!("id == {i}: fwd({})", i % 8 + 1))).collect();
    rules.push(rule("price > 5: fwd(9)"));
    rules
}

/// `n` price thresholds, then `m` disjoint price intervals, whose `2m`
/// thresholds all survive reduction. Folding one range chain into
/// another prunes it once per threshold above, so a surviving range
/// band builds in quadratic time and is kept short here.
fn threshold_band(n: usize, m: usize) -> Vec<Rule> {
    let thresholds = (0..n).map(|i| format!("price > {i}: fwd({})", i % 8 + 1));
    let intervals = (0..m)
        .map(|i| format!("price >= {} and price < {}: fwd({})", 10 * i, 10 * i + 5, i % 8 + 9));
    thresholds.chain(intervals).map(|text| rule(&text)).collect()
}

/// Packets with a `price` and an `id` drawn past the bands' ends, the
/// price half the time among the intervals, the `id` missing one time
/// in ten. (The price is always present: a diagram that tests both
/// `<` and `>` on a field prunes as if the field had a value, so a
/// packet without one can match there what no filter does.)
fn packets(seed: u64) -> Vec<Vec<(&'static str, Value)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..48)
        .map(|_| {
            let top = if rng.gen_bool(0.5) { 6_000 } else { 60_000 };
            let mut pkt = vec![("price", Value::Int(rng.gen_range(-1..top)))];
            if rng.gen_bool(0.9) {
                pkt.push(("id", Value::Int(rng.gen_range(-1..60_000))));
            }
            pkt
        })
        .collect()
}

fn lookup<'a>(pkt: &'a [(&str, Value)]) -> impl Fn(&Operand) -> Option<Value> + Copy + 'a {
    move |op: &Operand| pkt.iter().find(|(n, _)| *n == op.field_name()).map(|(_, v)| v.clone())
}

fn ports<'a>(actions: impl IntoIterator<Item = &'a Action>) -> Vec<u16> {
    let mut ports: Vec<u16> =
        actions.into_iter().flat_map(|a| a.ports().unwrap_or_default().to_vec()).collect();
    ports.sort_unstable();
    ports.dedup();
    ports
}

/// The oracle: the ports of every rule whose filter matches.
fn wanted(rules: &[Rule], pkt: &[(&str, Value)]) -> Vec<u16> {
    ports(rules.iter().filter(|r| r.filter.eval_with(lookup(pkt))).map(|r| &r.action))
}

fn check_bdd(bdd: &Bdd, rules: &[Rule], seed: u64) {
    for pkt in packets(seed) {
        let got = ports(bdd.eval(lookup(&pkt)).iter().map(|&l| bdd.label(l)));
        assert_eq!(got, wanted(rules, &pkt), "packet {pkt:?}");
    }
}

fn check_pipeline(pipeline: &Pipeline, rules: &[Rule], seed: u64) {
    for pkt in packets(seed) {
        let got = ports([&pipeline.evaluate(lookup(&pkt))]);
        assert_eq!(got, wanted(rules, &pkt), "packet {pkt:?}");
    }
}

#[test]
fn bulk_builds_of_long_bands() {
    on_small_stack(|| {
        for (seed, rules) in [(1, id_band(50_000)), (2, threshold_band(5_000, 500))] {
            check_bdd(&BddBuilder::from_rules(&rules).build(), &rules, seed);
        }
    });
}

#[test]
fn maintenance_snapshot_and_emission() {
    on_small_stack(|| {
        let mut rules = id_band(20_000);
        let mut inc = IncrementalBdd::from_rules(&rules, &VarOrder::empty());
        // 1 000 ops. Fresh identifiers land at the band top; an op on a
        // range rule re-folds the whole band.
        for k in 0..500usize {
            let fresh = if k % 25 == 0 {
                rule(&format!("price > {}: fwd({})", 7 * k, k % 8 + 1))
            } else {
                rule(&format!("id == {} and price > {}: fwd({})", 100_000 + k, k % 7, k % 8 + 1))
            };
            inc.insert_rule(&fresh);
            rules.push(fresh);
            if k % 2 == 1 {
                let gone = rules.remove(rules.len() - 2);
                assert!(inc.remove_rule(&gone));
            } else {
                let gone = rules.remove(k);
                assert!(inc.remove_rule(&gone));
            }
        }
        assert_eq!(inc.rule_count(), rules.len());
        let snapshot = inc.snapshot();
        check_bdd(&snapshot, &rules, 3);
        let mut multicast = MulticastAllocator::new(MulticastAllocator::DEFAULT_LIMIT);
        check_pipeline(&bdd_to_pipeline(&snapshot, &mut multicast).unwrap(), &rules, 4);
    });
}

#[test]
fn incremental_compile() {
    on_small_stack(|| {
        let compiler = Compiler::new();
        let mut rules = id_band(20_000);
        let mut state = CompileState::default();
        compiler.compile_delta(&mut state, &RuleView::from(&rules[..])).unwrap();
        rules.push(rule("price > 40: fwd(3)"));
        rules.push(rule("id == 7 and price < 3: fwd(2)"));
        rules.swap_remove(11);
        let compiled = compiler.compile_delta(&mut state, &RuleView::from(&rules[..])).unwrap();
        check_pipeline(&compiled.pipeline, &rules, 5);
    });
}

#[test]
fn dnf_of_long_chains() {
    on_small_stack(|| {
        let atom = |field: String, rel, c: i64| Expr::Atom(Predicate::field(&field, rel, c));
        // Long chains of few distinct atoms: what is long is the chain.
        let or: Vec<Expr> = (0..20_000).map(|i| atom("x".into(), Rel::Eq, i % 64)).collect();
        let and: Vec<Expr> =
            (0..20_000).map(|i| atom(format!("f{}", i % 4), Rel::Lt, 40_000 - i)).collect();
        let mut rng = StdRng::seed_from_u64(6);
        for (atoms, any) in [(or, true), (and, false)] {
            let chain = if any {
                atoms.iter().cloned().reduce(Expr::or).unwrap()
            } else {
                Expr::conj(atoms.iter().cloned())
            };
            let dnf = to_dnf(&chain);
            for _ in 0..48 {
                let mut pkt = vec![("x", Value::Int(rng.gen_range(-2..70)))];
                for f in ["f0", "f1", "f2", "f3"] {
                    if rng.gen_bool(0.95) {
                        pkt.push((f, Value::Int(rng.gen_range(19_990..20_010))));
                    }
                }
                let each = atoms.iter().map(|a| a.eval_with(lookup(&pkt)));
                let want = if any { each.clone().any(|m| m) } else { each.clone().all(|m| m) };
                assert_eq!(dnf.eval_with(lookup(&pkt)), want, "packet {pkt:?}");
            }
            // Dropping the chain whole would recurse once per link.
            let mut rest = chain;
            while let Expr::And(left, _) | Expr::Or(left, _) = rest {
                rest = *left;
            }
        }
    });
}
