//! Criterion benches for incremental BDD maintenance: per-op
//! insert/remove against a live [`IncrementalBdd`], snapshot cost, and
//! the bulk construction they amortise away — in place
//! (`BddBuilder::build`) and as a seed with its per-rule bookkeeping.
//! Backs the `scale` experiment with microbenchmark-grade numbers.

use camus_bdd::{rule_digest, BddBuilder, IncrementalBdd, VarOrder};
use camus_lang::ast::Rule;
use camus_lang::parser::parse_rule;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn ident_rules(n: usize) -> Vec<Rule> {
    (0..n)
        .map(|i| {
            let text = if i.is_multiple_of(7) {
                format!("id == {i} and price > {}: fwd({})", (i * 37) % 1_000, (i % 32) + 1)
            } else {
                format!("id == {i}: fwd({})", (i % 32) + 1)
            };
            parse_rule(&text).unwrap()
        })
        .collect()
}

fn order() -> VarOrder {
    VarOrder::from_keys(["id", "price"])
}

fn bench_insert_remove(c: &mut Criterion) {
    let mut g = c.benchmark_group("bdd_incremental_op");
    g.throughput(Throughput::Elements(1));
    for n in [10_000usize, 100_000] {
        let rules = ident_rules(n);
        let mut inc = IncrementalBdd::from_rules(&rules, &order());
        g.bench_function(BenchmarkId::new("insert_remove", n), |b| {
            let mut k = 0usize;
            b.iter(|| {
                let fresh = parse_rule(&format!(
                    "id == {} and price > {}: fwd({})",
                    n + k,
                    k % 997,
                    (k % 31) + 1
                ))
                .unwrap();
                k += 1;
                let digest = inc.insert_rule(&fresh);
                assert!(inc.remove_by_digest(digest));
            })
        });
        g.bench_function(BenchmarkId::new("remove_reinsert_existing", n), |b| {
            let mut k = 0usize;
            b.iter(|| {
                let victim = &rules[(k * 131) % rules.len()];
                k += 1;
                assert!(inc.remove_by_digest(rule_digest(victim)));
                inc.insert_rule(victim);
            })
        });
    }
    g.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let mut g = c.benchmark_group("bdd_snapshot");
    let n = 10_000usize;
    let rules = ident_rules(n);
    let mut inc = IncrementalBdd::from_rules(&rules, &order());
    inc.force_gc();
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function(BenchmarkId::new("compacted", n), |b| b.iter(|| inc.snapshot().node_count()));
    g.finish();
}

fn bench_cold_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("bdd_cold_build");
    for n in [10_000usize, 100_000] {
        let rules = ident_rules(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("in_place", n), &rules, |b, rules| {
            b.iter(|| BddBuilder::from_rules(rules).with_order(order()).build().node_count())
        });
        g.bench_with_input(BenchmarkId::new("incremental_seed", n), &rules, |b, rules| {
            b.iter(|| IncrementalBdd::from_rules(rules, &order()).rule_count())
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_insert_remove, bench_snapshot, bench_cold_build
}
criterion_main!(benches);
