//! Quick scaling probe for BDD construction and incremental
//! maintenance (not a Criterion bench).
use camus_bdd::{rule_digest, BddBuilder, IncrementalBdd, VarOrder};
use camus_core::compiled::CompiledPipeline;
use camus_core::multicast::MulticastAllocator;
use camus_core::tables::bdd_to_pipeline;
use camus_lang::parser::parse_rule;

fn main() {
    // Identifier routing: single-field exact matches.
    for n in [1_000usize, 20_000, 100_000] {
        let t0 = std::time::Instant::now();
        let rules: Vec<_> = (0..n)
            .map(|i| parse_rule(&format!("id == {i}: fwd({})", (i % 32) + 1)).unwrap())
            .collect();
        let bdd = BddBuilder::from_rules(&rules).build();
        println!("eq n={n}: {:?}, nodes={}", t0.elapsed(), bdd.node_count());
    }
    // The `cold-deploy` ledger workload's core list: `id == K`, every
    // 7th `and price > t`, fields ordered `id, price`. Rules are
    // generated off the clock; medians of 5 runs of the whole cold step
    // (build → `bdd_to_pipeline` → `CompiledPipeline::lower`, then the
    // maintained store's seed + snapshot); allocated vs reachable nodes
    // and emitted entries are exact counts, printed before the timings.
    for n in [25_000usize, 100_000, 300_000] {
        let rules: Vec<_> = (0..n)
            .map(|i| {
                let text = if i % 7 == 0 {
                    format!("id == {i} and price > {}: fwd({})", (i * 37) % 1_000, (i % 32) + 1)
                } else {
                    format!("id == {i}: fwd({})", (i % 32) + 1)
                };
                parse_rule(&text).unwrap()
            })
            .collect();
        let order = VarOrder::from_keys(["id", "price"]);
        let mut build_ms = Vec::new();
        let mut emit_ms = Vec::new();
        let mut lower_ms = Vec::new();
        let mut seed_ms = Vec::new();
        let mut snapshot_ms = Vec::new();
        let mut counts = (0, 0);
        let mut entries = 0;
        for _ in 0..5 {
            let t0 = std::time::Instant::now();
            let bdd = BddBuilder::from_rules(&rules).with_order(order.clone()).build();
            build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            counts = (bdd.node_count(), bdd.gc_stats().peak_allocated.max(bdd.allocated_nodes()));
            let t0 = std::time::Instant::now();
            let pipeline = bdd_to_pipeline(&bdd, &mut MulticastAllocator::new(1024)).unwrap();
            emit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = std::time::Instant::now();
            let lowered = CompiledPipeline::lower(&pipeline);
            lower_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            entries = pipeline.total_entries();
            drop((bdd, pipeline, lowered));
            let t0 = std::time::Instant::now();
            let inc = IncrementalBdd::from_rules(&rules, &order);
            seed_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = std::time::Instant::now();
            let snap = inc.snapshot();
            snapshot_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            assert_eq!(snap.node_count(), counts.0, "both cold paths reduce to one diagram");
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        println!(
            "cold n={n}: reachable={} allocated={} entries={} | build {:.1} ms | \
             bdd_to_pipeline {:.1} ms | lower {:.1} ms | seed {:.1} ms + snapshot {:.1} ms",
            counts.0,
            counts.1,
            entries,
            median(&mut build_ms),
            median(&mut emit_ms),
            median(&mut lower_ms),
            median(&mut seed_ms),
            median(&mut snapshot_ms),
        );
    }
    // ITCH-style: symbol x price-threshold conjunctions.
    for n in [1_000usize, 10_000, 50_000] {
        let t0 = std::time::Instant::now();
        let rules: Vec<_> = (0..n)
            .map(|i| {
                parse_rule(&format!(
                    "stock == S{:04} and price > {}: fwd({})",
                    i % 100,
                    (i * 37) % 1000,
                    (i % 64) + 1
                ))
                .unwrap()
            })
            .collect();
        let bdd = BddBuilder::from_rules(&rules).build();
        println!("itch n={n}: {:?}, nodes={}", t0.elapsed(), bdd.node_count());
    }
    // INT-style: switch x latency-threshold, all to one collector.
    {
        let t0 = std::time::Instant::now();
        let rules: Vec<_> = (0..100)
            .flat_map(|s| {
                (0..1000).map(move |r| {
                    parse_rule(&format!("switch_id == {s} and hop_latency > {}: fwd(1)", 100 + r))
                        .unwrap()
                })
            })
            .collect();
        let bdd = BddBuilder::from_rules(&rules).build();
        println!("int n=100000: {:?}, nodes={}", t0.elapsed(), bdd.node_count());
    }
    // Incremental maintenance: per-op insert+remove against a live
    // store vs rebuilding it from scratch.
    for n in [10_000usize, 100_000] {
        let rules: Vec<_> = (0..n)
            .map(|i| parse_rule(&format!("id == {i}: fwd({})", (i % 32) + 1)).unwrap())
            .collect();
        let order = VarOrder::from_keys(["id", "price"]);
        let t0 = std::time::Instant::now();
        let mut inc = IncrementalBdd::from_rules(&rules, &order);
        let seed = t0.elapsed();
        let ops = 256usize;
        let t0 = std::time::Instant::now();
        for k in 0..ops {
            let fresh =
                parse_rule(&format!("id == {} and price > {}: fwd(1)", n + k, k % 997)).unwrap();
            let digest = inc.insert_rule(&fresh);
            assert!(inc.remove_by_digest(digest));
        }
        let per_op = t0.elapsed() / ops as u32;
        let victim = &rules[n / 2];
        assert!(inc.remove_by_digest(rule_digest(victim)));
        inc.insert_rule(victim);
        inc.force_gc();
        println!(
            "incremental n={n}: seed {seed:?}, per-op {per_op:?}, live={} allocated={}",
            inc.live_nodes(),
            inc.bdd().allocated_nodes()
        );
    }
}
