//! Quick scaling probe for BDD construction and incremental
//! maintenance (not a Criterion bench).
//!
//! `cargo run --release -p camus-bench --example bddperf` prints every
//! row; `... --example bddperf -- lists` prints only the `cold-deploy`
//! lists row, the compile of the ledger input's distinct lists one by
//! one.
use camus_bdd::{rule_digest, BddBuilder, IncrementalBdd, VarOrder};
use camus_core::compiled::CompiledPipeline;
use camus_core::multicast::MulticastAllocator;
use camus_core::resources;
use camus_core::statics::compile_static;
use camus_core::tables::bdd_to_pipeline;
use camus_lang::ast::Rule;
use camus_lang::parser::{parse_expr, parse_rule};
use camus_lang::spec::Spec;
use camus_routing::algorithm1::{route_hierarchical, Policy, RoutingConfig};
use camus_routing::topology::three_layer;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Counts heap allocations (`realloc` included) while `COUNTING` is
/// set, so the timed passes pay one relaxed load per allocation.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count_one() {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged; the counter is a statistic and guards nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The `cold-deploy` ledger workload's input at `seed`: 25 000
/// subscriptions (`id == K`, every 7th `and price > t`) spread over the
/// hosts of the 72-switch tree and routed under MR, as the benchmark
/// generates them. Returns each distinct switch list once (by
/// fingerprint, first switch first) and the compiled spec.
fn cold_deploy_lists(seed: u64) -> (Vec<Vec<Rule>>, camus_core::statics::StaticPipeline) {
    const SPEC: &str =
        "header order {\n  @field_exact bit<32> id;\n  @field bit<32> price;\n}\nsequence order\n";
    let net = three_layer(8, 4, 4, 8, 4);
    let hosts = net.host_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let base: i64 = rng.gen_range(0..1 << 20);
    let mut subs = vec![Vec::new(); hosts];
    for i in 0..25_000usize {
        let id = base + i as i64;
        let text = if i % 7 == 0 {
            format!("id == {id} and price > {}", rng.gen_range(0..1_000))
        } else {
            format!("id == {id}")
        };
        subs[i % hosts].push(parse_expr(&text).unwrap());
    }
    let routing = route_hierarchical(&net, &subs, RoutingConfig::new(Policy::MemoryReduction));
    let mut seen = Vec::new();
    let mut lists = Vec::new();
    for s in 0..net.switch_count() {
        let fingerprint = routing.switch_fingerprint(s);
        if !seen.contains(&fingerprint) {
            seen.push(fingerprint);
            lists.push(routing.switch_rules(s));
        }
    }
    let statics = compile_static(&Spec::parse(SPEC).unwrap()).unwrap();
    (lists, statics)
}

/// The `cold-deploy` lists compiled one by one through the public
/// stages of `Compiler::compile`: `BddBuilder::build`,
/// `bdd_to_pipeline` and `resources::report`. Each stage's time is
/// summed over the lists; the row prints the median of five such sums,
/// and the allocations of one more pass, counted.
fn cold_deploy_row() {
    let (lists, statics) = cold_deploy_lists(7);
    let order = statics.var_order();
    let widths = statics.widths();
    let rules: usize = lists.iter().map(Vec::len).sum();
    let compile_all = |sums: &mut [f64; 3]| -> usize {
        let mut entries = 0;
        for list in &lists {
            let t = Instant::now();
            let bdd = BddBuilder::from_rules(list).with_order(order.clone()).build();
            sums[0] += t.elapsed().as_secs_f64() * 1e3;
            let mut multicast = MulticastAllocator::new(MulticastAllocator::DEFAULT_LIMIT);
            let t = Instant::now();
            let pipeline = bdd_to_pipeline(&bdd, &mut multicast).unwrap();
            sums[1] += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let report = resources::report(&pipeline, multicast.group_count(), &widths);
            sums[2] += t.elapsed().as_secs_f64() * 1e3;
            entries += report.total_entries;
        }
        entries
    };
    let mut runs: Vec<[f64; 3]> = (0..5)
        .map(|_| {
            let mut sums = [0.0; 3];
            compile_all(&mut sums);
            sums
        })
        .collect();
    ALLOCS.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let entries = compile_all(&mut [0.0; 3]);
    COUNTING.store(false, Relaxed);
    let allocs = ALLOCS.load(Relaxed);
    let median = |k: usize, runs: &mut Vec<[f64; 3]>| {
        runs.sort_by(|a, b| a[k].total_cmp(&b[k]));
        runs[runs.len() / 2][k]
    };
    let (build, emit, report) = (median(0, &mut runs), median(1, &mut runs), median(2, &mut runs));
    runs.sort_by(|a, b| a.iter().sum::<f64>().total_cmp(&b.iter().sum::<f64>()));
    let total: f64 = runs[runs.len() / 2].iter().sum();
    println!(
        "cold-deploy lists: {} lists, {rules} rules, {entries} entries | build {build:.1} ms + \
         bdd_to_pipeline {emit:.1} ms + report {report:.1} ms, serial sum {total:.1} ms | \
         {allocs} allocations",
        lists.len(),
    );
}

fn main() {
    cold_deploy_row();
    if std::env::args().nth(1).as_deref() == Some("lists") {
        return;
    }
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
