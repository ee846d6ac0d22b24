//! Probe: compiler scaling on Siena-style workloads (Fig. 12/13 shape).
use camus_bench::experiments::fig12::siena_rules;

fn main() {
    for n in [1_000usize, 10_000, 100_000] {
        let rules = siena_rules(n, 3, 0xF12A);
        let t0 = std::time::Instant::now();
        let c = camus_core::compiler::Compiler::new().compile(&rules).unwrap();
        println!(
            "n={n}: compile {:?}, nodes={}, terminals={}, entries={}, mcast={}",
            t0.elapsed(),
            c.bdd.node_count(),
            c.bdd.terminal_count(),
            c.pipeline.total_entries(),
            c.multicast.group_count()
        );
    }
}
