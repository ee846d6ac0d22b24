//! Fig. 12 — compiler BDD memory efficiency vs the naive one-big-table
//! baseline (§VIII-F.2).
//!
//! Workloads come from the Siena-style generator. Two sweeps, matching
//! the paper's two panels:
//!
//! * **(a)** total table entries vs the number of subscriptions,
//! * **(b)** total table entries vs the selectiveness (predicates per
//!   filter) at a fixed subscription count — more selective filters
//!   need *fewer* entries because they produce fewer BDD paths.

use super::Scale;
use crate::bigtable::big_table_entries;
use crate::output::Table;
use camus_core::compiler::Compiler;
use camus_lang::ast::{Action, Rule};
use camus_workloads::siena::{SienaConfig, SienaGenerator};

const BIGTABLE_CAP: u64 = 1_000_000;

/// Generate `n` subscription rules with `k` predicates each; ports
/// cycle so terminals stay diverse (the hard case for the compiler).
pub fn siena_rules(n: usize, k: usize, seed: u64) -> Vec<Rule> {
    let mut generator = SienaGenerator::new(SienaConfig {
        predicates_per_filter: k,
        // Filters live on a universe of exactly k variables (the
        // Fig. 14 notion of "variables") with Zipf-hot anchors:
        // "workloads with similar queries" are precisely what blows up
        // the naive big table while the BDD keeps sharing structure.
        n_attributes: k.max(2),
        anchor_universe: (n / 10).max(100),
        anchor_skew: 0.6,
        seed,
        ..Default::default()
    });
    generator
        .filters(n)
        .into_iter()
        .enumerate()
        .map(|(i, filter)| Rule { filter, action: Action::Forward(vec![(i % 48) as u16 + 1]) })
        .collect()
}

fn camus_entries(rules: &[Rule]) -> usize {
    Compiler::new().compile(rules).expect("siena rules compile").pipeline.total_entries()
}

pub fn run(scale: Scale) -> Vec<Table> {
    // Panel (a): sweep subscriptions at 3 predicates per filter.
    let counts: &[usize] = match scale {
        Scale::Quick => &[10, 100, 1_000],
        Scale::Full => &[10, 100, 1_000, 10_000, 30_000],
    };
    let mut a = Table::new(
        "fig12a",
        "Fig. 12a: table entries vs #subscriptions (3 predicates/filter)",
        &["subscriptions", "camus", "big-table"],
    );
    for &n in counts {
        let rules = siena_rules(n, 3, 0xF12A);
        let big = big_table_entries(&rules, BIGTABLE_CAP);
        a.row([
            n.to_string(),
            camus_entries(&rules).to_string(),
            if big.capped { format!(">{}", big.entries) } else { big.entries.to_string() },
        ]);
    }

    // Panel (b): sweep predicates per filter at a fixed count.
    let n = scale.pick(300, 1_000);
    let mut b = Table::new(
        "fig12b",
        &format!("Fig. 12b: table entries vs predicates/filter ({n} subscriptions)"),
        &["predicates", "camus", "big-table"],
    );
    for k in 1..=6usize {
        let rules = siena_rules(n, k, 0xF12B);
        let big = big_table_entries(&rules, BIGTABLE_CAP);
        b.row([
            k.to_string(),
            camus_entries(&rules).to_string(),
            if big.capped { format!(">{}", big.entries) } else { big.entries.to_string() },
        ]);
    }
    vec![a, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn camus_entries_grow_slowly_vs_bigtable() {
        // The paper's point: the naive table explodes with overlap, the
        // BDD does not.
        let small = siena_rules(50, 2, 1);
        let large = siena_rules(500, 2, 1);
        let camus_small = camus_entries(&small);
        let camus_large = camus_entries(&large);
        let big_small = big_table_entries(&small, 200_000).entries;
        let big_large = big_table_entries(&large, 200_000);
        // Camus growth is ~linear.
        assert!(camus_large < camus_small * 40, "{camus_small} -> {camus_large}");
        // The big table grows much faster than its rule count.
        assert!(
            big_large.capped || big_large.entries > 4 * big_small,
            "{big_small} -> {:?}",
            big_large
        );
        // And Camus is smaller than the big table at scale.
        assert!((camus_large as u64) < big_large.entries);
    }

    #[test]
    fn selectiveness_tames_the_big_table() {
        // Fig. 12b's mechanism: loose single-predicate workloads make
        // the naive table explode (every pair overlaps) while the BDD
        // stays compact; selective filters shrink the big table to
        // ~linear. (See EXPERIMENTS.md for why per-field pipeline
        // entries grow mildly with the number of stages.)
        let loose_rules = siena_rules(300, 1, 2);
        let tight_rules = siena_rules(300, 5, 2);
        let big_loose = big_table_entries(&loose_rules, 500_000);
        let big_tight = big_table_entries(&tight_rules, 500_000);
        assert!(
            big_loose.capped || big_loose.entries > 50_000,
            "loose big table must explode: {:?}",
            big_loose
        );
        assert!(!big_tight.capped && big_tight.entries < 1_000, "{:?}", big_tight);
        // Camus stays far below the exploding big table.
        let camus_loose = camus_entries(&loose_rules) as u64;
        assert!(camus_loose * 10 < big_loose.entries, "{camus_loose} vs {:?}", big_loose);
    }

    #[test]
    fn quick_run_emits_two_tables() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 3);
        assert_eq!(tables[1].rows.len(), 6);
    }
}
