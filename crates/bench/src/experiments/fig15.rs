//! Fig. 15 — routing on general topologies: maximum per-switch FIB
//! size under MST vs MST++ spanning trees, on AS-like graphs at the
//! scale of the paper's SNAP data sets (§VIII-G.2).
//!
//! Graphs are preferential-attachment stand-ins for CAIDA-2007
//! (26 475 nodes) and AS-733 (6 474 nodes) — see DESIGN.md for the
//! substitution rationale. Rules (two variables each) are assigned to
//! randomly selected nodes, 1 or 10 per selected node; for each tree we
//! compute the per-edge FIB partition, compile every switch, and
//! report the **maximum** table entries over switches — median over
//! trials, as in the paper.

use super::Scale;
use crate::output::Table;
use crate::spanning::{spanning_tree, tree_fib_for, tree_fib_sizes, Graph, TreeAlgo};
use camus_core::compiler::Compiler;
use camus_lang::ast::Expr;
use camus_lang::parser::parse_expr;
use camus_workloads::graphs::EdgeList;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn to_graph(e: &EdgeList) -> Graph {
    let mut g = Graph::new(e.n);
    for &(u, v) in &e.edges {
        g.add_edge(u, v);
    }
    g
}

/// Assign `rules_per_node` two-variable rules to `selected` random
/// nodes.
fn assign_subs(
    n: usize,
    selected: usize,
    rules_per_node: usize,
    rng: &mut StdRng,
) -> Vec<Vec<Expr>> {
    let mut subs: Vec<Vec<Expr>> = vec![Vec::new(); n];
    for _ in 0..selected {
        let v = rng.gen_range(0..n);
        for _ in 0..rules_per_node {
            let a = rng.gen_range(0..1_000);
            let b = rng.gen_range(0..100);
            subs[v].push(parse_expr(&format!("attr0 > {a} and attr1 == {b}")).unwrap());
        }
    }
    subs
}

/// Max per-switch compiled entries for one graph/tree/workload.
/// Computes FIB *sizes* first (O(n)) and materialises + compiles only
/// the largest candidates — at CAIDA scale building every FIB would
/// take gigabytes.
pub fn max_fib_entries(graph: &Graph, algo: TreeAlgo, subs: &[Vec<Expr>]) -> usize {
    let tree = spanning_tree(graph, algo);
    let sizes = tree_fib_sizes(&tree, subs);
    let mut idx: Vec<usize> = (0..sizes.len()).collect();
    idx.sort_by_key(|&i| std::cmp::Reverse(sizes[i]));
    let compiler = Compiler::new();
    idx.into_iter()
        .take(8)
        .map(|i| {
            let fib = tree_fib_for(&tree, subs, i);
            compiler.compile(&fib).expect("fig15 FIB compiles").pipeline.total_entries()
        })
        .max()
        .unwrap_or(0)
}

fn median(mut xs: Vec<usize>) -> usize {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

pub fn run(scale: Scale) -> Vec<Table> {
    // Full scale runs AS-733 at its true size (6 474 nodes) and the
    // CAIDA-like graph at 1/4 (single-core runtime budget; the shape
    // comparison is scale-free — see EXPERIMENTS.md).
    let (caida_scale, as_scale, trials) = scale.pick((20, 20, 3), (4, 1, 5));
    let graphs = [
        ("CAIDA-like", camus_workloads::graphs::caida_like_scaled(caida_scale, 15)),
        ("AS733-like", camus_workloads::graphs::as733_like_scaled(as_scale, 15)),
    ];
    let selected_fracs = [0.02f64, 0.05, 0.10];
    let mut tables = Vec::new();
    for (name, edges) in &graphs {
        let g = to_graph(edges);
        for rules_per_node in [1usize, 10] {
            let mut t = Table::new(
                &format!("fig15_{}_{}", name.to_lowercase().replace('-', "_"), rules_per_node),
                &format!(
                    "Fig. 15 ({name}, {} nodes, {rules_per_node} rule(s)/node): max FIB entries",
                    g.node_count()
                ),
                &["total subscriptions", "MST", "MST++"],
            );
            for &frac in &selected_fracs {
                let selected = ((g.node_count() as f64 * frac) as usize).max(2);
                let mut mst_runs = Vec::new();
                let mut mstpp_runs = Vec::new();
                for trial in 0..trials {
                    let mut rng = StdRng::seed_from_u64(0xF15 + trial as u64);
                    let subs = assign_subs(g.node_count(), selected, rules_per_node, &mut rng);
                    mst_runs.push(max_fib_entries(&g, TreeAlgo::Mst, &subs));
                    mstpp_runs.push(max_fib_entries(&g, TreeAlgo::MstPlusPlus, &subs));
                }
                t.row([
                    (selected * rules_per_node).to_string(),
                    median(mst_runs).to_string(),
                    median(mstpp_runs).to_string(),
                ]);
            }
            tables.push(t);
        }
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mstpp_reduces_max_fib_entries() {
        // The MST++ claim on a hub-heavy graph.
        let edges = camus_workloads::graphs::preferential_attachment(400, 3, 5);
        let g = to_graph(&edges);
        let mut rng = StdRng::seed_from_u64(1);
        let subs = assign_subs(g.node_count(), 40, 10, &mut rng);
        let mst = max_fib_entries(&g, TreeAlgo::Mst, &subs);
        let mstpp = max_fib_entries(&g, TreeAlgo::MstPlusPlus, &subs);
        assert!(mstpp <= mst, "MST++ max entries {mstpp} must not exceed MST {mst}");
    }

    #[test]
    fn more_rules_more_entries() {
        let edges = camus_workloads::graphs::preferential_attachment(200, 2, 9);
        let g = to_graph(&edges);
        let mut rng1 = StdRng::seed_from_u64(2);
        let mut rng2 = StdRng::seed_from_u64(2);
        let small = assign_subs(g.node_count(), 5, 1, &mut rng1);
        let large = assign_subs(g.node_count(), 20, 10, &mut rng2);
        assert!(
            max_fib_entries(&g, TreeAlgo::Mst, &large) > max_fib_entries(&g, TreeAlgo::Mst, &small)
        );
    }

    #[test]
    fn quick_run_emits_tables() {
        assert_eq!(run(Scale::Quick).len(), 4);
    }
}
