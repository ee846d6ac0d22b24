//! Routing on general topologies via spanning trees (§IV-E).
//!
//! The control plane builds a spanning tree; each tree edge `(u, v)`
//! partitions the network's subscriptions in two, and the FIB on `u`
//! contains, assigned to the port towards `v`, rules representing all
//! subscriptions on the `v` side (and vice-versa). Packets are routed
//! within the tree, which is loop-free by construction.
//!
//! Two tree-construction algorithms are compared in Fig. 15:
//!
//! * **MST** — Prim's algorithm with unit edge weights, a generic
//!   baseline.
//! * **MST++** — Prim with the heuristic weight `w(u,v) =
//!   deg(u)·deg(v)`, which steers the tree away from high-degree hubs
//!   and produces *low-degree* spanning trees: each switch partitions
//!   its subscriptions into fewer port groups, which compresses the
//!   per-switch BDD (finding a minimum-degree spanning tree is
//!   NP-hard; this is the paper's practical heuristic).

use camus_lang::ast::{Action, Expr, Port, Rule};
use std::collections::{BinaryHeap, HashSet};

/// An undirected graph over nodes `0..n`.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    adj: Vec<Vec<usize>>,
}

impl Graph {
    pub fn new(n: usize) -> Self {
        Graph { n, adj: vec![Vec::new(); n] }
    }

    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.n && v < self.n && u != v, "bad edge ({u},{v})");
        if !self.adj[u].contains(&v) {
            self.adj[u].push(v);
            self.adj[v].push(u);
        }
    }

    pub fn node_count(&self) -> usize {
        self.n
    }

    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[v]
    }

    /// Is the graph connected? (Spanning trees need connectivity.)
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        self.component(0).len() == self.n
    }

    /// The connected component containing `root`, as sorted node ids.
    pub fn component(&self, root: usize) -> Vec<usize> {
        assert!(root < self.n, "root {root} out of range");
        let mut seen = vec![false; self.n];
        let mut stack = vec![root];
        seen[root] = true;
        let mut out = vec![root];
        while let Some(u) = stack.pop() {
            for &v in &self.adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    out.push(v);
                    stack.push(v);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// A copy of the graph with `dead_nodes` isolated (every incident
    /// edge removed) and `dead_edges` cut. Node indices are preserved,
    /// so per-node artefacts (FIBs, subscriptions) keep their slots —
    /// the same stable-index convention [`camus_routing::topology::FaultMask`]
    /// uses for switches.
    pub fn degrade(&self, dead_nodes: &[usize], dead_edges: &[(usize, usize)]) -> Graph {
        let dead: HashSet<usize> = dead_nodes.iter().copied().collect();
        let cut: HashSet<(usize, usize)> =
            dead_edges.iter().flat_map(|&(u, v)| [(u, v), (v, u)]).collect();
        let mut g = Graph::new(self.n);
        for u in 0..self.n {
            if dead.contains(&u) {
                continue;
            }
            for &v in &self.adj[u] {
                if u < v && !dead.contains(&v) && !cut.contains(&(u, v)) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }
}

/// Which tree-construction algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeAlgo {
    /// Unit weights: any MST (deterministic tie-breaking by node id).
    Mst,
    /// `w(u,v) = deg(u)·deg(v)`: low-degree trees.
    MstPlusPlus,
}

/// A spanning tree as an adjacency structure over the original nodes.
#[derive(Debug, Clone)]
pub struct SpanningTree {
    pub adj: Vec<Vec<usize>>,
}

impl SpanningTree {
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(|a| a.len()).max().unwrap_or(0)
    }

    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
    }

    /// Verify the tree spans the graph: `n-1` edges and connected.
    pub fn is_spanning(&self) -> bool {
        let n = self.adj.len();
        if n == 0 {
            return true;
        }
        if self.edge_count() != n - 1 {
            return false;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &self.adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }
}

/// Build a spanning tree with Prim's algorithm under the chosen weight
/// function. Panics if the graph is disconnected.
pub fn spanning_tree(g: &Graph, algo: TreeAlgo) -> SpanningTree {
    assert!(g.is_connected(), "spanning tree requires a connected graph");
    spanning_tree_from(g, algo, 0)
}

/// Prim's algorithm rooted at `root`, spanning only `root`'s connected
/// component — the degraded-topology variant of [`spanning_tree`].
/// Nodes outside the component (failed, or partitioned by failures in
/// a [`Graph::degrade`]d graph) end up with no tree edges, so the tree
/// is *not* spanning when the graph is disconnected; pair with
/// [`Graph::component`] to see what it covers.
pub fn spanning_tree_from(g: &Graph, algo: TreeAlgo, root: usize) -> SpanningTree {
    let n = g.node_count();
    let mut adj = vec![Vec::new(); n];
    if n == 0 {
        return SpanningTree { adj };
    }
    assert!(root < n, "root {root} out of range");
    let mut in_tree = vec![false; n];
    // Max-heap of Reverse((weight, u, v)) = min-heap over weight with
    // deterministic (u, v) tie-breaking.
    let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize, usize)>> = BinaryHeap::new();
    let weight = |u: usize, v: usize| -> u64 {
        match algo {
            TreeAlgo::Mst => 1,
            TreeAlgo::MstPlusPlus => (g.degree(u) as u64) * (g.degree(v) as u64),
        }
    };
    in_tree[root] = true;
    for &v in g.neighbors(root) {
        heap.push(std::cmp::Reverse((weight(root, v), root, v)));
    }
    while let Some(std::cmp::Reverse((_, u, v))) = heap.pop() {
        if in_tree[v] {
            continue;
        }
        in_tree[v] = true;
        adj[u].push(v);
        adj[v].push(u);
        for &w in g.neighbors(v) {
            if !in_tree[w] {
                heap.push(std::cmp::Reverse((weight(v, w), v, w)));
            }
        }
    }
    SpanningTree { adj }
}

/// The FIB assignment on a tree: for every switch, one rule per
/// subscription on the far side of each incident tree edge, assigned to
/// the port towards that neighbor. Ports are numbered by the position
/// of the neighbor in the tree adjacency list.
///
/// `subs[v]` holds node `v`'s local subscriptions. Returns per-switch
/// rule lists (indexed like the nodes).
pub fn tree_fibs(tree: &SpanningTree, subs: &[Vec<Expr>]) -> Vec<Vec<Rule>> {
    let n = tree.adj.len();
    assert_eq!(subs.len(), n, "one subscription list per node");
    if n == 0 {
        return Vec::new();
    }
    // Root the tree at 0; compute subtree subscription counts via a
    // post-order walk, collecting each subtree's subscription set as an
    // index list into a flat arena to avoid quadratic copying.
    let mut parent = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![0usize];
    let mut seen = vec![false; n];
    seen[0] = true;
    while let Some(u) = stack.pop() {
        order.push(u);
        for &v in &tree.adj[u] {
            if !seen[v] {
                seen[v] = true;
                parent[v] = u;
                stack.push(v);
            }
        }
    }
    // Flat arena of (node, filter index) pairs; subtree(u) = its own
    // subs plus children's subtrees.
    let mut subtree: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for &u in order.iter().rev() {
        let mut acc: Vec<(usize, usize)> = (0..subs[u].len()).map(|i| (u, i)).collect();
        for &v in &tree.adj[u] {
            if parent[v] == u {
                acc.extend(subtree[v].iter().copied());
            }
        }
        subtree[u] = acc;
    }
    let all: Vec<(usize, usize)> = subtree[0].clone();

    let mut fibs: Vec<Vec<Rule>> = vec![Vec::new(); n];
    for u in 0..n {
        for (port, &v) in tree.adj[u].iter().enumerate() {
            // Side of v: v's subtree if v is u's child, otherwise
            // everything outside u's subtree.
            let side: Vec<(usize, usize)> = if parent[v] == u {
                subtree[v].clone()
            } else {
                let in_sub: std::collections::HashSet<(usize, usize)> =
                    subtree[u].iter().copied().collect();
                all.iter().copied().filter(|x| !in_sub.contains(x)).collect()
            };
            for (node, fi) in side {
                fibs[u].push(Rule {
                    filter: subs[node][fi].clone(),
                    action: Action::Forward(vec![port as Port]),
                });
            }
        }
    }
    fibs
}

/// Rooted bookkeeping shared by the FIB helpers: parent array and
/// per-node subtree subscription counts.
struct Rooted {
    parent: Vec<usize>,
    order: Vec<usize>,
    subtree_count: Vec<usize>,
}

fn root_tree(tree: &SpanningTree, subs: &[Vec<Expr>]) -> Rooted {
    let n = tree.adj.len();
    let mut parent = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut stack = vec![0usize];
    let mut seen = vec![false; n];
    if n > 0 {
        seen[0] = true;
    }
    while let Some(u) = stack.pop() {
        order.push(u);
        for &v in &tree.adj[u] {
            if !seen[v] {
                seen[v] = true;
                parent[v] = u;
                stack.push(v);
            }
        }
    }
    let mut subtree_count = vec![0usize; n];
    for &u in order.iter().rev() {
        subtree_count[u] = subs[u].len();
        for &v in &tree.adj[u] {
            if parent[v] == u {
                subtree_count[u] += subtree_count[v];
            }
        }
    }
    Rooted { parent, order, subtree_count }
}

/// Per-node FIB *sizes* (rule counts) without materialising the rules —
/// O(n) instead of O(n · subscriptions). `size(u) = Σ over tree
/// neighbours v of |subscriptions on the v side|`.
pub fn tree_fib_sizes(tree: &SpanningTree, subs: &[Vec<Expr>]) -> Vec<usize> {
    let n = tree.adj.len();
    if n == 0 {
        return Vec::new();
    }
    let rooted = root_tree(tree, subs);
    let total = rooted.subtree_count[rooted.order[0]];
    (0..n)
        .map(|u| {
            tree.adj[u]
                .iter()
                .map(|&v| {
                    if rooted.parent[v] == u {
                        rooted.subtree_count[v]
                    } else {
                        total - rooted.subtree_count[u]
                    }
                })
                .sum()
        })
        .collect()
}

/// Materialise the FIB of a single node (see [`tree_fibs`] for the
/// semantics). Used at scale where building every FIB would need
/// gigabytes.
pub fn tree_fib_for(tree: &SpanningTree, subs: &[Vec<Expr>], u: usize) -> Vec<Rule> {
    let rooted = root_tree(tree, subs);
    let mut fib = Vec::new();
    for (port, &v) in tree.adj[u].iter().enumerate() {
        if rooted.parent[v] == u {
            // v's subtree: DFS below v.
            let mut stack = vec![v];
            while let Some(w) = stack.pop() {
                for f in &subs[w] {
                    fib.push(Rule {
                        filter: f.clone(),
                        action: Action::Forward(vec![port as Port]),
                    });
                }
                for &c in &tree.adj[w] {
                    if rooted.parent[c] == w {
                        stack.push(c);
                    }
                }
            }
        } else {
            // Everything outside u's subtree: DFS from the root,
            // skipping u's subtree.
            let mut stack = vec![rooted.order[0]];
            while let Some(w) = stack.pop() {
                if w == u {
                    continue;
                }
                for f in &subs[w] {
                    fib.push(Rule {
                        filter: f.clone(),
                        action: Action::Forward(vec![port as Port]),
                    });
                }
                for &c in &tree.adj[w] {
                    if rooted.parent[c] == w {
                        stack.push(c);
                    }
                }
            }
        }
    }
    fib
}

#[cfg(test)]
mod tests {
    use super::*;
    use camus_lang::parser::parse_expr;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1);
        }
        g
    }

    /// A star center plus a cycle through the leaves: MST++ should
    /// avoid loading the hub.
    fn hub_and_ring(k: usize) -> Graph {
        let mut g = Graph::new(k + 1);
        for i in 1..=k {
            g.add_edge(0, i);
            g.add_edge(i, i % k + 1);
        }
        g
    }

    #[test]
    fn graph_basics() {
        let g = path_graph(4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert!(g.is_connected());
        let mut g2 = Graph::new(3);
        g2.add_edge(0, 1);
        assert!(!g2.is_connected());
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn mst_is_spanning() {
        for g in [path_graph(10), hub_and_ring(8)] {
            for algo in [TreeAlgo::Mst, TreeAlgo::MstPlusPlus] {
                let t = spanning_tree(&g, algo);
                assert!(t.is_spanning(), "{algo:?}");
                assert_eq!(t.edge_count(), g.node_count() - 1);
            }
        }
    }

    #[test]
    fn mstpp_produces_lower_degree_trees() {
        let g = hub_and_ring(16);
        let mst = spanning_tree(&g, TreeAlgo::Mst);
        let mstpp = spanning_tree(&g, TreeAlgo::MstPlusPlus);
        assert!(
            mstpp.max_degree() < mst.max_degree() || mstpp.max_degree() <= 3,
            "MST++ max degree {} vs MST {}",
            mstpp.max_degree(),
            mst.max_degree()
        );
        // The hub (node 0, degree 16) must not be a tree hub in MST++.
        assert!(mstpp.degree(0) < g.degree(0));
    }

    #[test]
    #[should_panic(expected = "connected graph")]
    fn disconnected_graph_panics() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        spanning_tree(&g, TreeAlgo::Mst);
    }

    #[test]
    fn degrade_cuts_edges_and_isolates_nodes() {
        let g = hub_and_ring(6);
        let d = g.degrade(&[0], &[(1, 2)]);
        assert_eq!(d.node_count(), g.node_count());
        assert_eq!(d.degree(0), 0, "dead hub is isolated");
        assert!(!d.neighbors(1).contains(&2), "cut edge removed");
        assert!(d.neighbors(2).contains(&3), "other ring edges survive");
        // The ring minus one edge is still one component (sans the hub).
        assert_eq!(d.component(1), vec![1, 2, 3, 4, 5, 6]);
        assert!(!d.is_connected());
    }

    #[test]
    fn spanning_tree_from_covers_exactly_the_root_component() {
        let mut g = Graph::new(6);
        for (u, v) in [(0, 1), (1, 2), (3, 4), (4, 5)] {
            g.add_edge(u, v);
        }
        let t = spanning_tree_from(&g, TreeAlgo::Mst, 0);
        assert_eq!(t.edge_count(), 2);
        for v in [0, 1, 2] {
            assert!(t.degree(v) > 0);
        }
        for v in [3, 4, 5] {
            assert_eq!(t.degree(v), 0, "other component untouched");
        }
        // Rooted in the other component, it spans that one instead.
        let t = spanning_tree_from(&g, TreeAlgo::MstPlusPlus, 4);
        assert_eq!(t.edge_count(), 2);
        assert_eq!(t.degree(0), 0);
        assert_eq!(t.degree(4), 2);
    }

    #[test]
    fn degraded_spanning_tree_routes_around_dead_hub() {
        // Hub-and-ring with the hub dead: the ring alone must still
        // yield a tree over the surviving component.
        let g = hub_and_ring(8);
        let d = g.degrade(&[0], &[]);
        let t = spanning_tree_from(&d, TreeAlgo::MstPlusPlus, 1);
        assert_eq!(t.degree(0), 0);
        assert_eq!(t.edge_count(), 7, "ring of 8 spans with 7 edges");
        let component = d.component(1);
        assert_eq!(component, (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn tree_fibs_partition_subscriptions() {
        // Path 0 - 1 - 2; node 0 and node 2 subscribe.
        let g = path_graph(3);
        let t = spanning_tree(&g, TreeAlgo::Mst);
        let subs =
            vec![vec![parse_expr("a == 0").unwrap()], vec![], vec![parse_expr("a == 2").unwrap()]];
        let fibs = tree_fibs(&t, &subs);
        // Node 1 must have one rule towards each side.
        assert_eq!(fibs[1].len(), 2);
        // Node 0's single port (towards 1) carries node 2's filter.
        assert_eq!(fibs[0].len(), 1);
        assert_eq!(fibs[0][0].filter, parse_expr("a == 2").unwrap());
        // Node 2's port carries node 0's filter.
        assert_eq!(fibs[2].len(), 1);
        assert_eq!(fibs[2][0].filter, parse_expr("a == 0").unwrap());
    }

    #[test]
    fn tree_fibs_exclude_own_subscriptions() {
        let g = path_graph(2);
        let t = spanning_tree(&g, TreeAlgo::Mst);
        let subs = vec![vec![parse_expr("x == 1").unwrap()], vec![]];
        let fibs = tree_fibs(&t, &subs);
        // Node 0 subscribes; node 0's FIB (towards 1) must NOT contain
        // its own filter, node 1's FIB must.
        assert!(fibs[0].is_empty());
        assert_eq!(fibs[1].len(), 1);
    }

    #[test]
    fn fib_sizes_and_selective_materialisation_agree_with_full() {
        let g = hub_and_ring(6);
        let t = spanning_tree(&g, TreeAlgo::MstPlusPlus);
        let subs: Vec<Vec<Expr>> = (0..7)
            .map(|i| {
                (0..=(i % 3))
                    .map(|j| parse_expr(&format!("id == {}", i * 10 + j)).unwrap())
                    .collect()
            })
            .collect();
        let full = tree_fibs(&t, &subs);
        let sizes = tree_fib_sizes(&t, &subs);
        assert_eq!(sizes, full.iter().map(Vec::len).collect::<Vec<_>>());
        for (u, full_u) in full.iter().enumerate() {
            let mut a = tree_fib_for(&t, &subs, u);
            let mut b = full_u.clone();
            let key = |r: &Rule| (r.action.ports().unwrap().to_vec(), r.filter.to_string());
            a.sort_by_key(key);
            b.sort_by_key(key);
            assert_eq!(a, b, "node {u}");
        }
    }

    #[test]
    fn tree_fibs_port_numbering_matches_adjacency() {
        let g = hub_and_ring(4);
        let t = spanning_tree(&g, TreeAlgo::Mst);
        let subs: Vec<Vec<Expr>> =
            (0..5).map(|i| vec![parse_expr(&format!("id == {i}")).unwrap()]).collect();
        let fibs = tree_fibs(&t, &subs);
        for (u, rules) in fibs.iter().enumerate() {
            for r in rules {
                let port = r.action.ports().unwrap()[0] as usize;
                assert!(port < t.adj[u].len(), "port within tree degree");
            }
        }
        // Every node's filter appears in every other node's FIB exactly
        // once (trees have unique paths).
        for (u, fib) in fibs.iter().enumerate().take(5) {
            for v in 0..5 {
                if u == v {
                    continue;
                }
                let needle = parse_expr(&format!("id == {v}")).unwrap();
                let count = fib.iter().filter(|r| r.filter == needle).count();
                assert_eq!(count, 1, "filter of {v} in FIB of {u}");
            }
        }
    }
}
