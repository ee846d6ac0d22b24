//! # camus-oracle — what a correct network does, written once
//!
//! The paper's invariant is that a packet reaches exactly the hosts
//! whose subscriptions it satisfies, and that a reconfiguration lands
//! where a recompile would (§VIII-G.3). The whole-stack suites, the
//! chaos soak and the fault experiments check it through this crate:
//!
//! * [`expected_hosts`] and [`expected_ports`] are the definition. They
//!   evaluate the filters themselves with `Expr::eval_with` and share
//!   no code with routing or the compiler.
//! * [`deliveries`] publishes a list of messages into a network and
//!   returns what every host received since the call.
//! * [`same_tables`] and [`same_behaviour`] are the two strengths of
//!   "converged"; [`same_deliveries`] is the delivery half of the
//!   second.
//! * [`itch_pool`] and [`itch_controller`] are the ITCH fixtures the
//!   suites share. Each suite keeps its own publications and matrix:
//!   they are its test data.
//!
//! No product crate depends on this one; CI's *Product layering* step
//! checks that. Only the service's per-commit audit keeps a copy of the
//! definition in the product, in `camus_routing::verify`.

use camus_core::statics::compile_static;
use camus_dataplane::PacketBuilder;
use camus_lang::ast::{Expr, Operand, Port, Rule};
use camus_lang::parser::parse_expr;
use camus_lang::spec::itch_spec;
use camus_lang::value::Value;
use camus_net::controller::{Controller, Deployment};
use camus_net::Network;
use camus_routing::algorithm1::{Policy, RoutingConfig};

/// Return the formatted difference from the enclosing check unless
/// `$ok` holds.
macro_rules! ensure {
    ($ok:expr, $($difference:tt)+) => {
        if !$ok {
            return Err(format!($($difference)+));
        }
    };
}

/// Whether `filter` matches a packet that carries `witness`, its
/// attribute values. An atom on a field the witness does not carry is
/// false, and so is an atom on a stateful aggregate: its value is not
/// a packet field.
fn matches(filter: &Expr, witness: &[(String, Value)]) -> bool {
    filter.eval_with(|op| match op {
        Operand::Field(name) => witness.iter().find(|(n, _)| n == name).map(|(_, v)| v.clone()),
        Operand::Aggregate { .. } => None,
    })
}

/// Hosts whose subscriptions match `witness`, in host order.
/// `publisher`, when given, is left out: the network never loops a
/// message back to its source.
pub fn expected_hosts(
    subs: &[Vec<Expr>],
    witness: &[(String, Value)],
    publisher: Option<usize>,
) -> Vec<usize> {
    (0..subs.len())
        .filter(|&h| Some(h) != publisher && subs[h].iter().any(|f| matches(f, witness)))
        .collect()
}

/// The ports a rule list forwards `witness` to: the union of the
/// `fwd` ports of every matching rule, sorted and without repeats.
pub fn expected_ports(rules: &[Rule], witness: &[(String, Value)]) -> Vec<Port> {
    let mut ports: Vec<Port> = rules
        .iter()
        .filter(|r| matches(&r.filter, witness))
        .flat_map(|r| r.action.ports().into_iter().flatten().copied())
        .collect();
    ports.sort_unstable();
    ports.dedup();
    ports
}

/// One publication: the publishing host and its message's fields.
pub type Publication = (usize, Vec<(&'static str, Value)>);

/// Per host, each delivery as (latency in ns, the message's field
/// values as sorted `(name, debug-printed value)` pairs).
pub type Deliveries = Vec<Vec<(u64, Vec<(String, String)>)>>;

/// Publish `pubs` into `network`, 10 µs apart from just after its
/// clock, run it, and return what each host received since the call.
/// Latency rather than absolute time is returned, so networks with
/// different clocks compare. Packets are built against the spec the
/// switches parse.
pub fn deliveries(network: &mut Network, pubs: &[Publication]) -> Deliveries {
    let hosts = network.topology.host_count();
    let before: Vec<usize> = (0..hosts).map(|h| network.deliveries(h).len()).collect();
    let packets: Vec<_> = {
        let spec = network.switches[0].spec();
        pubs.iter()
            .map(|(_, fields)| PacketBuilder::new(spec).message(fields.clone()).build())
            .collect()
    };
    let base = network.now_ns() + 1;
    for (i, ((publisher, _), packet)) in pubs.iter().zip(packets).enumerate() {
        network.publish(*publisher, packet, base + i as u64 * 10_000);
    }
    network.run(None);
    (0..hosts)
        .map(|h| {
            network.deliveries(h)[before[h]..]
                .iter()
                .map(|d| {
                    let mut vals: Vec<(String, String)> =
                        d.values.iter().map(|(k, v)| (k.clone(), format!("{v:?}"))).collect();
                    vals.sort();
                    (d.latency_ns(), vals)
                })
                .collect()
        })
        .collect()
}

/// Publish `pubs` into both networks and compare what every host
/// receives. The error names the first delivery that differs: a
/// missing one reads `None` on the live side, an extra one on the
/// fresh side.
pub fn same_deliveries(
    live: &mut Network,
    fresh: &mut Network,
    pubs: &[Publication],
) -> Result<(), String> {
    let (got, want) = (deliveries(live, pubs), deliveries(fresh, pubs));
    ensure!(got.len() == want.len(), "{} hosts against {}", got.len(), want.len());
    for (h, (g, w)) in got.iter().zip(&want).enumerate() {
        if let Some(i) = (0..g.len().max(w.len())).find(|&i| g.get(i) != w.get(i)) {
            let (a, b) = (g.get(i), w.get(i));
            return Err(format!("host {h} delivery {i}: live {a:?}, fresh {b:?}"));
        }
    }
    Ok(())
}

/// Converged, strictly: `live` holds the tables a cold deploy of the
/// same state holds. Switch for switch, the fingerprints, entry counts
/// and compiled pipelines are equal, and so are the installed
/// pipelines. Cold paths meet this: a deploy, and a `repair` or
/// recovery, which compile every dirty list from scratch. The error
/// names the first difference.
pub fn same_tables(live: &Deployment, fresh: &Deployment) -> Result<(), String> {
    same_fingerprints(live, fresh)?;
    for (a, b) in live.compile.switches.iter().zip(&fresh.compile.switches) {
        let s = a.switch;
        ensure!(a.entries == b.entries, "switch {s}: {} entries against {}", a.entries, b.entries);
        ensure!(
            a.compiled.pipeline == b.compiled.pipeline,
            "switch {s}: compiled pipelines differ"
        );
    }
    let (a, b) = (&live.network.switches, &fresh.network.switches);
    ensure!(a.len() == b.len(), "{} switches against {}", a.len(), b.len());
    for (s, (a, b)) in a.iter().zip(b).enumerate() {
        ensure!(a.pipeline() == b.pipeline(), "switch {s}: installed pipelines differ");
    }
    Ok(())
}

/// Converged, behaviourally: `live` routes the same rule lists as
/// `fresh` (equal fingerprints, switch for switch), each side runs
/// exactly what it compiled and holds no staged or unfinalised
/// program, and both deliver `matrix` identically.
///
/// Delta paths (the service's maintained diagrams) meet this and not
/// [`same_tables`]. Implication pruning resolves infeasible-path
/// don't-cares as a side effect of construction order, and a scratch
/// build depends on list order too, so a maintained table can hold
/// more entries than the scratch build of the same list, fewer, or the
/// same entries in another order (DESIGN.md §4c, *The delta path's
/// contract*). What holds is the routed lists and the forwarding of
/// packets that carry every tested field, so `matrix` should carry
/// every field its filters test.
pub fn same_behaviour(
    live: &mut Deployment,
    fresh: &mut Deployment,
    matrix: &[Publication],
) -> Result<(), String> {
    same_fingerprints(live, fresh)?;
    for (side, d) in [("live", &*live), ("fresh", &*fresh)] {
        for (sw, sc) in d.network.switches.iter().zip(&d.compile.switches) {
            let s = sc.switch;
            let compiled = sw.pipeline() == &sc.compiled.pipeline;
            ensure!(compiled, "{side} switch {s} runs a pipeline it did not compile");
            ensure!(sw.staged_epoch().is_none(), "{side} switch {s} holds a staged program");
            let finalised = sw.unfinalized_epoch().is_none();
            ensure!(finalised, "{side} switch {s} holds an unfinalised program");
        }
    }
    same_deliveries(&mut live.network, &mut fresh.network, matrix)
}

fn same_fingerprints(live: &Deployment, fresh: &Deployment) -> Result<(), String> {
    let (a, b) = (&live.compile.switches, &fresh.compile.switches);
    ensure!(a.len() == b.len(), "{} compiled switches against {}", a.len(), b.len());
    for (a, b) in a.iter().zip(b) {
        let (s, x, y) = (a.switch, a.fingerprint, b.fingerprint);
        ensure!(x == y, "switch {s}: rule lists differ (fingerprints {x:#x} and {y:#x})");
    }
    Ok(())
}

/// The ITCH filter pool the churn and fault suites draw subscriptions
/// from: symbols, thresholds on both sides of each other, and one
/// conjunction and one disjunction.
pub fn itch_pool() -> Vec<Expr> {
    [
        "stock == GOOGL",
        "stock == MSFT",
        "stock == AAPL",
        "price > 10",
        "price > 100",
        "price < 50",
        "shares >= 5",
        "stock == GOOGL and price > 20",
        "stock == MSFT or price > 500",
    ]
    .iter()
    .map(|s| parse_expr(s).expect("pool filter parses"))
    .collect()
}

/// A controller for the ITCH statics routing with `policy`.
pub fn itch_controller(policy: Policy) -> Controller {
    Controller::new(
        compile_static(&itch_spec()).expect("ITCH statics compile"),
        RoutingConfig::new(policy),
    )
}
