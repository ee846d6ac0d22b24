//! Chaos soak — transactional deployment under combined churn, faults
//! and control-channel loss.
//!
//! Runs [`camus_faults::run_chaos`] on the 72-switch churn fat tree
//! carrying N Siena subscriptions: every step draws one chaos operation
//! (subscription churn, link cut/splice, switch crash/restore, channel
//! loss re-dial, control partition, controller crash/restart), attempts
//! a two-phase repair over the lossy channel — or, with the controller
//! dead, rides out the outage until the schedule restarts it and
//! WAL-ledger reconciliation recovers — then audits a witness-probe
//! burst. The harness
//! itself panics on any invariant violation (mis-delivery, duplicate,
//! missed delivery after a committed repair, unbounded blackout,
//! failure to converge once healed), so a row in the CSV *is* a
//! certificate that the step was audited clean.
//!
//! Everything is seeded and the modelled control-plane time is
//! deterministic, so every column reproduces exactly — the determinism
//! test below compares complete runs.

use super::churn::{churn_net, spread_subscriptions};
use super::faults::generator;
use super::Scale;
use crate::output::Table;
use camus_core::statics::compile_static;
use camus_dataplane::PacketBuilder;
use camus_faults::{run_chaos, ChaosConfig, ChaosInput, ChaosReport};
use camus_lang::value::Value;
use camus_net::controller::Controller;
use camus_oracle::expected_hosts;
use camus_routing::algorithm1::{Policy, RoutingConfig};
use camus_telemetry::SampleRate;

fn soak(n_subs: usize, pool_size: usize, cfg: &ChaosConfig) -> ChaosReport {
    let net = churn_net();
    let mut g = generator(0xFA17);
    let subs = spread_subscriptions(&mut g, &net, n_subs);
    let pool = g.filters(pool_size);
    let spec = g.spec();
    let statics = compile_static(&spec).expect("siena statics compile");
    let ctrl = Controller::new(statics, RoutingConfig::new(Policy::MemoryReduction));

    // Witness: a packet matching some subscriber's first filter, from a
    // publisher on a different ToR whose own filters do not match (the
    // soak never churns the publisher, so this stays true).
    let target = (0..net.host_count()).find(|&h| !subs[h].is_empty()).expect("a subscriber");
    let witness_values: Vec<(String, Value)> = g.matching_packet(&subs[target][0]);
    let matching = expected_hosts(&subs, &witness_values, None);
    let publisher = (0..net.host_count())
        .find(|&h| net.access[h].0 != net.access[target].0 && !matching.contains(&h))
        .expect("a non-matching publisher on another ToR");

    let mut b = PacketBuilder::new(&spec);
    for (field, value) in &witness_values {
        b = b.stack_field("siena", field, value.clone());
    }
    let input = ChaosInput {
        ctrl: &ctrl,
        net: &net,
        subs,
        pool,
        witness: b.build(),
        witness_values,
        publisher,
    };
    run_chaos(input, cfg)
}

pub fn run(scale: Scale) -> Vec<Table> {
    let n_subs = scale.pick(64, 512);
    let cfg = ChaosConfig {
        seed: 0xC4A05,
        steps: scale.pick(10, 40),
        probes_per_step: scale.pick(2, 3),
        // Trace every witness: the soak then audits its dark windows
        // from the postcard collector and cross-checks the logs.
        sample: SampleRate::always(),
        ..Default::default()
    };
    let r = soak(n_subs, 16, &cfg);

    let mut t = Table::new(
        "chaos",
        "Chaos soak: per-step transactional repair audit",
        &[
            "step",
            "op",
            "outcome",
            "attempts",
            "retries",
            "reinstalled",
            "degraded",
            "expected",
            "delivered",
            "missed",
            "misdelivered",
            "duplicated",
            "drop_pct",
            "fail_pct",
            "partitions",
            "blackholes",
            "loops",
        ],
    );
    for s in &r.steps {
        let a = &s.audit;
        // The harness already asserted these; restating them here makes
        // the experiment self-checking even if the harness relaxes.
        assert_eq!(a.misdelivered, 0, "step {}: mis-delivery", s.step);
        assert_eq!(a.duplicated, 0, "step {}: duplicate", s.step);
        if s.outcome != "rolled-back" && s.outcome != "controller-down" {
            assert_eq!(a.missed, 0, "step {}: committed repair must deliver", s.step);
        }
        // Telemetry: the postcard audit of every traced witness equals
        // the delivery-log audit, every missed delivery surfaces as a
        // blackhole anomaly, and nothing ever loops.
        assert_eq!(s.telemetry, Some(*a), "step {}: postcard audit", s.step);
        assert_eq!(a.probes, cfg.probes_per_step, "step {}: probes audited", s.step);
        assert_eq!(s.blackholes > 0, a.missed > 0, "step {}: blackhole detection", s.step);
        assert_eq!(s.loops, 0, "step {}: false loop report", s.step);
        t.row([
            s.step.to_string(),
            s.label.clone(),
            s.outcome.to_string(),
            s.attempts.to_string(),
            s.retries.to_string(),
            s.reinstalled.to_string(),
            s.degraded.to_string(),
            a.expected.to_string(),
            a.delivered.to_string(),
            a.missed.to_string(),
            a.misdelivered.to_string(),
            a.duplicated.to_string(),
            s.drop_pct.to_string(),
            s.fail_pct.to_string(),
            s.partitions.to_string(),
            s.blackholes.to_string(),
            s.loops.to_string(),
        ]);
    }

    let mut summary = Table::new(
        "chaos_summary",
        "Chaos soak: summary",
        &[
            "subscriptions",
            "steps",
            "committed",
            "rolled_back",
            "crashes",
            "recoveries",
            "down_steps",
            "max_rollback_streak",
            "max_outage_streak",
            "max_dark_streak",
            "final_delivered",
            "converged",
        ],
    );
    assert!(r.converged, "healed soak must converge to a fresh deploy");
    summary.row([
        n_subs.to_string(),
        cfg.steps.to_string(),
        r.committed_steps.to_string(),
        r.rolled_back_steps.to_string(),
        r.crashes.to_string(),
        r.recoveries.to_string(),
        r.down_steps.to_string(),
        r.max_rollback_streak.to_string(),
        r.max_outage_streak.to_string(),
        r.max_dark_streak.to_string(),
        r.final_delivered.to_string(),
        r.converged.to_string(),
    ]);
    vec![t, summary]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_audits_every_step() {
        let tables = run(Scale::Quick);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 10);
        let outcomes: Vec<&str> = tables[0].rows.iter().map(|r| r[2].as_str()).collect();
        assert!(outcomes.iter().all(|o| {
            ["committed", "rolled-back", "noop", "controller-down", "recovered"].contains(o)
        }));
        // Summary row says the soak converged.
        assert_eq!(tables[1].rows[0][11], "true");
    }

    #[test]
    fn quick_run_is_deterministic() {
        // No timing columns anywhere: complete runs must be identical.
        let a = run(Scale::Quick);
        let b = run(Scale::Quick);
        assert_eq!(a[0].rows, b[0].rows);
        assert_eq!(a[1].rows, b[1].rows);
    }
}
