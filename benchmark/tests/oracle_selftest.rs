//! The oracle must be able to fail: a benchmark whose correctness
//! check passes whatever the system does checks nothing.
//!
//! Each workload runs untampered at a fraction of its pinned size and
//! must report zero failed operations; then the system under test is
//! broken in one small way — one rule missing from the installed
//! pipeline, one host's subscriptions missing from the deploy — and
//! the same oracle must count failures.

use camus_ledger::workloads::{churn, cold, fwd};
use camus_ledger::{Outcome, RunConfig, Tamper};

fn cfg(tamper: Tamper) -> RunConfig {
    RunConfig {
        seed: 0xCA3005,
        seconds: camus_ledger::RUN_SECONDS,
        trace: false,
        out_dir: "out".into(),
        tamper,
    }
}

fn small_fwd(kind: fwd::Kind) -> fwd::Sizes {
    let (filters, packets) = match kind {
        fwd::Kind::Int => (200, 6_000),
        fwd::Kind::ItchFanout => (80, 2_000),
    };
    // Stride 1: every packet meets the definitional oracle.
    fwd::Sizes { filters, packets, passes: 3, oracle_stride: 1, setups: 2, probe_packets: 500 }
}

fn on_deep_stack(f: impl FnOnce() -> Outcome + Send + 'static) -> Outcome {
    std::thread::Builder::new()
        .stack_size(camus_bdd::DEEP_STACK)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("the workload panicked")
}

#[test]
fn fwd_runs_are_clean_and_a_missing_rule_is_caught() {
    for kind in [fwd::Kind::Int, fwd::Kind::ItchFanout] {
        let clean = fwd::run(kind, &small_fwd(kind), &cfg(Tamper::None));
        assert_eq!(clean.attempted, small_fwd(kind).packets as u64);
        assert_eq!(clean.failed, 0, "{}: unmodified run must not fail", kind.name());
        let broken = fwd::run(kind, &small_fwd(kind), &cfg(Tamper::DropRule));
        assert!(broken.failed > 0, "{}: a deleted rule must fail some packet", kind.name());
        assert!(broken.failed < broken.attempted, "one rule cannot fail every packet");
        assert_eq!(clean.input_digest, broken.input_digest, "tampering is not an input");
    }
}

#[test]
fn cold_deploy_is_clean_and_a_dropped_host_is_caught() {
    let sizes = cold::Sizes { subs: 600, reps: 1, probes: 300, setups: 1 };
    let clean = cold::run(&sizes, &cfg(Tamper::None));
    assert_eq!((clean.attempted, clean.failed), (300, 0));
    let broken = cold::run(&sizes, &cfg(Tamper::DropHost));
    assert!(broken.failed > 0, "a host deployed without its subscriptions must miss a probe");
}

#[test]
fn churn_burst_is_clean_and_refuses_a_tail_it_cannot_support() {
    let sizes = churn::Sizes {
        subs: 256,
        bursts: 6,
        subscribes: 6,
        unsubscribes: 2,
        audit_probes: 2,
        setups: 1,
    };
    let out = churn::run(&sizes, &cfg(Tamper::None));
    // 6 bursts x 8 requests, 2 publications each, and the final-state check.
    assert_eq!((out.attempted, out.failed), (6 * 8 + 6 * 2 + 1, 0));
    assert!(out.end_to_end.iter().any(|m| m.name == "sub_ttt_ms_p50" && m.samples == 6));
    assert!(
        out.end_to_end.iter().all(|m| m.name != "sub_ttt_ms_p95"),
        "p95 of 6 samples is an error, not a number"
    );
    assert!(out.notes.iter().any(|n| n.contains("sub_ttt_ms_p95 not reported")));
}

#[test]
fn traced_runs_report_layers_and_cover_their_operations() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/selftest");
    let traced = RunConfig { trace: true, out_dir: dir.clone(), ..cfg(Tamper::None) };
    let kind = fwd::Kind::ItchFanout;
    let sizes = small_fwd(kind);
    let out = on_deep_stack(move || fwd::run(kind, &sizes, &traced));
    assert_eq!(out.failed, 0);
    let get = |name: &str| out.per_layer.iter().find(|m| m.name == name).map(|m| m.value);
    assert!(get("dataplane.copies_per_pkt").unwrap() > 1.0, "the fan-out workload fans out");
    assert!(get("dataplane.deep_copies_per_pkt").unwrap() > 0.0);
    assert!(get("core.dispatch_ns").unwrap() > 0.0);
    assert!(get("trace.coverage").unwrap() > 0.5);
    assert!(dir.join("fwd-itch-fanout.trace.json").exists());

    let traced = RunConfig { trace: true, out_dir: dir.clone(), ..cfg(Tamper::None) };
    let out = on_deep_stack(move || {
        cold::run(&cold::Sizes { subs: 600, reps: 1, probes: 50, setups: 1 }, &traced)
    });
    assert_eq!(out.failed, 0);
    let coverage = out.per_layer.iter().find(|m| m.name == "trace.coverage").unwrap().value;
    assert!(coverage >= 0.90, "the replay's stages must account for the deploy: {coverage}");
    std::fs::remove_dir_all(&dir).unwrap();
}
