//! `BENCHMARK.json` and the code must name the same things.

use camus_ledger::json::Json;
use camus_ledger::report::{CONTRACT, PER_LAYER};
use camus_ledger::workloads;

fn benchmark_json() -> Json {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<String> {
    list.array()
        .unwrap()
        .iter()
        .map(|m| m.get("name").unwrap().str().unwrap().to_string())
        .collect()
}

#[test]
fn has_exactly_the_contract_keys() {
    let keys: Vec<String> =
        benchmark_json().members().unwrap().into_iter().map(|(k, _)| k).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
}

#[test]
fn workloads_match_the_code() {
    let j = benchmark_json();
    assert_eq!(names(&j.get("workloads").unwrap()), workloads::NAMES);
    for w in j.get("workloads").unwrap().array().unwrap() {
        let why = w.get("why").unwrap();
        assert!(why.str().unwrap().len() <= 200 && !why.str().unwrap().contains('\n'));
    }
    assert_eq!(j.get("run_seconds").unwrap().num(), Some(camus_ledger::RUN_SECONDS as f64));
}

#[test]
fn end_to_end_metrics_match_the_code() {
    let listed = benchmark_json().get("end_to_end").unwrap();
    assert_eq!(names(&listed), CONTRACT.iter().map(|d| d.name).collect::<Vec<_>>());
    for (m, def) in listed.array().unwrap().iter().zip(&CONTRACT) {
        assert_eq!(m.get("unit").unwrap().str(), Some(def.unit));
        assert_eq!(m.get("better").unwrap().str(), Some(def.better.word()));
        assert_eq!(m.get("bound").unwrap().num(), Some(def.bound), "{}", def.name);
    }
}

#[test]
fn per_layer_metrics_match_the_code() {
    let listed = benchmark_json().get("per_layer").unwrap();
    assert_eq!(names(&listed), PER_LAYER.iter().map(|p| p.0).collect::<Vec<_>>());
    for (m, (_, unit, better)) in listed.array().unwrap().iter().zip(&PER_LAYER) {
        assert_eq!(m.get("unit").unwrap().str(), Some(*unit));
        assert_eq!(m.get("better").unwrap().str(), Some(better.word()));
    }
}

#[test]
fn every_workload_has_a_pinned_digest() {
    let pinned = Json::parse(include_str!("../digests.json")).unwrap();
    for name in workloads::NAMES {
        let hex = pinned.get(name).unwrap_or_else(|| panic!("no digest for {name}"));
        assert_eq!(hex.str().unwrap().len(), 16);
    }
}
