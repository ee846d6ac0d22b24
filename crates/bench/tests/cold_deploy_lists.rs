//! The `cold-deploy` lists compile to pinned pipelines.
//!
//! The ledger benchmark's `cold-deploy` input at seed 7 routes to 42
//! distinct switch lists. Each is compiled cold under its spec, and one
//! FNV-1a digest runs over their printed pipelines in list order. A
//! change to how the BDD is built may change node ids and the order
//! nodes are made in, but no emitted table: the digest must not move.

use camus_bdd::digest::Fnv1a;
use camus_bench::ledger::cold_deploy_lists;
use camus_core::Compiler;
use std::hash::Hasher;

#[test]
fn cold_deploy_lists_emit_pinned_pipelines() {
    let (lists, statics) = cold_deploy_lists(7);
    assert_eq!(lists.len(), 42);
    let compiler = Compiler::new().with_static(statics);
    let mut digest = Fnv1a(Fnv1a::OFFSET);
    for list in &lists {
        digest.write(compiler.compile(list).unwrap().pipeline.to_string().as_bytes());
    }
    assert_eq!(digest.finish(), 0xa8d4_3a1a_20e0_2149);
}
