//! The compile of one rule list, stage by stage.
//!
//! `Compiler::compile` is one public call; its stages are public
//! too. The traced runs call them one after another, each inside its
//! own span, so a deploy's wall time decomposes into BDD build, table
//! emission and resource accounting per switch.

use crate::trace::Tracer;
use camus_bdd::BddBuilder;
use camus_core::compiler::Compiled;
use camus_core::multicast::MulticastAllocator;
use camus_core::pipeline::Pipeline;
use camus_core::resources;
use camus_core::statics::StaticPipeline;
use camus_core::tables::bdd_to_pipeline;
use camus_dataplane::Switch;
use camus_lang::ast::Rule;
use std::time::Instant;

/// What `Compiler::new().with_static(statics).compile(rules)` returns,
/// built through the same stages in the same order. The caller runs on
/// a deep stack (BDD recursion is as deep as the longest variable
/// chain).
pub fn compile_staged(tr: &mut Tracer, rules: &[Rule], statics: &StaticPipeline) -> Compiled {
    let start = Instant::now();
    let bdd = tr.span("bdd.build", |_| {
        BddBuilder::from_rules(rules).with_order(statics.var_order()).build()
    });
    let mut multicast = MulticastAllocator::new(MulticastAllocator::DEFAULT_LIMIT);
    let pipeline = tr
        .span("core.emit", |_| bdd_to_pipeline(&bdd, &mut multicast))
        .expect("generated rules fit the multicast budget");
    let report = tr.span("core.resources", |_| {
        resources::report(&pipeline, multicast.group_count(), &statics.widths())
    });
    Compiled { bdd, pipeline, multicast, report, elapsed: start.elapsed() }
}

/// One switch's share of an install transaction: stage, commit,
/// finalise. The benchmark's switches have an unlimited budget.
pub fn install(sw: &mut Switch, pipeline: Pipeline) {
    sw.stage(pipeline).expect("an unlimited budget admits the pipeline");
    sw.commit_staged();
    sw.finalize_install();
}
