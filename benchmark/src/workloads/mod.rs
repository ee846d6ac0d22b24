//! The four workloads.

pub mod churn;
pub mod cold;
pub mod fwd;
pub mod stages;

use crate::{Outcome, RunConfig};

/// Workload names, in the order the one command runs them.
pub const NAMES: [&str; 4] = ["fwd-int", "fwd-itch-fanout", "churn-burst", "cold-deploy"];

/// Run workload `name` at its pinned sizes. `None` for an unknown name.
pub fn run(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    Some(match name {
        "fwd-int" => fwd::run(fwd::Kind::Int, &fwd::Sizes::pinned(fwd::Kind::Int), cfg),
        "fwd-itch-fanout" => {
            fwd::run(fwd::Kind::ItchFanout, &fwd::Sizes::pinned(fwd::Kind::ItchFanout), cfg)
        }
        "churn-burst" => churn::run(&churn::Sizes::pinned(), cfg),
        "cold-deploy" => cold::run(&cold::Sizes::pinned(), cfg),
        _ => return None,
    })
}
