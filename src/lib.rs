//! # camus — in-network publish/subscribe with packet subscriptions
//!
//! Facade crate re-exporting the whole Camus workspace. See the README
//! for an architecture overview and `DESIGN.md` for the system
//! inventory.

pub use camus_apps as apps;
pub use camus_bdd as bdd;
pub use camus_core as core;
pub use camus_dataplane as dataplane;
pub use camus_faults as faults;
pub use camus_lang as lang;
pub use camus_net as net;
pub use camus_routing as routing;
pub use camus_workloads as workloads;
