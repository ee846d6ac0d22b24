//! # camus-core — the Camus packet-subscription compiler
//!
//! The primary contribution of *Forwarding and Routing with Packet
//! Subscriptions* (Jepsen et al., CoNEXT 2020): compiling sets of
//! subscription rules into the match-action tables of a programmable
//! switch pipeline.
//!
//! The compiler has two steps (§V):
//!
//! * **Static compilation** ([`statics`]) runs once per application. It
//!   takes the annotated header specification ([`camus_lang::spec`])
//!   and produces the pipeline *layout*: one match stage per
//!   subscribable field (in BDD variable order), a final leaf stage,
//!   and the register allocation for stateful predicates.
//! * **Dynamic compilation** ([`compiler`], [`tables`]) runs whenever
//!   subscriptions change. It normalises the rules, builds a
//!   multi-terminal BDD ([`camus_bdd`]), slices it into per-field
//!   components, and emits the control-plane entries that realise the
//!   BDD as a fixed-length pipeline (Algorithm 2, Fig. 6).
//!
//! Also here: the multicast-group allocator for overlapping filters
//! (§VII-C, [`multicast`]) and the switch resource model used for
//! Table I and admission ([`resources`]).
//!
//! ```
//! use camus_core::compiler::Compiler;
//! use camus_lang::parser::parse_rules;
//!
//! let rules = parse_rules(
//!     "stock == GOOGL and price > 50: fwd(1)\n\
//!      stock == GOOGL: fwd(2)\n",
//! ).unwrap();
//! let compiled = Compiler::new().compile(&rules).unwrap();
//! let action = compiled.pipeline.evaluate(|op| match op.field_name() {
//!     "stock" => Some("GOOGL".into()),
//!     "price" => Some(60i64.into()),
//!     _ => None,
//! });
//! // Both rules match: ports 1 and 2 merge into one multicast action.
//! assert_eq!(action.ports(), Some(&[1u16, 2][..]));
//! ```

pub mod compiled;
pub mod compiler;
pub mod multicast;
pub mod pipeline;
pub mod resources;
pub mod statics;
pub mod tables;

pub use camus_bdd::{digest, VarOrder};
pub use compiled::{ActionId, CompiledPipeline, EvalCounters, ShapeError};
pub use compiler::{CompileState, Compiled, Compiler, RuleView};
pub use pipeline::{MatchKind, MatchSpec, Pipeline, StageTable, TableEntry};
pub use resources::{AdmissionError, BudgetViolation, ResourceBudget, ResourceReport};
