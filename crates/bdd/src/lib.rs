//! # camus-bdd — multi-terminal binary decision diagrams for packet
//! subscriptions
//!
//! The Camus compiler represents the whole local rule set of a switch as
//! a single *multi-terminal* BDD (§V-B/C of the paper): non-terminal
//! nodes test atomic predicates (`price > 50`, `stock == "GOOGL"`), and
//! terminal nodes carry the **set of matching rules** (merged into one
//! forwarding action downstream). This crate provides:
//!
//! * an ordered variable space where variables are atomic predicates,
//!   grouped by field so that every root-to-terminal path tests fields
//!   in the same order — the property Algorithm 2 needs to slice the
//!   BDD into per-field table components ([`order`]),
//! * a hash-consed node store with the three reductions of §V-C —
//!   (i) isomorphic-subgraph sharing, (ii) same-child elimination, and
//!   (iii) *domain-specific implication pruning*: a node whose predicate
//!   is decided by an ancestor on the same field is bypassed — plus a
//!   fourth, *redundant-test elimination*: a node one of whose branches
//!   restricts to the other under the tested predicate is replaced by
//!   that branch, which makes the reduced form independent of the order
//!   unions are folded in ([`store`], [`builder`]),
//! * one bulk constructor from DNF rule sets — a sorted exact-match
//!   chain per equality band, balanced union of the remaining per-rule
//!   chains — behind both the one-shot [`builder`] and the seed of
//!   [`incremental`] maintenance,
//! * rule-granular incremental maintenance — insert/remove against the
//!   live store in time proportional to the delta, with capacity-
//!   triggered mark-and-sweep GC ([`incremental`], [`store`]),
//! * exact evaluation against a packet and graph statistics
//!   ([`store`]).
//!
//! ```
//! use camus_bdd::builder::BddBuilder;
//! use camus_lang::parser::parse_rule;
//!
//! let rules = vec![
//!     parse_rule("stock == GOOGL and price > 50: fwd(1)").unwrap(),
//!     parse_rule("stock == GOOGL and shares == 10: fwd(2)").unwrap(),
//!     parse_rule("price > 30: fwd(3)").unwrap(),
//! ];
//! let bdd = BddBuilder::from_rules(&rules).build();
//! // A packet for GOOGL at price 60 matches rules 0 and 2.
//! let matched = bdd.eval(|op| match op.field_name() {
//!     "stock" => Some("GOOGL".into()),
//!     "price" => Some(60i64.into()),
//!     "shares" => Some(5i64.into()),
//!     _ => None,
//! });
//! assert!(matched.contains(&0) && matched.contains(&2) && !matched.contains(&1));
//! ```

pub mod builder;
pub mod digest;
pub mod incremental;
pub mod order;
pub mod store;

pub use builder::{BddBuilder, DEEP_STACK};
pub use digest::rule_digest;
pub use incremental::IncrementalBdd;
pub use order::VarOrder;
pub use store::{Bdd, GcStats, Node, NodeRef, PredId, TermId};
