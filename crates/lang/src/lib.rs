//! # camus-lang — the Camus packet-subscription language
//!
//! This crate implements the subscription language from *Forwarding and
//! Routing with Packet Subscriptions* (Jepsen et al., CoNEXT 2020):
//!
//! * the abstract syntax of filters (Fig. 1 of the paper): logical
//!   expressions of constraints over packet attributes and state
//!   variables ([`ast`]),
//! * a lexer and a precedence parser that nests on the heap, for the
//!   concrete syntax used throughout the paper, e.g.
//!   `stock == GOOGL and price > 50: fwd(1)` ([`lexer`], [`parser`]),
//! * normalisation to disjunctive normal form, the first step of the
//!   compiler pipeline ([`dnf`]),
//! * the semantic algebra of atomic predicates — satisfiability,
//!   implication and intersection over numeric intervals and string
//!   equality/prefix constraints — used by the BDD reductions
//!   ([`sets`]),
//! * the annotated header specification language of Fig. 4, which plays
//!   the role of the user-provided P4 header declarations ([`spec`]),
//! * the α-discretisation filter-approximation scheme of §IV-D
//!   ([`approx`]).
//!
//! # Quick example
//!
//! ```
//! use camus_lang::parser::parse_rule;
//!
//! let rule = parse_rule("stock == GOOGL and price > 50: fwd(1,2)").unwrap();
//! assert_eq!(rule.action.ports(), Some(&[1u16, 2][..]));
//! ```

pub mod approx;
pub mod ast;
pub mod dnf;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod sets;
pub mod spec;
pub mod value;

pub use ast::{Action, AggFunc, Expr, Operand, Predicate, Rel, Rule};
pub use error::{LangError, Result};
pub use value::Value;
