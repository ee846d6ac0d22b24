//! # camus-bench — the evaluation harness
//!
//! One module per table/figure of the paper's evaluation (§VIII); the
//! `experiments` binary runs them and prints the same rows/series the
//! paper reports, plus CSV output under `results/`. Shape — who wins,
//! by roughly what factor, where crossovers fall — is the reproduction
//! target; absolute numbers come from the simulator and cost models
//! documented in DESIGN.md, not the authors' Tofino testbed.
//!
//! | module | artifact |
//! |---|---|
//! | [`experiments::fig8`]  | Fig. 8 — ITCH end-to-end latency CDFs |
//! | [`experiments::fig9`]  | Fig. 9 — INT filtering throughput vs #filters |
//! | [`experiments::fig11`] | Fig. 11 — hICN uncached-content latency |
//! | [`experiments::fig12`] | Fig. 12 — compiler memory vs the big table |
//! | [`experiments::tab1`]  | Table I — switch resources for three apps |
//! | [`experiments::fig13`] | Fig. 13 — Fat-Tree memory/traffic, MR vs TR, α |
//! | [`experiments::fig14`] | Fig. 14 — network recompile times |
//! | [`experiments::fig15`] | Fig. 15 — MST vs MST++ FIB entries |
//! | [`experiments::churn`] | Subscription churn — incremental recompile |
//! | [`experiments::scale`] | 10k→1M subscription compiler-scaling ladder |
//! | [`experiments::faults`] | Fault injection — repair latency & blackout |
//!
//! Beside the experiments sit the systems the paper measures Camus
//! against, which exist only to be measured:
//!
//! * [`baselines`] — software filtering and broker models (Figs. 8, 9);
//! * [`bigtable`] — the naive one-big-table entry count (Fig. 12);
//! * [`spanning`] — MST/MST++ trees for general topologies (Fig. 15).
//!
//! [`ledger`] rebuilds the ledger benchmark's `cold-deploy` input for
//! the compiler's probes and tests.

pub mod baselines;
pub mod bigtable;
pub mod experiments;
pub mod ledger;
pub mod mem;
pub mod output;
pub mod spanning;
