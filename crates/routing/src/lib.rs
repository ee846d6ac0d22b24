//! # camus-routing — routing on packet subscriptions
//!
//! The controller half of Camus (§IV of the paper): turning the
//! end-point subscription sets into a *global routing policy* — an
//! assignment of filter sets `F_p^s` to every port `p` of every switch
//! `s` — and then into per-switch rule lists for the compiler.
//!
//! * [`topology`] models hierarchical (Fat-Tree-like) data-center
//!   networks: layered switches with *up* and *down* links, hosts
//!   attached to ToR ports. The logical **up** port abstraction of
//!   §IV-C is preserved: a switch's up links are one logical port.
//! * [`algorithm1`] implements Algorithm 1 with both policies:
//!   memory-reduction (**MR**, `F_up = {true}`) and traffic-reduction
//!   (**TR**, `F_up` = exactly the subscriptions outside the subtree),
//!   plus the α-discretisation approximation of §IV-D applied to
//!   aggregated (non-access) filter sets.
//! * [`verify`] finds the hosts a published packet must reach
//!   ([`verify::matching_hosts`]), the definition the service audit
//!   checks each commit's deliveries against.
//! * [`compile`] runs the Camus compiler for every switch (in parallel
//!   on `par::run_parallel`) and aggregates per-layer entry counts and
//!   compile times (Figs. 13 and 14).

pub mod algorithm1;
pub mod compile;
pub mod par;
pub mod topology;
pub mod verify;

pub use algorithm1::{route_hierarchical, Policy, RoutingConfig, RoutingResult};
pub use topology::{HierNet, HostId, SwitchId, LOGICAL_UP};
