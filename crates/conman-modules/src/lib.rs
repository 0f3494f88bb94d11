//! # conman-modules — CONMan protocol modules over the simulated data plane
//!
//! The concrete protocol modules the paper implemented as user-level wrappers
//! around the Linux data plane, re-implemented here as wrappers around the
//! `netsim` forwarding engine:
//!
//! * [`eth::EthModule`] — Ethernet, bound to physical ports,
//! * [`ip::IpModule`] — IPv4 "virtual routers" (customer VRFs and the ISP
//!   core), including IP-IP tunnelling,
//! * [`gre::GreModule`] — GRE tunnels with key / sequencing / checksum
//!   negotiation (Table III),
//! * [`mpls::MplsModule`] — MPLS LSPs with label distribution,
//! * [`vlan::VlanModule`] — provider VLAN (Q-in-Q) tunnelling,
//!
//! plus [`builder`] functions that assemble the per-device management agents
//! of Figures 2, 4 and 9, and [`testbed`] helpers that wire complete managed
//! networks together for the examples, tests and experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod eth;
pub mod gre;
pub mod ip;
pub mod mpls;
#[cfg(test)]
mod rig;
pub mod testbed;
pub mod vlan;

pub use builder::{
    build_l2_switch_agent, build_plain_router_agent, build_router_agent, build_tunnel_host_agent,
    build_vlan_switch_agent, RouterPlan,
};
pub use eth::EthModule;
pub use gre::GreModule;
pub use ip::{derived_table_range, IpModule};
pub use mpls::MplsModule;
pub use testbed::{
    managed_chain, managed_chain_with, managed_dual_chain, managed_fanout_chain,
    managed_fanout_chain_with, managed_figure2, managed_mesh_fanout, managed_mesh_fanout_with,
    managed_ring_fanout, managed_vlan_chain, ManagedChain, ManagedFigure2, ManagedMesh,
    ManagedVlanChain,
};
pub use vlan::VlanModule;

/// The `showActual` listing of a module that keeps each applied switch
/// rule's rendering, tagged with its application number, beside the state
/// the rule installed: the renderings in application order.
fn in_applied_order<'a>(rendered: impl Iterator<Item = &'a (u64, String)>) -> Vec<String> {
    let mut rules: Vec<_> = rendered.collect();
    rules.sort_unstable_by_key(|(applied, _)| *applied);
    rules.into_iter().map(|(_, rule)| rule.clone()).collect()
}
