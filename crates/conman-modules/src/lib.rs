//! # conman-modules — CONMan protocol modules over the simulated data plane
//!
//! The concrete protocol modules the paper implemented as user-level wrappers
//! around the Linux data plane, re-implemented here as wrappers around the
//! `netsim` forwarding engine:
//!
//! * `eth::EthModule` — Ethernet, bound to physical ports,
//! * `ip::IpModule` — IPv4 "virtual routers" (customer VRFs and the ISP
//!   core), including IP-IP tunnelling,
//! * `gre::GreModule` — GRE tunnels with key / sequencing / checksum
//!   negotiation (Table III),
//! * `mpls::MplsModule` — MPLS LSPs with label distribution,
//! * `vlan::VlanModule` — provider VLAN (Q-in-Q) tunnelling,
//!
//! plus the `builder` functions that assemble the per-device management
//! agents of Figures 2, 4 and 9.  What the IP, GRE, MPLS and VLAN modules
//! negotiate with their peers is each module's own closed message type,
//! encoded to the bytes the NM relays unread (`dialect`); a body that does
//! not decode is refused, never read with defaults.  Which pipe such a
//! message belongs to is decided in one place, `exchange`: a message names
//! the pipe it is for and pairs with it when that pipe waits for such a
//! message from its sender; any other message pairs with nothing and
//! changes nothing.
//!
//! All of that is private: what the crate offers is [`testbed`], the
//! complete managed networks the examples, tests, experiments and the
//! benchmark drive, and [`derived_table_range`]; the modules are reached the
//! way the NM reaches them, through a device's agent.
//! (`#![warn(unreachable_pub)]` keeps it so.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod builder;
#[cfg(test)]
mod delivery;
mod dialect;
mod eth;
mod exchange;
mod gre;
mod ip;
mod mpls;
#[cfg(test)]
mod rig;
pub mod testbed;
mod vlan;

pub use ip::derived_table_range;
pub use testbed::{
    managed_chain, managed_chain_with, managed_dual_chain, managed_dual_chain_with,
    managed_fanout_chain, managed_fanout_chain_with, managed_figure2, managed_mesh_fanout,
    managed_mesh_fanout_with, managed_ring_fanout, managed_vlan_chain, ManagedChain,
    ManagedFigure2, ManagedMesh, ManagedVlanChain,
};

/// Drop what `part` holds, then tell a heap census its name (see
/// `ProtocolModule::drop_parts`).
fn drop_part<T: Default>(dropped: &mut dyn FnMut(std::fmt::Arguments), name: &str, part: &mut T) {
    drop(std::mem::take(part));
    dropped(format_args!("{name}"));
}
