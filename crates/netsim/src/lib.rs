//! # netsim — deterministic packet-level network simulator
//!
//! This crate is the data-plane substrate for the CONMan reproduction.  The
//! original paper ran its protocol modules as user-level wrappers around the
//! Linux 2.6.14 networking stack on a five-machine testbed; here the same
//! protocols (Ethernet, ARP, IPv4, GRE, MPLS, 802.1Q VLAN, UDP) are
//! implemented as byte-accurate codecs and a configurable forwarding engine
//! driven by a discrete-event scheduler.
//!
//! The simulator is intentionally synchronous and deterministic (smoltcp-style
//! poll-driven design rather than an async runtime): every run with the same
//! seed and the same configuration produces the same packet trace, which makes
//! the reproduction experiments and property tests stable.
//!
//! ## Layout
//!
//! A module is public because something outside this crate names it; the
//! interface is the `pub mod` / `pub use` list below, and
//! `#![warn(unreachable_pub)]` (an error under CI's `clippy -D warnings`)
//! keeps a `pub` that nothing can reach from compiling.
//!
//! * [`clock`] — simulated time ([`SimTime`], [`SimDuration`]) and the
//!   control loop's [`clock::StepClock`].
//! * [`mac`], [`ether`], [`vlan`], [`ipv4`], [`gre`], [`mpls`], [`udp`] —
//!   wire-format codecs (the property tests round-trip them).  ICMP is a
//!   protocol number ([`Ipv4Proto::Icmp`]) and nothing more: no device
//!   answers echo requests, because nothing in the reproduction pings.
//! * [`route`] — longest-prefix-match routing tables and policy rules
//!   (the iproute2 `rule`/`table` model used by the paper's scripts), both
//!   kept sorted so that a lookup does not walk them.
//! * [`config`] — the device configuration written by CONMan modules or by
//!   the legacy ("today") scripts.  Its tunnel table has one door
//!   ([`DeviceConfig::add_tunnel`] / [`DeviceConfig::remove_tunnel`]), which
//!   is where a tunnel's runtime state is born and dies and which keeps the
//!   index of tunnel addresses [`DeviceConfig::is_local_address`] reads.
//! * [`device`], [`nic`], [`link`], [`network`] — devices, ports,
//!   point-to-point links and the network event loop.
//! * [`topology`] — canned topologies, including the paper's Figure 4 testbed.
//! * [`trace`], [`stats`] — packet traces and counters used by the tests and
//!   the experiment harness.
//! * [`fault`] — deterministic fault injection (link cuts/flaps, loss
//!   spikes, device crashes, misconfigurations) for the diagnosis layer.
//!
//! Private, because only [`Network`] and [`Device`] drive them: `arp` (packet
//! codec, cache and pending queue), `event` (the frame-arrival queue) and
//! `engine` (the forwarding engine — host / router / layer-2 switch — as
//! `impl Device`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod arp;
pub mod clock;
pub mod config;
pub mod device;
mod engine;
pub mod ether;
mod event;
pub mod fault;
pub mod gre;
pub mod ipv4;
pub mod link;
pub mod mac;
pub mod mpls;
pub mod network;
pub mod nic;
pub mod route;
pub mod stats;
pub mod topology;
pub mod trace;
pub mod udp;
pub mod vlan;

pub use clock::{SimDuration, SimTime};
pub use config::DeviceConfig;
pub use device::{Device, DeviceId, DeviceRole, PortId};
pub use ether::{EtherType, EthernetFrame};
pub use fault::{FaultInjector, FaultKind, FaultPlan, Misconfiguration};
pub use ipv4::{Ipv4Cidr, Ipv4Header, Ipv4Proto};
pub use link::{Link, LinkId, LinkProperties};
pub use mac::MacAddr;
pub use network::Network;
pub use stats::{DeviceStats, DropReason, FlowCounters};
pub use trace::{PacketSummary, PacketTrace, TraceEntry};

/// Errors produced while encoding or decoding wire formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer was shorter than the fixed header requires.
    Truncated {
        /// Protocol whose header was truncated.
        what: &'static str,
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// A checksum did not verify.
    BadChecksum(&'static str),
    /// A field held a value the codec cannot interpret.
    BadField {
        /// Protocol and field name.
        what: &'static str,
        /// Offending value.
        value: u64,
    },
    /// The header advertised an unsupported version.
    BadVersion {
        /// Protocol name.
        what: &'static str,
        /// Version found.
        version: u8,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { what, needed, got } => {
                write!(
                    f,
                    "{what}: truncated header (need {needed} bytes, got {got})"
                )
            }
            CodecError::BadChecksum(what) => write!(f, "{what}: checksum mismatch"),
            CodecError::BadField { what, value } => {
                write!(f, "{what}: unsupported field value {value}")
            }
            CodecError::BadVersion { what, version } => {
                write!(f, "{what}: unsupported version {version}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Convenience result alias for codec operations.
pub type CodecResult<T> = Result<T, CodecError>;
