//! # netsim — deterministic packet-level network simulator
//!
//! This crate is the data-plane substrate for the CONMan reproduction.  The
//! original paper ran its protocol modules as user-level wrappers around the
//! Linux 2.6.14 networking stack on a five-machine testbed; here the same
//! protocols (Ethernet, ARP, IPv4, GRE, MPLS, 802.1Q VLAN, UDP, ICMP) are
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
//! * [`clock`] / [`event`] — simulated time and the event queue.
//! * [`mac`], [`ether`], [`vlan`], [`arp`], [`ipv4`], [`gre`], [`mpls`],
//!   [`udp`], [`icmp`] — wire-format codecs.
//! * [`route`] — longest-prefix-match routing tables and policy rules
//!   (the iproute2 `rule`/`table` model used by the paper's scripts).
//! * [`config`] — the device configuration written by CONMan modules or by
//!   the legacy ("today") scripts.
//! * [`engine`] — the forwarding engine (host / router / layer-2 switch).
//! * [`device`], [`nic`], [`link`], [`network`] — devices, ports, links and
//!   the network event loop.
//! * [`topology`] — canned topologies, including the paper's Figure 4 testbed.
//! * [`trace`], [`stats`] — packet traces and counters used by the tests and
//!   the experiment harness.
//! * [`fault`] — deterministic fault injection (link cuts/flaps, loss
//!   spikes, device crashes, misconfigurations) for the diagnosis layer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arp;
pub mod clock;
pub mod config;
pub mod device;
pub mod engine;
pub mod ether;
pub mod event;
pub mod fault;
pub mod gre;
pub mod icmp;
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
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, Misconfiguration};
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
