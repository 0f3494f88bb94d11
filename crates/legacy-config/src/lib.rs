//! # legacy-config — the "today" configuration baseline
//!
//! The comparison target of the paper's evaluation: the device-level scripts
//! a human administrator (or a conventional management application that
//! merely adds syntactic sugar) has to produce to configure the same VPNs the
//! CONMan NM configures with generic primitives.
//!
//! * [`linux`] — the Figure 7(a) GRE and Figure 8(a) MPLS Linux scripts,
//!   including an interpreter that applies the GRE configuration to the
//!   simulated data plane so the baseline is functionally checkable.
//! * [`catos`] — the Figure 9(a) Cisco CatOS VLAN-tunnel script.
//! * [`classify`] — the Table V metric: generic vs protocol-specific commands
//!   and state variables, for both the legacy and the CONMan scripts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod catos;
pub mod classify;
pub mod linux;

pub use catos::vlan_script_today;
pub use classify::{classify_conman_script, ClassifiedScript, TableVCounts, TokenKind};
pub use linux::{apply_gre_today, gre_script_today, mpls_script_today, GreVpnParams};
