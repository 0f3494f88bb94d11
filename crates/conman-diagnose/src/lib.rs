//! # conman-diagnose — closed-loop diagnosis and self-healing
//!
//! CONMan's §III-C argues that the module abstraction is enough not only to
//! *configure* a network but to *diagnose* it: the NM knows the exact module
//! path it configured for a goal, every module reports generic per-pipe
//! counters, and comparing counter deltas along the path localises where
//! traffic is being lost without the NM understanding a single protocol
//! field.  This crate turns that sketch into a subsystem:
//!
//! * [`telemetry`] — periodic counter-snapshot collection over the
//!   management channel (either variant), driven by the deterministic clock;
//! * [`report`] — the [`FaultReport`] produced by diagnosis: ranked
//!   suspects (module, link or device) with evidence and confidence;
//! * [`diagnose`] — the [`Diagnoser`]: probe the goal end to end, pull
//!   snapshots along the configured [`ModulePath`](conman_core::ModulePath),
//!   compute deltas and localise the fault;
//! * [`heal`] — the [`Healer`], a client of the NM's reconciler and the
//!   operator's one-shot repair flow (`tests/diagnosis.rs`,
//!   `examples/debugging.rs`, `experiments diagnosis`): mark the goal
//!   degraded with the suspects excluded, tear the failed configuration
//!   down through the transactional withdraw path, execute candidate
//!   re-plans as two-phase transactions (e.g. the GRE-IP fallback when the
//!   MPLS core dies) and verify the repair with end-to-end probes;
//! * [`autonomic`] — [`AutonomicClient`], which plugs the [`Diagnoser`] into
//!   `conman-core`'s event-driven
//!   [`ControlLoop`](conman_core::runtime::ControlLoop) as its diagnosis
//!   stage: localisation runs on per-goal flow deltas *while the other
//!   goals keep pushing traffic*, suspects become plan exclusions through
//!   [`Healer::exclusions`] (the only part of the Healer the loop calls),
//!   and the loop itself repairs everything that needs work in one batched
//!   `reconcile_with` pass per tick.
//!
//! The companion fault-injection machinery ([`netsim::fault`]) produces the
//! failures this crate hunts: link cuts and flaps, loss spikes, device
//! crashes and module misconfigurations, all on deterministic, replayable
//! timelines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autonomic;
pub mod diagnose;
pub mod heal;
pub mod report;
pub mod telemetry;

pub use autonomic::AutonomicClient;
pub use diagnose::Diagnoser;
pub use heal::{HealOutcome, Healer};
pub use report::{FaultReport, Suspect, SuspectTarget};
pub use telemetry::{TelemetryCollector, TelemetryRound};
