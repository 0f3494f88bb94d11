//! # conman-diagnose — fault localisation for the closed loop
//!
//! CONMan's §III-C argues that the module abstraction is enough not only to
//! *configure* a network but to *diagnose* it: the NM knows the exact module
//! path it configured for a goal, and comparing counter deltas along that
//! path localises where traffic is being lost without the NM understanding a
//! single protocol field.  The walk reads two counters, both typed: each
//! path device's per-goal flow deltas (what reached the device and what it
//! moved on) find the device or link where the goal's traffic stops, and on
//! a device that ate it, the drop-reason deltas of each module's fault
//! domain (`CounterSnapshot::drop_breakdown`) name the module.  This crate
//! turns that sketch into a subsystem:
//!
//! * [`report`] — the [`FaultReport`] produced by diagnosis: ranked
//!   suspects (module, link or device) with confidence, a module suspect
//!   with the drop reasons that moved;
//! * [`diagnose`] — the [`Diagnoser`]: probe the goal end to end, pull
//!   counter snapshots along the configured
//!   [`ModulePath`](conman_core::ModulePath) over the management channel
//!   (either variant), compute deltas and localise the fault.  One such
//!   measurement can serve many goals: one poll before and one after all
//!   their bursts, then one walk per goal over its own flow tag;
//! * [`heal`] — [`Healer::exclusions`], the one mapping from a report's
//!   suspects to the modules and links a re-plan must avoid.  Repair itself
//!   is the NM's reconciler: an operator heals with
//!   `goals.mark_degraded(id, Healer::exclusions(..))` then
//!   `reconcile_with(probe)` (`tests/diagnosis.rs`,
//!   `examples/debugging.rs`), exactly what the control loop does per tick;
//! * [`autonomic`] — [`AutonomicClient`], which plugs the [`Diagnoser`] into
//!   `conman-core`'s event-driven
//!   [`ControlLoop`](conman_core::runtime::ControlLoop) as its diagnosis
//!   stage: a tick's degraded goals share one measurement, each is
//!   localised from its own flow deltas *while the other goals keep
//!   pushing traffic*, suspects become plan exclusions through
//!   [`Healer::exclusions`], and the loop itself repairs everything that
//!   needs work in one batched `reconcile_with` pass per tick.
//!
//! The companion fault-injection machinery ([`netsim::fault`]) produces the
//! failures this crate hunts: link cuts and flaps, loss spikes, device
//! crashes and module misconfigurations, all on deterministic, replayable
//! timelines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod autonomic;
pub mod diagnose;
pub mod heal;
pub mod report;

pub use autonomic::AutonomicClient;
pub use diagnose::Diagnoser;
pub use heal::Healer;
pub use report::{FaultReport, Suspect, SuspectTarget};
