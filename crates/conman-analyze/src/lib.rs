//! # conman-analyze — static analysis for the CONMan NM
//!
//! CONMan's module abstraction exists so the NM can reason about
//! configuration *before* it touches devices: an invalid plan should be
//! rejected by analysis, not discovered by an outage.  This crate holds the
//! two pure analysis passes that make that claim checkable:
//!
//! * **Pre-flight plan/batch verifier** ([`plan`]) — given a neutral model
//!   of a planned batch ([`BatchModel`]), statically check the invariants
//!   the runtime otherwise only discovers dynamically: pipe-id blocks
//!   pairwise disjoint and under the derived-identifier cap, every script
//!   mirrored by a complete reverse-order teardown, per-device commit order
//!   acyclic across the batch, module refcount claims consistent with the
//!   module → goal index, and no plan crossing its own goal's exclusions.
//! * **Journal conformance checker** ([`conformance`]) — a protocol state
//!   machine over `conman-obs` trace events: spans properly nested and
//!   closed, every accepted stage resolved by a commit or abort in its
//!   pass, no verification probe before its pass committed anything,
//!   simulated timestamps monotone, repair epochs strictly increasing.
//!
//! Both passes return a typed [`Vec<Violation>`] carrying goal / device /
//! pipe provenance, ranked by [`Severity`].  Like the journal format, the
//! input model uses raw integer identifiers and display-string module keys,
//! so this crate sits *below* the management layers (it depends only on
//! `conman-obs`): `conman-core` builds the models and asserts on the
//! verdicts under `debug_assertions`, CI replays recorded journals through
//! the checker, and dumped artefacts can be validated with no live state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod conformance;
pub mod plan;
pub mod violation;

pub use conformance::check_journal;
pub use plan::{verify_batch, BatchModel, DeviceOps, GoalModel};
pub use violation::{Severity, Violation};
