//! # conman-analyze — the offline journal checker
//!
//! A flight-recorder dump should be checkable with no live state and no
//! simulator: this crate replays one through [`check_journal`], a protocol
//! state machine over `conman-obs` trace events — spans properly nested and
//! closed, every frontier walk inside its own goal's diagnose span, every
//! accepted stage resolved by a commit or abort in its pass,
//! no verification probe before its pass committed anything, simulated
//! timestamps monotone, repair epochs strictly increasing.
//!
//! It returns a typed [`Vec<Violation>`] carrying sequence / transaction /
//! device / goal provenance.  Like the journal format, it speaks raw
//! integer identifiers, so the crate depends on `conman-obs` alone: CI
//! replays every smoke-dumped journal through it and keeps its build
//! simulator-free.  (A plan is checked before execution by `conman-core`'s
//! `runtime::verify`, in the plan's own types.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod conformance;
pub mod violation;

pub use conformance::check_journal;
pub use violation::Violation;
