//! The typed findings the journal checker returns.
//!
//! Every variant carries enough provenance (sequence number, transaction,
//! device, goal) to point at the offending event without re-running
//! anything.

use std::fmt;

/// One finding of the journal conformance checker.
///
/// Goal and device identifiers are raw integers (`GoalId.0`,
/// `DeviceId::as_u64()`) — the journal's own vocabulary, so findings are
/// meaningful without the management layers loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An event's sequence number breaks the 1-based dense numbering.
    BadSequence {
        /// Zero-based position of the event in the dump.
        index: usize,
        /// The sequence number found there (expected `index + 1`).
        seq: u64,
    },
    /// Simulated time went backwards between consecutive events.
    TimeRegression {
        /// The event recorded before its predecessor's timestamp.
        seq: u64,
        /// Its timestamp.
        at_ns: u64,
        /// The latest timestamp seen before it.
        prev_ns: u64,
    },
    /// An event's parent is not an open span (unknown, already closed, or
    /// not yet recorded).
    BadParent {
        /// The mis-parented event.
        seq: u64,
        /// The parent it claims.
        parent: u64,
    },
    /// A span opened or closed out of protocol: a closing event outside
    /// its span kind, events after a span's closing event, or a span
    /// never closed (`TickStart` without `TickEnd`, `DiagnoseStart`
    /// without `Diagnosed`, `RepairStart` without `RepairEnd`).
    UnbalancedSpan {
        /// The event (or span opener) at fault.
        seq: u64,
        /// What went wrong.
        detail: String,
    },
    /// Tick ordinals did not strictly increase across the journal.
    TickOrder {
        /// The offending `TickStart`.
        seq: u64,
        /// Its tick ordinal.
        tick: u64,
        /// The highest ordinal seen before it.
        prev: u64,
    },
    /// Repair epochs broke monotonicity, or a `RepairEnd` closed a pass
    /// under a different epoch than its `RepairStart` opened.
    EpochViolation {
        /// The offending event.
        seq: u64,
        /// The epoch it carries.
        epoch: u64,
        /// What went wrong.
        detail: String,
    },
    /// A commit or abort arrived for a `(txn, device)` pair that was never
    /// staged.
    UnstagedResolution {
        /// The offending commit/abort event.
        seq: u64,
        /// Its transaction id.
        txn: u64,
        /// Its device.
        device: u64,
    },
    /// A device accepted a stage but its pass ended without a commit or
    /// abort resolving it: staged state leaked.
    UnresolvedStage {
        /// The transaction that staged it.
        txn: u64,
        /// The device left holding staged state.
        device: u64,
    },
    /// A `(txn, device)` pair was committed more than once.
    DuplicateCommit {
        /// The second (or later) commit event.
        seq: u64,
        /// Its transaction id.
        txn: u64,
        /// Its device.
        device: u64,
    },
    /// A verification probe ran before its pass committed anything: the
    /// probe could only have measured the pre-repair configuration.
    VerifyBeforeCommit {
        /// The premature `Verify` event.
        seq: u64,
        /// The goal it probed.
        goal: u64,
    },
    /// A `FrontierHop` or `Suspect` was recorded inside a tick but outside
    /// the `DiagnoseStart` span of its own goal: the walk cannot be tied to
    /// the diagnosis it explains.
    StrayWalkEvent {
        /// The stray event.
        seq: u64,
        /// The goal whose walk it belongs to.
        goal: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::BadSequence { index, seq } => write!(
                f,
                "event at position {index} carries seq {seq} (expected {})",
                index + 1
            ),
            Violation::TimeRegression {
                seq,
                at_ns,
                prev_ns,
            } => write!(
                f,
                "event {seq} at {at_ns}ns is earlier than its predecessor ({prev_ns}ns)"
            ),
            Violation::BadParent { seq, parent } => {
                write!(f, "event {seq}'s parent {parent} is not an open span")
            }
            Violation::UnbalancedSpan { seq, detail } => {
                write!(f, "span protocol broken at event {seq}: {detail}")
            }
            Violation::TickOrder { seq, tick, prev } => write!(
                f,
                "tick ordinal {tick} at event {seq} does not exceed the previous tick {prev}"
            ),
            Violation::EpochViolation { seq, epoch, detail } => {
                write!(f, "epoch {epoch} at event {seq}: {detail}")
            }
            Violation::UnstagedResolution { seq, txn, device } => write!(
                f,
                "event {seq} resolves txn {txn} on device {device}, which was never staged"
            ),
            Violation::UnresolvedStage { txn, device } => write!(
                f,
                "txn {txn} staged device {device} but no commit or abort resolved it"
            ),
            Violation::DuplicateCommit { seq, txn, device } => write!(
                f,
                "event {seq} commits txn {txn} on device {device} a second time"
            ),
            Violation::VerifyBeforeCommit { seq, goal } => write!(
                f,
                "goal {goal} verified at event {seq} before its pass committed anything"
            ),
            Violation::StrayWalkEvent { seq, goal } => write!(
                f,
                "event {seq} of goal {goal}'s frontier walk sits outside that goal's diagnose span"
            ),
        }
    }
}
