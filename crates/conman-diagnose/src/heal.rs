//! The suspect → exclusion mapping: what a diagnosis tells the planner to
//! avoid.
//!
//! There is no repair engine here.  A heal — the operator's or the control
//! loop's — is `GoalStore::mark_degraded(id, Healer::exclusions(..))`
//! followed by `ManagedNetwork::reconcile_with(probe)`; path ranking, the
//! reinstall-through fallback, verification, exclusion ageing, restore and
//! the repair-attempt budget all live in `conman_core::runtime::reconcile`.

use crate::report::{FaultReport, SuspectTarget};
use conman_core::nm::Exclusion;
use conman_core::runtime::ManagedNetwork;
use mgmt_channel::ManagementChannel;
use std::collections::BTreeSet;

/// Turns a diagnosis into planner constraints.
#[derive(Debug, Clone, Copy)]
pub struct Healer;

impl Healer {
    /// The exclusions the path search must respect, derived from the
    /// report: suspected modules directly, every module of a suspected
    /// device, and suspected *links* as traversal-level link exclusions.
    ///
    /// This is the **single** suspect→exclusion mapping in the system: the
    /// operator flow and the control loop's
    /// [`AutonomicClient`](crate::AutonomicClient) both call it, so the two
    /// cannot drift apart on how a diagnosis constrains the re-plan.
    pub fn exclusions<C: ManagementChannel>(
        mn: &ManagedNetwork<C>,
        report: &FaultReport,
    ) -> BTreeSet<Exclusion> {
        let mut excluded = BTreeSet::new();
        for suspect in &report.suspects {
            match &suspect.target {
                SuspectTarget::Module(m) => {
                    excluded.insert(Exclusion::Module(*m));
                }
                SuspectTarget::Device(d) => {
                    if let Some(mods) = mn.nm.abstractions.get(d) {
                        excluded.extend(mods.iter().map(|a| Exclusion::Module(a.name)));
                    }
                }
                SuspectTarget::Link { a, b } => {
                    excluded.insert(Exclusion::link(*a, *b));
                }
                SuspectTarget::Unlocated => {}
            }
        }
        excluded
    }
}
