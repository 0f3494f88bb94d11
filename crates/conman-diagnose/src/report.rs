//! Diagnosis results: ranked suspects with evidence.

use conman_core::ids::ModuleRef;
use conman_obs::Blame;
use netsim::device::DeviceId;
use netsim::stats::DropReason;
use serde::{Deserialize, Serialize};

/// What the diagnoser believes is at fault.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SuspectTarget {
    /// A specific module (e.g. a GRE module rejecting every packet).
    Module(ModuleRef),
    /// The physical pipe between two adjacent devices on the path.
    Link {
        /// Device on the near side (in path order).
        a: DeviceId,
        /// Device on the far side.
        b: DeviceId,
    },
    /// A whole device (crashed or silently dropping everything).
    Device(DeviceId),
    /// The loss could not be pinned inside the managed path (e.g. it happens
    /// beyond the egress, in the unmanaged customer site).
    Unlocated,
}

impl SuspectTarget {
    /// The target as the journal spells it: raw ids only.
    pub fn blame(&self) -> Blame {
        match self {
            SuspectTarget::Module(m) => Blame::Module {
                device: m.device.as_u64(),
                module: m.module.0,
            },
            SuspectTarget::Link { a, b } => Blame::Link {
                a: a.as_u64(),
                b: b.as_u64(),
            },
            SuspectTarget::Device(d) => Blame::Device { device: d.as_u64() },
            SuspectTarget::Unlocated => Blame::Unlocated,
        }
    }
}

/// One ranked fault hypothesis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Suspect {
    /// What is suspected.
    pub target: SuspectTarget,
    /// Confidence, 0–100.  Purely ordinal: used to rank hypotheses, not as
    /// a calibrated probability.
    pub confidence_pct: u8,
    /// A module suspect's drop reasons whose counts moved during the
    /// measurement, with the counts they moved by.  Empty for the other
    /// targets, whose counts are in the goal's `FrontierHop` events.
    pub evidence: Vec<(DropReason, u64)>,
}

/// The outcome of one diagnosis pass over a configured path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// End-to-end probes sent during the pass.
    pub probes_sent: u32,
    /// Probes that arrived.
    pub probes_delivered: u32,
    /// Did the path carry every probe (no fault observed)?
    pub healthy: bool,
    /// Ranked fault hypotheses, most confident first.  Empty iff `healthy`
    /// or the diagnoser had nothing to go on.
    pub suspects: Vec<Suspect>,
    /// Devices on the path that did not answer the telemetry poll.
    pub unresponsive: Vec<DeviceId>,
}

impl FaultReport {
    /// A healthy report (all probes delivered).
    pub fn healthy(probes: u32) -> Self {
        FaultReport {
            probes_sent: probes,
            probes_delivered: probes,
            healthy: true,
            suspects: Vec::new(),
            unresponsive: Vec::new(),
        }
    }

    /// The most confident suspect, if any.
    pub fn prime_suspect(&self) -> Option<&Suspect> {
        self.suspects.first()
    }

    /// Does any suspect blame the given module?
    pub fn blames_module(&self, module: &ModuleRef) -> bool {
        self.suspects
            .iter()
            .any(|s| matches!(&s.target, SuspectTarget::Module(m) if m == module))
    }

    /// Does any suspect blame the link between these two devices (either
    /// direction)?
    pub fn blames_link(&self, x: DeviceId, y: DeviceId) -> bool {
        self.suspects.iter().any(|s| {
            matches!(&s.target, SuspectTarget::Link { a, b }
                if (*a == x && *b == y) || (*a == y && *b == x))
        })
    }

    /// Does any suspect blame the given device as a whole?
    pub fn blames_device(&self, device: DeviceId) -> bool {
        self.suspects
            .iter()
            .any(|s| matches!(&s.target, SuspectTarget::Device(d) if *d == device))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conman_core::ids::{ModuleId, ModuleKind};

    #[test]
    fn report_queries() {
        let d1 = DeviceId::from_raw(1);
        let d2 = DeviceId::from_raw(2);
        let m = ModuleRef::new(ModuleKind::Gre, ModuleId(5), d2);
        let report = FaultReport {
            probes_sent: 4,
            probes_delivered: 0,
            healthy: false,
            suspects: vec![
                Suspect {
                    target: SuspectTarget::Module(m.clone()),
                    confidence_pct: 85,
                    evidence: vec![(DropReason::TunnelMismatch, 4)],
                },
                Suspect {
                    target: SuspectTarget::Link { a: d1, b: d2 },
                    confidence_pct: 40,
                    evidence: vec![],
                },
            ],
            unresponsive: vec![],
        };
        assert!(report.blames_module(&m));
        assert!(
            report.blames_link(d2, d1),
            "link blame is direction-agnostic"
        );
        assert!(!report.blames_device(d1));
        assert_eq!(report.prime_suspect().unwrap().confidence_pct, 85);
        assert_eq!(
            report.suspects[1].target.blame(),
            Blame::Link { a: 1, b: 2 },
            "the journal spells a link by its path-order device ids"
        );
        assert!(FaultReport::healthy(3).suspects.is_empty());
    }
}
