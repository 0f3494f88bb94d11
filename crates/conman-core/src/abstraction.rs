//! The Module Abstraction (Table II): the generic, protocol-agnostic way a
//! data-plane module self-describes its potential to the NM.

use crate::ids::{ModuleKind, ModuleRef};
use netsim::device::PortId;
use netsim::link::LinkId;
use netsim::stats::DropReason;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The switching configurations a module can support between its up, down
/// and physical pipes (§II-C.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SwitchKind {
    /// `[down ⇒ up]`: decapsulate and hand upwards (e.g. TCP, tunnel exit).
    DownUp,
    /// `[up ⇒ down]`: encapsulate and hand downwards.
    UpDown,
    /// `[down ⇒ down]`: process the header and forward (IP forwarding).
    DownDown,
    /// `[up ⇒ up]`: loopback switching.
    UpUp,
    /// `[up ⇒ phy]`: encapsulate onto a physical pipe (Ethernet transmit).
    UpPhy,
    /// `[phy ⇒ up]`: decapsulate from a physical pipe (Ethernet receive).
    PhyUp,
    /// `[phy ⇒ phy]`: forward between physical pipes (a layer-2 switch).
    PhyPhy,
}

impl SwitchKind {
    /// Does this switching step add a header (encapsulation)?
    pub fn encapsulates(self) -> bool {
        matches!(self, SwitchKind::UpDown | SwitchKind::UpPhy)
    }

    /// Does this switching step remove a header (decapsulation)?
    pub fn decapsulates(self) -> bool {
        matches!(self, SwitchKind::DownUp | SwitchKind::PhyUp)
    }

    /// Display string matching the paper's notation.
    pub fn notation(self) -> &'static str {
        match self {
            SwitchKind::DownUp => "[Down=>Up]",
            SwitchKind::UpDown => "[Up=>Down]",
            SwitchKind::DownDown => "[Down=>Down]",
            SwitchKind::UpUp => "[Up=>Up]",
            SwitchKind::UpPhy => "[Up=>Phy]",
            SwitchKind::PhyUp => "[Phy=>Up]",
            SwitchKind::PhyPhy => "[Phy=>Phy]",
        }
    }
}

/// Where switching state comes from (§II-C.2 / §II-F): generated by the
/// module itself through peer interaction, or provided externally (a control
/// module or the NM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchStateSource {
    /// The module determines its own switching state by talking to peers.
    GeneratedLocally,
    /// The state must be provided externally.
    ProvidedExternally,
}

/// Switch capability advertisement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwitchCapability {
    /// Supported switching configurations.
    pub kinds: Vec<SwitchKind>,
    /// Unicast or multicast switch.
    pub multicast: bool,
    /// Where the switching state comes from.
    pub state_source: SwitchStateSource,
    /// Does the module's `[down ⇒ down]` leave the header stack as it is,
    /// carrying any header without reading one of its own (a VLAN bridge)?
    pub transparent_down_down: bool,
}

/// A dependency that must be satisfied before a pipe can be created
/// (Table III row iii: "Performance Trade-offs to be specified").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dependency {
    /// Short identifier of the dependency.
    pub id: String,
    /// Human-readable description.
    pub description: String,
}

impl Dependency {
    /// Convenience constructor.
    pub fn new(id: impl Into<String>, description: impl Into<String>) -> Self {
        Dependency {
            id: id.into(),
            description: description.into(),
        }
    }
}

/// The six generic performance metrics of §II-C.4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PerformanceMetric {
    /// One-way delay.
    Delay,
    /// Delay variation.
    Jitter,
    /// Throughput.
    Bandwidth,
    /// Packet loss rate.
    LossRate,
    /// Residual bit error rate.
    ErrorRate,
    /// In-order delivery.
    Ordering,
}

/// A performance trade-off a module can enforce on a traffic class
/// (e.g. Table III row xi: `{[Jitter, Delay] vs [In-order delivery] | Up-pipe}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfTradeoff {
    /// Metrics that get worse when the trade-off is enabled.
    pub costs: Vec<PerformanceMetric>,
    /// Metrics that improve when the trade-off is enabled.
    pub improves: Vec<PerformanceMetric>,
    /// The pipe class the trade-off can be applied to ("Up-pipe", ...).
    pub applies_to: String,
}

/// What a module can classify on when filtering (§II-C.3).  Filters are
/// expressed in terms of abstract components, never protocol fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterClassifier {
    /// Filter on the source module of the traffic.
    SourceModule,
    /// Filter on the destination module of the traffic.
    DestinationModule,
    /// Filter on the module type (e.g. all HTTP clients).
    ModuleType,
    /// Filter on the pipe traffic arrives on.
    Pipe,
    /// Filter on the device traffic comes from.
    Device,
}

/// Filter capability advertisement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FilterCapability {
    /// What the module can classify on.
    pub classifiers: Vec<FilterClassifier>,
}

/// Security capability advertisement (§II-C.5).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SecurityCapability {
    /// Can the module guarantee integrity?
    pub integrity: bool,
    /// Can the module guarantee authenticity?
    pub authenticity: bool,
    /// Can the module guarantee confidentiality?
    pub confidentiality: bool,
    /// Dependency that must supply keying material, if the module cannot
    /// negotiate it itself (e.g. IPsec depending on IKE).
    pub external_state: Option<Dependency>,
}

/// One module's answer to the telemetry `pollCounters` exchange: the
/// device's drop counts for the reasons in the module's fault domain
/// ([`ProtocolModule::fault_domain`](crate::module::ProtocolModule::fault_domain)).
/// It is all diagnosis reads of a module: the frontier walk runs on per-goal
/// flow deltas, and a module's drop-reason delta only refines a device the
/// walk already blamed down to the module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// The reporting module.
    pub module: ModuleRef,
    /// Drop counts by reason; a reason the device never recorded is absent.
    pub drop_breakdown: BTreeMap<DropReason, u64>,
}

impl CounterSnapshot {
    /// The counter delta `self - earlier`, reason by reason.
    pub fn delta_since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let before = |reason: &DropReason| earlier.drop_breakdown.get(reason).copied().unwrap_or(0);
        CounterSnapshot {
            module: self.module.clone(),
            drop_breakdown: self
                .drop_breakdown
                .iter()
                .map(|(reason, count)| (*reason, count.saturating_sub(before(reason))))
                .collect(),
        }
    }
}

/// A physical pipe attached to a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalPipeInfo {
    /// The port this module is bound to.
    pub port: PortId,
    /// The link attached to that port, if any (the NM can discover and
    /// enable physical pipes but not create them).
    pub link: Option<LinkId>,
    /// Whether the physical pipe is point-to-point or broadcast.
    pub broadcast: bool,
}

/// The full module abstraction advertised through `showPotential` (Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleAbstraction {
    /// `<name, module-id, device-id>`.
    pub name: ModuleRef,
    /// Module kinds this module can have an up pipe to (connectable-modules).
    pub up_connectable: Vec<ModuleKind>,
    /// Dependencies for creating an up pipe.
    pub up_dependencies: Vec<Dependency>,
    /// Module kinds this module can have a down pipe to.
    pub down_connectable: Vec<ModuleKind>,
    /// Dependencies for creating a down pipe.
    pub down_dependencies: Vec<Dependency>,
    /// Physical pipes connected to the module.
    pub physical_pipes: Vec<PhysicalPipeInfo>,
    /// Module kinds that can be peers of this module.
    pub peerable: Vec<ModuleKind>,
    /// Filtering capability (None / empty = "Nil" in Table III).
    pub filter: FilterCapability,
    /// Switching capability.
    pub switch: SwitchCapability,
    /// Performance metrics the module reports.
    pub perf_reporting: Vec<String>,
    /// Performance trade-offs on offer.
    pub perf_tradeoffs: Vec<PerfTradeoff>,
    /// Explicit performance enforcement (queuing, shaping, service classes).
    pub perf_enforcement: Vec<String>,
    /// Security capability.
    pub security: SecurityCapability,
    /// The address domain of the module's headers (the one protocol-specific
    /// item the paper's NM deliberately keeps: §III-C "we admit that this is
    /// a case of NM using protocol-specific information").  Any module may
    /// declare one; IP modules are the only ones that do.
    pub address_domain: Option<String>,
    /// Hint that the module offers good forwarding bandwidth (the paper's NM
    /// prefers the MPLS path because "the MPLS abstraction mentions that it
    /// offers good forwarding bandwidth").
    pub fast_forwarding: bool,
}

impl ModuleAbstraction {
    /// A minimal abstraction with nothing advertised, to be filled in by the
    /// module implementation.
    pub fn empty(name: ModuleRef) -> Self {
        ModuleAbstraction {
            name,
            up_connectable: Vec::new(),
            up_dependencies: Vec::new(),
            down_connectable: Vec::new(),
            down_dependencies: Vec::new(),
            physical_pipes: Vec::new(),
            peerable: Vec::new(),
            filter: FilterCapability::default(),
            switch: SwitchCapability {
                kinds: Vec::new(),
                multicast: false,
                state_source: SwitchStateSource::GeneratedLocally,
                transparent_down_down: false,
            },
            perf_reporting: Vec::new(),
            perf_tradeoffs: Vec::new(),
            perf_enforcement: Vec::new(),
            security: SecurityCapability::default(),
            address_domain: None,
            fast_forwarding: false,
        }
    }

    /// Can this module switch packets in the given way?
    pub fn can_switch(&self, kind: SwitchKind) -> bool {
        self.switch.kinds.contains(&kind)
    }

    /// Can this module have an up pipe to a module of `kind`?
    pub fn can_connect_up(&self, kind: &ModuleKind) -> bool {
        self.up_connectable.contains(kind)
    }

    /// Can this module have a down pipe to a module of `kind`?
    pub(crate) fn can_connect_down(&self, kind: &ModuleKind) -> bool {
        self.down_connectable.contains(kind)
    }

    /// Render the abstraction as the rows of Table II / Table III.
    pub fn as_table(&self) -> Vec<(String, String)> {
        let fmt_kinds = |v: &Vec<ModuleKind>| {
            if v.is_empty() {
                "None".to_string()
            } else {
                v.iter().map(|k| k.name()).collect::<Vec<_>>().join(", ")
            }
        };
        let fmt_deps = |v: &Vec<Dependency>| {
            if v.is_empty() {
                "None".to_string()
            } else {
                v.iter()
                    .map(|d| d.description.clone())
                    .collect::<Vec<_>>()
                    .join("; ")
            }
        };
        vec![
            ("Name".to_string(), self.name.to_string()),
            (
                "Up.Con-Modules".to_string(),
                fmt_kinds(&self.up_connectable),
            ),
            (
                "Up.Dependencies".to_string(),
                fmt_deps(&self.up_dependencies),
            ),
            (
                "Down.Con-Modules".to_string(),
                fmt_kinds(&self.down_connectable),
            ),
            (
                "Down.Dependencies".to_string(),
                fmt_deps(&self.down_dependencies),
            ),
            (
                "Physical pipes".to_string(),
                if self.physical_pipes.is_empty() {
                    "None".to_string()
                } else {
                    self.physical_pipes
                        .iter()
                        .map(|p| format!("port{}", p.port.0))
                        .collect::<Vec<_>>()
                        .join(", ")
                },
            ),
            ("Peerable-Mod.".to_string(), fmt_kinds(&self.peerable)),
            (
                "Filter".to_string(),
                if self.filter.classifiers.is_empty() {
                    "Nil".to_string()
                } else {
                    format!("{:?}", self.filter.classifiers)
                },
            ),
            (
                "Switch".to_string(),
                self.switch
                    .kinds
                    .iter()
                    .map(|k| k.notation().to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            (
                "Perf Reporting".to_string(),
                if self.perf_reporting.is_empty() {
                    "Nil".to_string()
                } else {
                    self.perf_reporting.join("; ")
                },
            ),
            (
                "Perf Trade-Offs".to_string(),
                if self.perf_tradeoffs.is_empty() {
                    "Nil".to_string()
                } else {
                    self.perf_tradeoffs
                        .iter()
                        .map(|t| {
                            format!("{{{:?} Vs {:?} | {}}}", t.costs, t.improves, t.applies_to)
                        })
                        .collect::<Vec<_>>()
                        .join(" ")
                },
            ),
            (
                "Perf Enforcement".to_string(),
                if self.perf_enforcement.is_empty() {
                    "Nil".to_string()
                } else {
                    self.perf_enforcement.join("; ")
                },
            ),
            (
                "Security".to_string(),
                if self.security.integrity
                    || self.security.authenticity
                    || self.security.confidentiality
                {
                    "Yes".to_string()
                } else {
                    "Nil".to_string()
                },
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ModuleId, ModuleKind};
    use netsim::device::DeviceId;

    fn gre_abstraction() -> ModuleAbstraction {
        let mut a = ModuleAbstraction::empty(ModuleRef::new(
            ModuleKind::Gre,
            ModuleId(2),
            DeviceId::from_raw(1),
        ));
        a.up_connectable = vec![ModuleKind::Ip];
        a.up_dependencies = vec![Dependency::new(
            "tradeoffs",
            "Performance Trade-offs to be specified",
        )];
        a.down_connectable = vec![ModuleKind::Ip];
        a.peerable = vec![ModuleKind::Gre];
        a.switch.kinds = vec![SwitchKind::UpDown, SwitchKind::DownUp];
        a.perf_reporting = vec!["packets received and transmitted per pipe".to_string()];
        a.perf_tradeoffs = vec![PerfTradeoff {
            costs: vec![PerformanceMetric::Jitter, PerformanceMetric::Delay],
            improves: vec![PerformanceMetric::Ordering],
            applies_to: "Up-pipe".to_string(),
        }];
        a
    }

    #[test]
    fn switch_kind_classification() {
        assert!(SwitchKind::UpDown.encapsulates());
        assert!(SwitchKind::UpPhy.encapsulates());
        assert!(SwitchKind::DownUp.decapsulates());
        assert!(SwitchKind::PhyUp.decapsulates());
        assert!(!SwitchKind::DownDown.encapsulates());
    }

    #[test]
    fn gre_abstraction_matches_table3_shape() {
        let a = gre_abstraction();
        assert!(a.can_connect_up(&ModuleKind::Ip));
        assert!(!a.can_connect_up(&ModuleKind::Eth));
        assert_eq!(a.peerable, [ModuleKind::Gre]);
        assert!(a.can_switch(SwitchKind::UpDown));
        assert!(!a.can_switch(SwitchKind::DownDown));
        let table = a.as_table();
        assert_eq!(table.len(), 13, "Table III has 13 rows");
        assert_eq!(table[1].1, "IP");
        assert_eq!(table[7].1, "Nil"); // filter
    }
}
