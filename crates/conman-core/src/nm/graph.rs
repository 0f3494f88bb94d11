//! The potential-connectivity graph (Figure 5): modules are nodes, possible
//! up-down pipes and discovered physical pipes are edges.

use crate::abstraction::ModuleAbstraction;
use crate::ids::ModuleRef;
use netsim::device::{DeviceId, PortId};
use std::collections::BTreeMap;

/// The potential connectivity graph the NM builds from showPotential answers
/// and physical-connectivity announcements.
#[derive(Debug, Default)]
pub struct PotentialGraph {
    /// Module abstractions indexed by module reference.
    pub modules: BTreeMap<ModuleRef, ModuleAbstraction>,
    /// Possible up pipes: for module M, the modules that could sit above it.
    pub up_neighbors: BTreeMap<ModuleRef, Vec<ModuleRef>>,
    /// Possible down pipes: for module M, the modules that could sit below it.
    pub down_neighbors: BTreeMap<ModuleRef, Vec<ModuleRef>>,
    /// Physical pipes: for a module bound to a port, the modules bound to the
    /// far ends of that port's links.
    pub phys_neighbors: BTreeMap<ModuleRef, Vec<ModuleRef>>,
}

/// The module of `device` that has a physical pipe on `port`.
pub(crate) fn module_on_port(
    abstractions: &BTreeMap<DeviceId, Vec<ModuleAbstraction>>,
    device: DeviceId,
    port: PortId,
) -> Option<ModuleRef> {
    let mut modules = abstractions.get(&device)?.iter();
    let m = modules.find(|m| m.physical_pipes.iter().any(|p| p.port == port))?;
    Some(m.name)
}

impl PotentialGraph {
    /// Build the graph.
    pub fn build(
        abstractions: &BTreeMap<DeviceId, Vec<ModuleAbstraction>>,
        adjacency: &BTreeMap<DeviceId, Vec<(PortId, DeviceId, PortId)>>,
    ) -> Self {
        let mut graph = PotentialGraph::default();
        for modules in abstractions.values() {
            for m in modules {
                graph.modules.insert(m.name, m.clone());
            }
        }

        // Intra-device up/down pipe candidates.
        for modules in abstractions.values() {
            for lower in modules {
                for upper in modules {
                    if lower.name == upper.name {
                        continue;
                    }
                    if lower.can_connect_up(&upper.name.kind)
                        && upper.can_connect_down(&lower.name.kind)
                    {
                        graph
                            .up_neighbors
                            .entry(lower.name)
                            .or_default()
                            .push(upper.name);
                        graph
                            .down_neighbors
                            .entry(upper.name)
                            .or_default()
                            .push(lower.name);
                    }
                }
            }
        }

        // Physical pipes: match (device, port) adjacency with the ports the
        // modules advertise.
        for (device, neighbors) in adjacency {
            for (port, peer_device, peer_port) in neighbors {
                let (Some(local), Some(remote)) = (
                    module_on_port(abstractions, *device, *port),
                    module_on_port(abstractions, *peer_device, *peer_port),
                ) else {
                    continue;
                };
                graph.phys_neighbors.entry(local).or_default().push(remote);
            }
        }
        // Deduplicate and sort for determinism, by module id and device,
        // never by name: the search order (so the `max_paths` cut, the
        // tie-break and the header ids) must not depend on module names.
        for v in graph
            .up_neighbors
            .values_mut()
            .chain(graph.down_neighbors.values_mut())
            .chain(graph.phys_neighbors.values_mut())
        {
            v.sort_by_key(|m| (m.module, m.device));
            v.dedup();
        }
        graph
    }

    /// The abstraction of a module.
    pub fn abstraction(&self, m: &ModuleRef) -> Option<&ModuleAbstraction> {
        self.modules.get(m)
    }

    /// Modules that could sit above `m` (up-pipe candidates).
    pub fn ups(&self, m: &ModuleRef) -> &[ModuleRef] {
        self.up_neighbors.get(m).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Modules that could sit below `m` (down-pipe candidates).
    pub(crate) fn downs(&self, m: &ModuleRef) -> &[ModuleRef] {
        self.down_neighbors.get(m).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Modules reachable from `m` over a physical pipe.
    pub(crate) fn phys(&self, m: &ModuleRef) -> &[ModuleRef] {
        self.phys_neighbors.get(m).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of module nodes.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// Render the per-device sub-graph (Figure 5) as text lines:
    /// `IP(g) -> GRE(l)` meaning an up pipe from g's perspective.
    pub fn render_device_subgraph(&self, device: DeviceId) -> Vec<String> {
        let mut out = Vec::new();
        for (m, ups) in &self.up_neighbors {
            if m.device != device {
                continue;
            }
            for u in ups {
                out.push(format!("{} --up--> {}", m, u));
            }
        }
        for (m, phys) in &self.phys_neighbors {
            if m.device != device {
                continue;
            }
            for p in phys {
                out.push(format!("{} --phys--> {}", m, p));
            }
        }
        let mods: Vec<&ModuleRef> = self.modules.keys().filter(|m| m.device == device).collect();
        for m in mods {
            let a = &self.modules[m];
            if !a.switch.kinds.is_empty() {
                out.push(format!(
                    "{} switch: {}",
                    m,
                    a.switch
                        .kinds
                        .iter()
                        .map(|k| k.notation())
                        .collect::<Vec<_>>()
                        .join(",")
                ));
            }
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::{SwitchKind, SwitchStateSource};
    use crate::ids::{ModuleId, ModuleKind};

    fn module(
        kind: ModuleKind,
        id: u32,
        device: u64,
        up: Vec<ModuleKind>,
        down: Vec<ModuleKind>,
        port: Option<u32>,
    ) -> ModuleAbstraction {
        let mut a = ModuleAbstraction::empty(ModuleRef::new(
            kind,
            ModuleId(id),
            DeviceId::from_raw(device),
        ));
        a.up_connectable = up;
        a.down_connectable = down;
        a.switch.kinds = vec![SwitchKind::UpDown, SwitchKind::DownUp];
        a.switch.state_source = SwitchStateSource::GeneratedLocally;
        if let Some(p) = port {
            a.physical_pipes.push(crate::abstraction::PhysicalPipeInfo {
                port: PortId(p),
                link: None,
                broadcast: false,
            });
        }
        a
    }

    #[test]
    fn builds_up_down_and_phys_edges() {
        let d1 = DeviceId::from_raw(1);
        let d2 = DeviceId::from_raw(2);
        let mut abstractions = BTreeMap::new();
        abstractions.insert(
            d1,
            vec![
                module(ModuleKind::Eth, 1, 1, vec![ModuleKind::Ip], vec![], Some(0)),
                module(ModuleKind::Ip, 2, 1, vec![], vec![ModuleKind::Eth], None),
            ],
        );
        abstractions.insert(
            d2,
            vec![
                module(ModuleKind::Eth, 1, 2, vec![ModuleKind::Ip], vec![], Some(1)),
                module(ModuleKind::Ip, 2, 2, vec![], vec![ModuleKind::Eth], None),
            ],
        );
        let mut adjacency = BTreeMap::new();
        adjacency.insert(d1, vec![(PortId(0), d2, PortId(1))]);
        adjacency.insert(d2, vec![(PortId(1), d1, PortId(0))]);

        let g = PotentialGraph::build(&abstractions, &adjacency);
        assert_eq!(g.module_count(), 4);
        let eth1 = ModuleRef::new(ModuleKind::Eth, ModuleId(1), d1);
        let ip1 = ModuleRef::new(ModuleKind::Ip, ModuleId(2), d1);
        let eth2 = ModuleRef::new(ModuleKind::Eth, ModuleId(1), d2);
        assert_eq!(g.ups(&eth1), std::slice::from_ref(&ip1));
        assert_eq!(g.downs(&ip1), std::slice::from_ref(&eth1));
        assert_eq!(g.phys(&eth1), &[eth2]);
        assert!(!g.render_device_subgraph(d1).is_empty());
    }

    #[test]
    fn incompatible_modules_are_not_connected() {
        let d1 = DeviceId::from_raw(1);
        let mut abstractions = BTreeMap::new();
        abstractions.insert(
            d1,
            vec![
                // GRE can only connect up to IP, so ETH-GRE has no edge.
                module(ModuleKind::Eth, 1, 1, vec![ModuleKind::Ip], vec![], Some(0)),
                module(
                    ModuleKind::Gre,
                    2,
                    1,
                    vec![ModuleKind::Ip],
                    vec![ModuleKind::Ip],
                    None,
                ),
            ],
        );
        let g = PotentialGraph::build(&abstractions, &BTreeMap::new());
        let eth = ModuleRef::new(ModuleKind::Eth, ModuleId(1), d1);
        assert!(g.ups(&eth).is_empty());
        assert!(g.phys(&eth).is_empty());
    }
}
