//! The Network Manager (NM).
//!
//! The NM is a software entity residing on one of the devices (§II).  It
//! learns the network's *potential* from device announcements and
//! `showPotential` answers, maps high-level connectivity goals onto
//! module-level paths, generates the CONMan primitive scripts that realise a
//! chosen path, and relays module-to-module messages during configuration.

pub mod goal;
pub mod graph;
pub mod pathfinder;
pub mod script;

use crate::abstraction::ModuleAbstraction;
use crate::ids::{ModuleKind, ModuleRef};
use crate::primitives::{Announcement, TradeoffChoice};
use netsim::device::{DeviceId, PortId};
use std::collections::BTreeMap;

pub use goal::{
    AppliedPlan, Exclusion, GoalFailure, GoalId, GoalRecord, GoalStatus, GoalStore, Plan, PlanError,
};
pub use graph::PotentialGraph;
pub use pathfinder::{Entry, ModulePath, PathFinder, PathFinderLimits, PathStep, SearchScratch};
pub use script::{render_primitive, DeviceScript, ScriptSet, StagedScripts};

/// A high-level connectivity goal: "configure connectivity between the
/// customer-facing interfaces X and Y for traffic between site classes S1
/// and S2" (§III-C).
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectivityGoal {
    /// Ingress customer-facing module (e.g. `<ETH,A,a>`).
    pub from: ModuleRef,
    /// Egress customer-facing module (e.g. `<ETH,C,f>`).
    pub to: ModuleRef,
    /// Address domain of the customer traffic (e.g. `customer1`); used by the
    /// path finder's domain pruning.
    pub traffic_domain: String,
    /// Is this a pure layer-2 goal (VLAN tunnelling) rather than an IP goal?
    pub l2_only: bool,
    /// Name of the source site traffic class (e.g. `C1-S1`).
    pub src_class: String,
    /// Name of the destination site traffic class (e.g. `C1-S2`).
    pub dst_class: String,
    /// Name of the gateway on the source site (e.g. `S1-gateway`).
    pub src_gateway: String,
    /// Name of the gateway on the destination site (e.g. `S2-gateway`).
    pub dst_gateway: String,
    /// Mapping from the high-level names above to concrete values (prefixes,
    /// gateway addresses).  This is the one place the NM holds
    /// protocol-specific values, which the paper explicitly allows for IP
    /// addresses (§III-C).  It stays on the NM: a script carries a value
    /// only beside the name an edge-IP switch rule names
    /// ([`crate::primitives::ResolvedName`]).
    pub resolved: BTreeMap<String, String>,
    /// Performance trade-offs requested by the human manager.
    pub tradeoffs: Vec<TradeoffChoice>,
}

impl ConnectivityGoal {
    /// Convenience constructor for the paper's VPN goal.
    pub fn vpn(from: ModuleRef, to: ModuleRef) -> Self {
        ConnectivityGoal {
            from,
            to,
            traffic_domain: "customer1".to_string(),
            l2_only: false,
            src_class: "C1-S1".to_string(),
            dst_class: "C1-S2".to_string(),
            src_gateway: "S1-gateway".to_string(),
            dst_gateway: "S2-gateway".to_string(),
            resolved: BTreeMap::new(),
            tradeoffs: vec![
                TradeoffChoice::InOrderDelivery,
                TradeoffChoice::LowErrorRate,
            ],
        }
    }

    /// Add a resolved name → value mapping.
    pub fn resolve(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.resolved.insert(name.into(), value.into());
        self
    }
}

/// What the NM knows about the network: topology announcements plus the
/// module abstractions gathered through `showPotential`.
#[derive(Debug, Default)]
pub struct NetworkManager {
    /// The device hosting the NM.
    pub host: Option<DeviceId>,
    /// Device names by id (from announcements).
    pub device_names: BTreeMap<DeviceId, String>,
    /// Physical adjacency: device -> (port, neighbour device, neighbour port).
    pub adjacency: BTreeMap<DeviceId, Vec<(PortId, DeviceId, PortId)>>,
    /// Module abstractions per device (from showPotential).
    pub abstractions: BTreeMap<DeviceId, Vec<ModuleAbstraction>>,
}

impl NetworkManager {
    /// Create an NM hosted on `host`.
    pub fn new(host: DeviceId) -> Self {
        NetworkManager {
            host: Some(host),
            ..Default::default()
        }
    }

    /// Record a device announcement.
    pub(crate) fn record_announcement(&mut self, a: &Announcement) {
        self.device_names.insert(a.device, a.device_name.clone());
        self.adjacency.insert(a.device, a.neighbors.clone());
    }

    /// Record the showPotential answer of a device.
    pub(crate) fn record_potential(&mut self, device: DeviceId, modules: Vec<ModuleAbstraction>) {
        self.abstractions.insert(device, modules);
    }

    /// Number of managed devices (devices that have announced).
    pub fn device_count(&self) -> usize {
        self.device_names.len()
    }

    /// Short alias for a device, used when rendering scripts ("RouterA" ->
    /// "A", "SwitchB" -> "B").
    pub fn device_alias(&self, device: DeviceId) -> String {
        match self.device_names.get(&device) {
            Some(name) => name
                .trim_start_matches("Router")
                .trim_start_matches("Switch")
                .trim_start_matches("Device")
                .trim_start_matches("Customer")
                .to_string(),
            None => device.to_string(),
        }
    }

    /// Look up the abstraction of a module.
    pub fn abstraction_of(&self, module: &ModuleRef) -> Option<&ModuleAbstraction> {
        self.abstractions
            .get(&module.device)
            .and_then(|v| v.iter().find(|a| a.name == *module))
    }

    /// Find a module on a device by kind (first match), useful for writing
    /// goals in tests and examples.
    pub fn find_module(&self, device: DeviceId, kind: &ModuleKind) -> Option<ModuleRef> {
        self.abstractions
            .get(&device)?
            .iter()
            .map(|a| a.name)
            .find(|r| r.kind == *kind)
    }

    /// The module of a device that has a physical pipe on `port`: the
    /// customer-facing end of a goal.
    pub fn module_on_port(&self, device: DeviceId, port: PortId) -> Option<ModuleRef> {
        graph::module_on_port(&self.abstractions, device, port)
    }

    /// Build the potential connectivity graph from everything learnt so far.
    pub fn build_graph(&self) -> PotentialGraph {
        PotentialGraph::build(&self.abstractions, &self.adjacency)
    }

    /// Enumerate all module-level paths that satisfy `goal`.
    pub fn find_paths(&self, goal: &ConnectivityGoal) -> Vec<ModulePath> {
        let graph = self.build_graph();
        PathFinder::new(&graph).find(goal)
    }

    /// Enumerate paths under explicit traversal limits (long chains need a
    /// larger step budget and a smaller path budget than the defaults).
    pub fn find_paths_with(
        &self,
        goal: &ConnectivityGoal,
        limits: pathfinder::PathFinderLimits,
    ) -> Vec<ModulePath> {
        let graph = self.build_graph();
        PathFinder::new(&graph).with_limits(limits).find(goal)
    }

    /// Enumerate paths that avoid the given exclusions — the re-planning
    /// step of self-healing: suspects reported by the diagnoser are excluded
    /// from the traversal itself (§III-C's "route around the faulty
    /// component").  Excluded *modules* are never entered and excluded
    /// *links* are never crossed, so a diagnosis that blames a physical link
    /// reroutes onto a genuine alternative where the topology offers one.
    ///
    /// The search runs over a caller-built [`PotentialGraph`] with
    /// caller-owned scratch buffers.  This is the planner's hot path: one
    /// graph build and one scratch per planning worker amortised over every
    /// goal in a reconcile pass, instead of a graph rebuild and fresh
    /// buffers per goal.
    pub fn find_paths_avoiding_in(
        &self,
        graph: &PotentialGraph,
        goal: &ConnectivityGoal,
        excluded: &std::collections::BTreeSet<goal::Exclusion>,
        limits: pathfinder::PathFinderLimits,
        scratch: &mut pathfinder::SearchScratch,
    ) -> Vec<ModulePath> {
        let mut modules = std::collections::BTreeSet::new();
        let mut links = Vec::new();
        for e in excluded {
            match e {
                goal::Exclusion::Module(m) => {
                    modules.insert(*m);
                }
                goal::Exclusion::Link(a, b) => links.push((*a, *b)),
            }
        }
        PathFinder::new(graph)
            .with_limits(limits)
            .excluding(modules)
            .excluding_links(links)
            .find_with(scratch, goal)
    }

    /// Choose the best path among candidates.
    ///
    /// The selection metric follows §III-C.1: minimise the number of pipes
    /// instantiated in the routers (i.e. router state and NM communication
    /// overhead), breaking ties in favour of paths whose modules advertise
    /// good forwarding bandwidth (which makes the NM prefer the MPLS path).
    pub fn choose_path<'a>(&self, paths: &'a [ModulePath]) -> Option<&'a ModulePath> {
        paths.iter().min_by_key(|p| {
            let pipes = p.pipe_count();
            let fast = p
                .steps
                .iter()
                .filter(|s| {
                    self.abstraction_of(&s.module)
                        .map(|a| a.fast_forwarding)
                        .unwrap_or(false)
                })
                .count();
            // Fewer pipes first; then prefer more fast-forwarding modules.
            (pipes, usize::MAX - fast)
        })
    }

    /// Generate the per-device CONMan scripts realising `path` for `goal`,
    /// numbering pipes from 0 (the paper's numbering — correct when only one
    /// goal exists).
    pub fn generate_scripts(&self, path: &ModulePath, goal: &ConnectivityGoal) -> ScriptSet {
        script::generate_with_base(self, path, goal, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ModuleId;

    #[test]
    fn aliases_strip_common_prefixes() {
        let mut nm = NetworkManager::new(DeviceId::from_raw(1));
        nm.device_names
            .insert(DeviceId::from_raw(1), "RouterA".into());
        nm.device_names
            .insert(DeviceId::from_raw(2), "SwitchB".into());
        nm.device_names
            .insert(DeviceId::from_raw(3), "weird".into());
        assert_eq!(nm.device_alias(DeviceId::from_raw(1)), "A");
        assert_eq!(nm.device_alias(DeviceId::from_raw(2)), "B");
        assert_eq!(nm.device_alias(DeviceId::from_raw(3)), "weird");
        assert!(nm.device_alias(DeviceId::from_raw(99)).starts_with("dev:"));
    }

    #[test]
    fn goal_builder() {
        let from = ModuleRef::new(ModuleKind::Eth, ModuleId(1), DeviceId::from_raw(1));
        let to = ModuleRef::new(ModuleKind::Eth, ModuleId(2), DeviceId::from_raw(2));
        let goal = ConnectivityGoal::vpn(from, to)
            .resolve("C1-S2", "10.0.2.0/24")
            .resolve("S1-gateway", "192.168.0.1");
        assert_eq!(goal.resolved["C1-S2"], "10.0.2.0/24");
        assert_eq!(goal.tradeoffs.len(), 2);
        assert!(!goal.l2_only);
    }
}
