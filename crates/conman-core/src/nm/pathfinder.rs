//! The NM's path finder (§III-C.1).
//!
//! Depth-first traversal of the potential-connectivity graph that keeps
//! track of encapsulation and decapsulation along the way, so only paths
//! that are "sane in the protocol sense" are generated (Figure 6(a)), and
//! that uses address-domain information to rule out invalid peerings
//! (Figure 6(b)).  On the paper's Figure 4 testbed this enumerates exactly
//! the nine paths the authors report.
//!
//! The search knows no protocol.  A header is named by the kind of the
//! module that pushes it and handled by modules of that kind; the rest
//! comes from what modules advertise: their switchings, their address
//! domain and whether their `[down ⇒ down]` leaves the stack as it is.

use super::graph::PotentialGraph;
use super::ConnectivityGoal;
use crate::abstraction::{ModuleAbstraction, SwitchKind};
use crate::ids::{ModuleKind, ModuleRef};
use netsim::device::DeviceId;
use std::collections::BTreeSet;

/// How a module was entered during the traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// Entered from a physical pipe.
    Phys,
    /// Entered from the module below (on its down pipe), i.e. the packet is
    /// travelling up the stack.
    Below,
    /// Entered from the module above (on its up pipe), i.e. the packet is
    /// travelling down the stack.
    Above,
}

/// One step of a module-level path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// The module traversed.
    pub module: ModuleRef,
    /// The switching configuration it uses on this path.
    pub switch: SwitchKind,
    /// How the packet entered the module.
    pub entered: Entry,
    /// Identifier of the header instance this step pushes, pops or processes.
    pub header: usize,
    /// Stack depth (number of headers on the packet) when the step executes,
    /// before any push/pop performed by the step itself.
    pub depth: usize,
}

/// A complete module-level path satisfying a goal.
#[derive(Debug, Clone, PartialEq)]
pub struct ModulePath {
    /// The steps in travel order.
    pub steps: Vec<PathStep>,
}

impl ModulePath {
    /// Number of up-down pipes that would be instantiated in devices to
    /// realise this path (the NM's selection metric): one pipe between every
    /// pair of consecutive steps on the same device.
    pub fn pipe_count(&self) -> usize {
        self.steps
            .windows(2)
            .filter(|w| w[0].module.device == w[1].module.device)
            .count()
    }

    /// The distinct devices along the path, in order of first appearance.
    pub fn devices(&self) -> Vec<netsim::device::DeviceId> {
        let mut out = Vec::new();
        for s in &self.steps {
            if out.last() != Some(&s.module.device) {
                out.push(s.module.device);
            }
        }
        out
    }
}

/// Limits guarding the exhaustive traversal.
#[derive(Debug, Clone, Copy)]
pub struct PathFinderLimits {
    /// Maximum number of steps in a path.
    pub max_steps: usize,
    /// Maximum number of complete paths to return.
    pub max_paths: usize,
}

impl Default for PathFinderLimits {
    fn default() -> Self {
        PathFinderLimits {
            max_steps: 64,
            max_paths: 4096,
        }
    }
}

/// One header on the simulated packet during traversal.
#[derive(Debug, Clone)]
struct HeaderInst {
    id: usize,
    kind: ModuleKind,
    domain: Option<String>,
}

impl HeaderInst {
    /// What the customer sees of the header: not which step pushed it.
    fn seen(&self) -> (&ModuleKind, &Option<String>) {
        (&self.kind, &self.domain)
    }
}

/// The path finder.
pub struct PathFinder<'a> {
    graph: &'a PotentialGraph,
    limits: PathFinderLimits,
    excluded: BTreeSet<ModuleRef>,
    /// Device pairs whose physical pipes must never be crossed, normalised
    /// with the smaller device id first (see [`PathFinder::excluding_links`]).
    excluded_links: BTreeSet<(DeviceId, DeviceId)>,
}

impl<'a> PathFinder<'a> {
    /// Create a path finder over a potential graph.
    pub fn new(graph: &'a PotentialGraph) -> Self {
        PathFinder {
            graph,
            limits: PathFinderLimits::default(),
            excluded: BTreeSet::new(),
            excluded_links: BTreeSet::new(),
        }
    }

    /// Override the traversal limits.
    pub(crate) fn with_limits(mut self, limits: PathFinderLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Never traverse the given modules.  This is how the self-healing NM
    /// re-plans around a diagnosed fault: the suspects are excluded *inside*
    /// the search, so pruning happens before the exponential fan-out rather
    /// than by filtering complete paths afterwards.
    pub fn excluding(mut self, excluded: BTreeSet<ModuleRef>) -> Self {
        self.excluded = excluded;
        self
    }

    /// Never cross a physical pipe between the given device pairs (either
    /// direction).  This is the link-level counterpart of
    /// [`PathFinder::excluding`]: a diagnosis that blames a *link* (cut or
    /// loss) prunes the traversal at the physical hop itself, so on a
    /// multipath topology the search only ever enumerates genuine
    /// alternatives instead of filtering complete paths afterwards.
    pub(crate) fn excluding_links(
        mut self,
        links: impl IntoIterator<Item = (DeviceId, DeviceId)>,
    ) -> Self {
        self.excluded_links = links
            .into_iter()
            .map(|(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect();
        self
    }

    /// Is the physical hop from `from`'s device to `to`'s device excluded?
    fn link_excluded(&self, from: &ModuleRef, to: &ModuleRef) -> bool {
        if self.excluded_links.is_empty() {
            return false;
        }
        let (a, b) = if from.device <= to.device {
            (from.device, to.device)
        } else {
            (to.device, from.device)
        };
        self.excluded_links.contains(&(a, b))
    }

    /// Enumerate every path satisfying `goal`.
    pub fn find(&self, goal: &ConnectivityGoal) -> Vec<ModulePath> {
        self.find_with(&mut SearchScratch::default(), goal)
    }

    /// Like [`PathFinder::find`], but reusing caller-owned search buffers.
    /// The reconcile planner calls the finder once per goal per pass;
    /// threading one [`SearchScratch`] through keeps the visited set, the
    /// step buffer and the header stack warm instead of re-allocating them
    /// for every goal.
    pub(crate) fn find_with(
        &self,
        scratch: &mut SearchScratch,
        goal: &ConnectivityGoal,
    ) -> Vec<ModulePath> {
        scratch.clear();
        // The customer traffic entering the ingress physical pipe: the
        // ingress module's own header around the goal's payload.  A layer-2
        // goal's payload is the customer's frame, of the ingress module's
        // kind; otherwise it is the header of the module above the ingress
        // that declares the goal's address domain.
        let in_domain = |m: &&ModuleRef| {
            let abs = self.graph.abstraction(m);
            abs.and_then(|a| a.address_domain.as_ref()) == Some(&goal.traffic_domain)
        };
        let payload = if goal.l2_only {
            Some(&goal.from)
        } else {
            self.graph.ups(&goal.from).iter().find(in_domain)
        };
        let Some(payload) = payload else {
            return Vec::new();
        };
        let mut state = SearchState {
            scratch,
            results: Vec::new(),
        };
        // The stack is innermost-first, so the outer header is pushed last
        // and sits on top.  The payload is header 0.
        state.push_header(payload.kind, Some(goal.traffic_domain.clone()));
        state.push_header(goal.from.kind, None);
        let expected_final = state.scratch.stack.clone();
        self.explore(goal, &mut state, &goal.from, Entry::Phys, &expected_final);
        state.results
    }

    #[allow(clippy::too_many_arguments)]
    fn explore(
        &self,
        goal: &ConnectivityGoal,
        state: &mut SearchState<'_>,
        module: &ModuleRef,
        entered: Entry,
        expected_final: &[HeaderInst],
    ) {
        if state.results.len() >= self.limits.max_paths
            || state.scratch.steps.len() >= self.limits.max_steps
            || state.scratch.visited.contains(module)
            || self.excluded.contains(module)
        {
            return;
        }
        let Some(abs) = self.graph.abstraction(module) else {
            return;
        };
        state.scratch.visited.insert(*module);

        match entered {
            Entry::Phys | Entry::Below => {
                let decap_kind = if entered == Entry::Phys {
                    SwitchKind::PhyUp
                } else {
                    SwitchKind::DownUp
                };
                // Option 1: decapsulate and move up.
                if abs.can_switch(decap_kind) {
                    if let Some(top) = state.scratch.stack.last().cloned() {
                        if top.kind == module.kind && domain_ok(abs, &top) {
                            let depth = state.scratch.stack.len();
                            state.scratch.stack.pop();
                            state.push_step(module, decap_kind, entered, top.id, depth);
                            for next in self.graph.ups(module) {
                                self.explore(goal, state, next, Entry::Below, expected_final);
                            }
                            state.scratch.steps.pop();
                            state.scratch.stack.push(top);
                        }
                    }
                }
                // Option 2: process in place.
                if entered == Entry::Phys {
                    // [phy => phy]: a layer-2 switch carries the frame across.
                    if abs.can_switch(SwitchKind::PhyPhy) {
                        if let Some(top) = state.scratch.stack.last().cloned() {
                            let depth = state.scratch.stack.len();
                            state.push_step(module, SwitchKind::PhyPhy, entered, top.id, depth);
                            for next in self.graph.phys(module) {
                                if self.link_excluded(module, next) {
                                    continue;
                                }
                                self.explore(goal, state, next, Entry::Phys, expected_final);
                            }
                            state.scratch.steps.pop();
                        }
                    }
                } else if abs.can_switch(SwitchKind::DownDown) {
                    // [down => down]: process the header and forward downwards,
                    // or carry whatever is on top when the module's
                    // [down => down] leaves the stack as it is.
                    if let Some(top) = state.scratch.stack.last().cloned() {
                        if abs.switch.transparent_down_down
                            || (top.kind == module.kind && domain_ok(abs, &top))
                        {
                            let depth = state.scratch.stack.len();
                            state.push_step(module, SwitchKind::DownDown, entered, top.id, depth);
                            for next in self.graph.downs(module) {
                                self.explore(goal, state, next, Entry::Above, expected_final);
                            }
                            state.scratch.steps.pop();
                        }
                    }
                }
            }
            Entry::Above => {
                // Option 1: encapsulate and continue downwards.
                if abs.can_switch(SwitchKind::UpDown) {
                    let depth = state.scratch.stack.len();
                    let id = state.push_header(module.kind, abs.address_domain.clone());
                    state.push_step(module, SwitchKind::UpDown, entered, id, depth);
                    for next in self.graph.downs(module) {
                        self.explore(goal, state, next, Entry::Above, expected_final);
                    }
                    state.scratch.steps.pop();
                    state.scratch.stack.pop();
                }
                // Option 2: encapsulate onto a physical pipe.
                if abs.can_switch(SwitchKind::UpPhy) {
                    let depth = state.scratch.stack.len();
                    let id = state.push_header(module.kind, None);
                    state.push_step(module, SwitchKind::UpPhy, entered, id, depth);
                    if *module == goal.to {
                        // Reached the egress interface: the path is valid only
                        // if every header the ISP added has been removed again
                        // (the customer sees the same packet it sent).
                        let stack = state.scratch.stack.iter().map(HeaderInst::seen);
                        if stack.eq(expected_final.iter().map(HeaderInst::seen))
                            && state.results.len() < self.limits.max_paths
                        {
                            state.results.push(ModulePath {
                                steps: state.scratch.steps.clone(),
                            });
                        }
                    } else {
                        for next in self.graph.phys(module) {
                            if self.link_excluded(module, next) {
                                continue;
                            }
                            self.explore(goal, state, next, Entry::Phys, expected_final);
                        }
                    }
                    state.scratch.steps.pop();
                    state.scratch.stack.pop();
                }
            }
        }

        state.scratch.visited.remove(module);
    }
}

/// A module that declares an address domain handles only headers of that
/// domain (Figure 6(b)).
fn domain_ok(abs: &ModuleAbstraction, header: &HeaderInst) -> bool {
    match (&abs.address_domain, &header.domain) {
        (Some(a), Some(b)) => a == b,
        _ => true,
    }
}

/// Reusable buffers for the depth-first traversal: the step buffer, the
/// simulated header stack and the visited set.  One scratch serves any
/// number of consecutive `PathFinder::find_with` calls — the planner
/// allocates one per planning worker and reuses it across goals instead of
/// re-allocating per goal.
#[derive(Debug, Default)]
pub struct SearchScratch {
    steps: Vec<PathStep>,
    stack: Vec<HeaderInst>,
    visited: BTreeSet<ModuleRef>,
    next_header: usize,
}

impl SearchScratch {
    fn clear(&mut self) {
        self.steps.clear();
        self.stack.clear();
        self.visited.clear();
        self.next_header = 0;
    }
}

struct SearchState<'s> {
    scratch: &'s mut SearchScratch,
    results: Vec<ModulePath>,
}

impl SearchState<'_> {
    fn push_header(&mut self, kind: ModuleKind, domain: Option<String>) -> usize {
        let id = self.scratch.next_header;
        self.scratch.next_header += 1;
        self.scratch.stack.push(HeaderInst { id, kind, domain });
        id
    }

    /// Record `module`'s step, `depth` being the stack depth before the
    /// step's own push or pop.
    fn push_step(
        &mut self,
        module: &ModuleRef,
        switch: SwitchKind,
        entered: Entry,
        header: usize,
        depth: usize,
    ) {
        self.scratch.steps.push(PathStep {
            module: *module,
            switch,
            entered,
            header,
            depth,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::{ModuleAbstraction, PhysicalPipeInfo, SwitchKind};
    use crate::ids::ModuleId;
    use netsim::device::{DeviceId, PortId};
    use std::collections::BTreeMap;

    /// Build a tiny two-router network: each router has a customer-facing
    /// ETH, an ISP ETH, a customer IP module and an ISP IP module.  The only
    /// sane path between the customer-facing ETH modules is the IP-IP tunnel.
    fn two_router_world() -> (PotentialGraph, ModuleRef, ModuleRef) {
        let d1 = DeviceId::from_raw(1);
        let d2 = DeviceId::from_raw(2);
        let mut abstractions = BTreeMap::new();
        let mut adjacency = BTreeMap::new();
        for (d, other) in [(d1, d2), (d2, d1)] {
            let mut mods = Vec::new();
            for (id, port) in [(1u32, 0u32), (2, 1)] {
                let mut eth =
                    ModuleAbstraction::empty(ModuleRef::new(ModuleKind::Eth, ModuleId(id), d));
                eth.up_connectable = vec![ModuleKind::Ip];
                eth.switch.kinds = vec![SwitchKind::PhyUp, SwitchKind::UpPhy];
                eth.physical_pipes.push(PhysicalPipeInfo {
                    port: PortId(port),
                    link: None,
                    broadcast: false,
                });
                mods.push(eth);
            }
            let mut ip_cust =
                ModuleAbstraction::empty(ModuleRef::new(ModuleKind::Ip, ModuleId(3), d));
            ip_cust.up_connectable = vec![ModuleKind::Ip];
            ip_cust.down_connectable = vec![ModuleKind::Ip, ModuleKind::Eth];
            ip_cust.switch.kinds = vec![
                SwitchKind::DownUp,
                SwitchKind::UpDown,
                SwitchKind::DownDown,
                SwitchKind::UpUp,
            ];
            ip_cust.address_domain = Some("customer1".to_string());
            mods.push(ip_cust);
            let mut ip_isp =
                ModuleAbstraction::empty(ModuleRef::new(ModuleKind::Ip, ModuleId(4), d));
            ip_isp.up_connectable = vec![ModuleKind::Ip];
            ip_isp.down_connectable = vec![ModuleKind::Ip, ModuleKind::Eth];
            ip_isp.switch.kinds = vec![
                SwitchKind::DownUp,
                SwitchKind::UpDown,
                SwitchKind::DownDown,
                SwitchKind::UpUp,
            ];
            ip_isp.address_domain = Some("isp".to_string());
            mods.push(ip_isp);
            abstractions.insert(d, mods);
            // Port 1 of each device faces the other device.
            adjacency.insert(d, vec![(PortId(1), other, PortId(1))]);
        }
        let graph = PotentialGraph::build(&abstractions, &adjacency);
        let from = ModuleRef::new(ModuleKind::Eth, ModuleId(1), d1);
        let to = ModuleRef::new(ModuleKind::Eth, ModuleId(1), d2);
        (graph, from, to)
    }

    #[test]
    fn finds_the_ip_ip_tunnel_and_plain_forwarding_only() {
        let (graph, from, to) = two_router_world();
        let goal = ConnectivityGoal::vpn(from, to);
        let finder = PathFinder::new(&graph);
        let paths = finder.find(&goal);
        // With adjacent edge routers, both direct forwarding between the two
        // customer-domain IP modules and the IP-IP tunnel are protocol-sane.
        assert_eq!(paths.len(), 2, "expected two sane paths: {paths:#?}");
        let labels: Vec<String> = paths.iter().map(|p| p.technology_label()).collect();
        assert!(labels.contains(&"IP".to_string()));
        assert!(labels.contains(&"IP-IP".to_string()));
        let p = paths
            .iter()
            .find(|p| p.technology_label() == "IP-IP")
            .unwrap();
        // a, ip_cust, ip_isp, eth_isp | eth_isp, ip_isp, ip_cust, eth_cust
        assert_eq!(p.steps.len(), 8);
        assert_eq!(p.pipe_count(), 6);
        assert_eq!(p.devices().len(), 2);
        // Domain pruning: the ISP IP module never processes or pops the
        // customer header (header id 0), only its own outer header.
        for s in &p.steps {
            if s.module.module == ModuleId(4) && s.switch != SwitchKind::UpDown {
                assert_ne!(
                    s.header, 0,
                    "ISP IP module must not touch the customer header"
                );
            }
        }
    }

    #[test]
    fn direct_forwarding_of_customer_traffic_is_rejected() {
        // Remove the customer IP module's ability to be crossed: without the
        // customer-domain IP module at the far end the traversal cannot
        // terminate cleanly, so no path exists.
        let (graph, from, to) = two_router_world();
        let mut goal = ConnectivityGoal::vpn(from, to);
        goal.traffic_domain = "customer2".to_string(); // no module carries this domain... still ok
        let finder = PathFinder::new(&graph);
        // Domain mismatch on both routers' customer IP modules prunes every
        // path that would touch the customer header.
        let paths = finder.find(&goal);
        assert!(paths.is_empty());
    }

    #[test]
    fn excluding_the_only_link_prunes_every_path() {
        let (graph, from, to) = two_router_world();
        let goal = ConnectivityGoal::vpn(from, to);
        let d1 = DeviceId::from_raw(1);
        let d2 = DeviceId::from_raw(2);
        // Exclusion is direction-agnostic: either endpoint order prunes the
        // traversal at the physical hop.
        for pair in [(d1, d2), (d2, d1)] {
            let paths = PathFinder::new(&graph).excluding_links([pair]).find(&goal);
            assert!(paths.is_empty(), "no path may cross the excluded link");
        }
        // An unrelated link exclusion prunes nothing.
        let paths = PathFinder::new(&graph)
            .excluding_links([(DeviceId::from_raw(8), DeviceId::from_raw(9))])
            .find(&goal);
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn technology_labels() {
        let (graph, from, to) = two_router_world();
        let goal = ConnectivityGoal::vpn(from, to);
        let paths = PathFinder::new(&graph).find(&goal);
        for p in &paths {
            assert!(["IP", "IP-IP"].contains(&p.technology_label().as_str()));
        }
    }
}
