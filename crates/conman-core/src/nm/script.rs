//! CONMan script generation: translating a chosen module-level path into the
//! per-device `create (pipe, ...)` / `create (switch, ...)` primitives of
//! Figures 7(b), 8(b) and 9(b).
//!
//! The NM generates these scripts algorithmically, with no protocol-specific
//! knowledge beyond the address prefixes and gateways the human manager's
//! high-level goal names (which the paper explicitly allows).
//!
//! A script *is* its primitives: [`generate_with_base`] formats nothing, and
//! the text the paper prints in those figures is a view rendered on demand by
//! [`render_primitive`]; nothing stores its output.

use super::pathfinder::{Entry, ModulePath, PathStep};
use super::{ConnectivityGoal, NetworkManager};
use crate::abstraction::SwitchKind;
use crate::ids::{ModuleRef, PipeId};
use crate::primitives::{
    ComponentRef, PipeSpec, Primitive, ResolvedName, SwitchSpec, TradeoffChoice,
};
use crate::wire::{self, SegmentView, StageBatchView};
use netsim::device::DeviceId;
use std::collections::{BTreeMap, BTreeSet};

/// The CONMan primitives for one device — what it executes.  The paper-style
/// text is a view of them ([`DeviceScript::render`]), not a second copy.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceScript {
    /// The device the script configures.
    pub device: DeviceId,
    /// The primitives in execution order.
    pub primitives: Vec<Primitive>,
}

impl DeviceScript {
    /// One [`render_primitive`] line per primitive, in primitive order.
    pub fn render(&self, nm: &NetworkManager) -> Vec<String> {
        self.primitives
            .iter()
            .map(|p| render_primitive(nm, p))
            .collect()
    }
}

/// The scripts for every device along a path: what a plan carries.  The text
/// of Figures 7(b)/8(b)/9(b) is rendered on demand ([`ScriptSet::render`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScriptSet {
    /// Per-device scripts, in path order.
    pub scripts: Vec<DeviceScript>,
}

/// The paper-style text of one primitive (Table I; Figures 7(b), 8(b), 9(b)):
/// a pure function of the primitive, device aliases ("A", "B", ...) looked up
/// in `nm`.  The text is a view; a plan carries what devices execute.
pub fn render_primitive(nm: &NetworkManager, primitive: &Primitive) -> String {
    let module = |m: &ModuleRef| m.display_with(&nm.device_alias(m.device), &m.module.to_string());
    let peer = |m: &Option<ModuleRef>| m.as_ref().map_or_else(|| "None".to_string(), &module);
    let filter = |verb: &str, m: &ModuleRef, from: &ModuleRef, to: &ModuleRef| {
        let (m, from, to) = (module(m), module(from), module(to));
        format!("{verb} (filter, {m}, {from}, {to})")
    };
    match primitive {
        Primitive::ShowPotential => "showPotential ()".to_string(),
        Primitive::ShowActual => "showActual ()".to_string(),
        Primitive::CreatePipe(spec) => {
            let mut args = vec![
                module(&spec.upper),
                module(&spec.lower),
                peer(&spec.peer_upper),
                peer(&spec.peer_lower),
            ];
            if spec.tradeoffs.is_empty() {
                args.push("None".into());
            }
            args.extend(spec.tradeoffs.iter().map(|t| {
                match t {
                    TradeoffChoice::InOrderDelivery => "trade-off: in-order delivery",
                    TradeoffChoice::LowErrorRate => "trade-off: error-rate",
                    TradeoffChoice::LowDelay => "trade-off: low-delay",
                }
                .to_string()
            }));
            format!("{} = create (pipe, {})", spec.pipe, args.join(", "))
        }
        Primitive::CreateSwitch(spec) => {
            let (m, i, o) = (module(&spec.module), spec.in_pipe, spec.out_pipe);
            match (&spec.dst_class, &spec.gateway) {
                (Some(class), _) => {
                    format!("create (switch, {m}, [{i}, dst:{} => {o}])", class.name)
                }
                (None, Some(gateway)) => {
                    format!("create (switch, {m}, [{i} => {o}, {}])", gateway.name)
                }
                (None, None) => format!("create (switch, {m}, {i}, {o})"),
            }
        }
        Primitive::CreateFilter(spec) => filter("create", &spec.module, &spec.from, &spec.to),
        Primitive::Delete(ComponentRef::Pipe(pipe)) => format!("delete (pipe, {pipe})"),
        Primitive::Delete(ComponentRef::SwitchRule(m, i, o)) => {
            format!("delete (switch, {}, {i}, {o})", module(m))
        }
        Primitive::Delete(ComponentRef::Filter(m, from, to)) => filter("delete", m, from, to),
    }
}

impl ScriptSet {
    /// The paper-style text of every script, each under a per-device header.
    pub fn render(&self, nm: &NetworkManager) -> String {
        let mut out = String::new();
        for s in &self.scripts {
            let alias = nm.device_alias(s.device);
            out.push_str(&format!("# ---- Router {alias} ----\n"));
            for line in s.render(nm) {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }

    /// Total number of primitives across devices.
    pub fn primitive_count(&self) -> usize {
        self.scripts.iter().map(|s| s.primitives.len()).sum()
    }

    /// The teardown mirror of this script set: every `create` undone with a
    /// `delete`, per device in *reverse* path order and within each device in
    /// reverse primitive order (switch rules before the pipes they
    /// reference).  Nothing at run time calls it: every rollback and
    /// teardown reads [`StagedScripts::teardown`], the same mirror read from
    /// the bytes a goal staged.  It stays as the reference that mirror is
    /// tested against (`tests/applied.rs`).
    pub fn teardown(&self) -> Vec<(netsim::device::DeviceId, Vec<Primitive>)> {
        (self.scripts.iter().rev())
            .map(|ds| (ds.device, deletes(&ds.primitives)))
            .collect()
    }

    /// Every component this set creates, with the device it is created on:
    /// what a goal whose applied plan carries these scripts claims of the
    /// network, in the names [`ModuleActual`](crate::primitives::ModuleActual)
    /// lists and `delete` takes.
    pub fn components(&self) -> BTreeSet<(DeviceId, ComponentRef)> {
        self.scripts
            .iter()
            .flat_map(|ds| created(&ds.primitives).map(|c| (ds.device, c)))
            .collect()
    }
}

/// The component `primitive` creates: `None` for a read or a delete.
fn created_by(primitive: &Primitive) -> Option<ComponentRef> {
    match primitive {
        Primitive::Delete(_) => None,
        create => create.component(),
    }
}

/// The components a device's primitives create, in script order.
fn created(primitives: &[Primitive]) -> impl DoubleEndedIterator<Item = ComponentRef> + '_ {
    primitives.iter().filter_map(created_by)
}

/// The delete primitives undoing a device's primitives, in reverse order.
fn deletes(primitives: &[Primitive]) -> Vec<Primitive> {
    created(primitives).rev().map(Primitive::Delete).collect()
}

/// A goal's scripts as the NM staged them: all an applied plan keeps of
/// them.  The NM sends a goal's scripts as segments of `StageBatch` frames;
/// once they are staged it needs only what it sent, so the typed
/// [`ScriptSet`] is encoded once more, as one self-contained `StageBatch`
/// frame (txn 0) with one segment (goal 0) per device and its own device
/// list, and dropped.  Every read goes through the one stage reader,
/// [`StageBatchView`] and [`SegmentView`]: the teardown mirror, the
/// components a goal claims, and the decoded segments a restore re-sends,
/// which encode to the same bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedScripts {
    /// The device each segment is for, in path order.
    devices: Box<[DeviceId]>,
    /// The frame: its device list, then one segment per device.
    frame: Box<[u8]>,
}

impl From<&ScriptSet> for StagedScripts {
    fn from(scripts: &ScriptSet) -> Self {
        let segments: Vec<(u64, &[Primitive])> = (scripts.scripts.iter())
            .map(|ds| (0, ds.primitives.as_slice()))
            .collect();
        StagedScripts {
            devices: scripts.scripts.iter().map(|ds| ds.device).collect(),
            frame: wire::encode_stage_batch(0, &segments).into_boxed_slice(),
        }
    }
}

impl StagedScripts {
    /// Each device's segment, in path order.
    pub fn segments(
        &self,
    ) -> impl DoubleEndedIterator<Item = (DeviceId, SegmentView<'_>)> + ExactSizeIterator {
        let view = StageBatchView::parse(&self.frame).expect("the NM's own frame parses");
        self.devices.iter().copied().zip(view)
    }

    /// The teardown mirror of the staged scripts, as
    /// [`ScriptSet::teardown`] derives it from the typed ones.
    pub fn teardown(&self) -> Vec<(DeviceId, Vec<Primitive>)> {
        (self.segments().rev())
            .map(|(device, segment)| {
                let mut deletes: Vec<Primitive> =
                    created_in(segment).map(Primitive::Delete).collect();
                deletes.reverse();
                (device, deletes)
            })
            .collect()
    }

    /// Every component the staged scripts create, as
    /// [`ScriptSet::components`] lists them.
    pub fn components(&self) -> BTreeSet<(DeviceId, ComponentRef)> {
        (self.segments())
            .flat_map(|(device, segment)| created_in(segment).map(move |c| (device, c)))
            .collect()
    }

    /// The typed scripts the segments decode to: what a restore re-sends.
    pub(crate) fn decode(&self) -> ScriptSet {
        let scripts = self.segments().map(|(device, segment)| DeviceScript {
            device,
            primitives: decoded(segment).collect(),
        });
        ScriptSet {
            scripts: scripts.collect(),
        }
    }
}

/// A kept segment's primitives, decoded one at a time.  The NM encoded
/// them itself, so they decode.
fn decoded(segment: SegmentView<'_>) -> impl Iterator<Item = Primitive> + '_ {
    (segment.primitives()).map(|p| p.expect("the NM's own segment decodes"))
}

/// The components a kept segment creates, in script order, read without
/// decoding the primitives.
fn created_in(segment: SegmentView<'_>) -> impl Iterator<Item = ComponentRef> + '_ {
    (segment.created()).filter_map(|c| c.expect("the NM's own segment decodes"))
}

/// Number of pipe-id slots [`generate_with_base`] assigns for `path`: one per step
/// boundary (up-down *and* physical pipes both consume an id).  Used by the
/// goal store to reserve disjoint pipe-id blocks per goal.
pub fn slot_count(path: &ModulePath) -> u32 {
    if path.steps.is_empty() {
        0
    } else {
        path.steps.len() as u32 + 1
    }
}

#[derive(Debug, Clone, Copy)]
struct PipeSlot {
    id: PipeId,
    physical: bool,
    /// Index of the upper step, if this is an up-down pipe.
    upper: Option<usize>,
    /// Index of the lower step, if this is an up-down pipe.
    lower: Option<usize>,
}

/// Generate the scripts realising `path` for `goal`, numbering pipes from
/// `pipe_base`.  Concurrent goals must execute in disjoint pipe-id blocks:
/// pipe ids key per-device blackboard facts, module pipe state and
/// derived route-table ids, so two goals sharing a device must never reuse
/// an id.  The goal store reserves one block per execution (see
/// [`slot_count`]).
pub fn generate_with_base(
    nm: &NetworkManager,
    path: &ModulePath,
    goal: &ConnectivityGoal,
    pipe_base: u32,
) -> ScriptSet {
    let steps = &path.steps;
    if steps.is_empty() {
        return ScriptSet::default();
    }
    let devices = path.devices();
    let device_pos: BTreeMap<DeviceId, usize> =
        devices.iter().enumerate().map(|(i, d)| (*d, i)).collect();

    // ------------------------------------------------------------------
    // 1. Allocate pipe slots.  Slot i is the pipe *entering* step i; slot
    //    steps.len() is the pipe leaving the last step.  Up-down pipes are
    //    numbered first (in path order) so the ingress device's first pipe is
    //    P0, matching the paper's numbering; physical pipes get the remaining
    //    numbers.
    // ------------------------------------------------------------------
    let n = steps.len();
    let mut slots: Vec<PipeSlot> = Vec::with_capacity(n + 1);
    // Placeholder fill; ids assigned below.
    for i in 0..=n {
        let physical = if i == 0 || i == n {
            true
        } else {
            steps[i - 1].module.device != steps[i].module.device
        };
        let (upper, lower) = if physical {
            (None, None)
        } else {
            match steps[i].entered {
                Entry::Below => (Some(i), Some(i - 1)),
                Entry::Above => (Some(i - 1), Some(i)),
                Entry::Phys => (None, None),
            }
        };
        slots.push(PipeSlot {
            id: PipeId(0),
            physical,
            upper,
            lower,
        });
    }
    let mut next_id = pipe_base;
    for slot in slots.iter_mut().filter(|s| !s.physical) {
        slot.id = PipeId(next_id);
        next_id += 1;
    }
    for slot in slots.iter_mut().filter(|s| s.physical) {
        slot.id = PipeId(next_id);
        next_id += 1;
    }

    // ------------------------------------------------------------------
    // 2. Helpers for peer determination.
    // ------------------------------------------------------------------
    let pushed_by: BTreeMap<usize, usize> = steps
        .iter()
        .enumerate()
        .filter(|(_, s)| s.switch.encapsulates())
        .map(|(i, s)| (s.header, i))
        .collect();
    let popped_by: BTreeMap<usize, usize> = steps
        .iter()
        .enumerate()
        .filter(|(_, s)| s.switch.decapsulates())
        .map(|(i, s)| (s.header, i))
        .collect();

    // The counterpart of step `idx`: where its header is handled at the far
    // end (pusher <-> popper; processors pair with the nearest handler of
    // the same header on a different device).
    let counterpart = |idx: usize| -> Option<usize> {
        let s = &steps[idx];
        let this_device = s.module.device;
        let candidate = if s.switch.encapsulates() {
            popped_by.get(&s.header).copied()
        } else if s.switch.decapsulates() {
            pushed_by.get(&s.header).copied()
        } else {
            // Processor: nearest step (forward first, then backward) on a
            // different device touching the same header.
            let fwd = steps
                .iter()
                .enumerate()
                .skip(idx + 1)
                .find(|(_, o)| o.header == s.header && o.module.device != this_device)
                .map(|(i, _)| i);
            fwd.or_else(|| {
                steps
                    .iter()
                    .enumerate()
                    .take(idx)
                    .rev()
                    .find(|(_, o)| o.header == s.header && o.module.device != this_device)
                    .map(|(i, _)| i)
            })
        };
        candidate.filter(|c| steps[*c].module.device != this_device)
    };

    // Given a target step, find the step on the same device nearest to it
    // that touches `header`.
    let near_on_same_device = |target: usize, header: usize| -> Option<usize> {
        let device = steps[target].module.device;
        let mut best: Option<(usize, usize)> = None;
        for (i, s) in steps.iter().enumerate() {
            if i != target && s.module.device == device && s.header == header {
                let dist = i.abs_diff(target);
                if best.is_none_or(|(_, d)| dist < d) {
                    best = Some((i, dist));
                }
            }
        }
        best.map(|(i, _)| i)
    };

    // ------------------------------------------------------------------
    // 3. Build per-device primitives.
    // ------------------------------------------------------------------
    // The edge rule: a step that processes the goal's payload (header 0, the
    // first header the path finder seeds) in place, with a `[down ⇒ down]`
    // that reads it rather than leaving the stack as it is.  Only such a
    // step can classify the customer's traffic.
    let is_edge_rule = |step: &PathStep| -> bool {
        step.header == 0
            && step.switch == SwitchKind::DownDown
            && nm
                .abstraction_of(&step.module)
                .is_none_or(|a| !a.switch.transparent_down_down)
    };

    // A plan is held for as long as its goal is applied, so each device's
    // primitives are built at their exact length: one per pipe whose upper
    // module is on the device (3a), and one per switch step between the
    // goal's ends, two for an edge rule (3b).
    let mut lengths = vec![0; devices.len()];
    for slot in slots.iter().filter(|s| !s.physical) {
        lengths[device_pos[&steps[slot.upper.unwrap()].module.device]] += 1;
    }
    for step in steps.iter().take(n - 1).skip(1) {
        lengths[device_pos[&step.module.device]] += if is_edge_rule(step) { 2 } else { 1 };
    }
    let mut scripts: Vec<DeviceScript> = (devices.iter().zip(&lengths))
        .map(|(d, &length)| DeviceScript {
            device: *d,
            primitives: Vec::with_capacity(length),
        })
        .collect();

    // 3a. CreatePipe primitives (slot order).
    for slot in slots.iter().filter(|s| !s.physical) {
        let (ui, li) = (slot.upper.unwrap(), slot.lower.unwrap());
        let upper = steps[ui].module;
        let lower = steps[li].module;
        let device = upper.device;

        // Peers: pair the lower module first (its header defines the pipe's
        // far end), then take the module adjacent to that peer handling the
        // upper module's header.  The far end's pipe is the slot joining
        // the two peers, numbered here like every other.
        let (pu, pl) = match counterpart(li) {
            Some(pl) => (near_on_same_device(pl, steps[ui].header), Some(pl)),
            None => (None, None),
        };
        let peer_upper = pu.map(|i| steps[i].module);
        let peer_lower = pl.map(|i| steps[i].module);
        let peer_pipe = (slots.iter())
            .find(|s| s.upper.is_some() && s.upper == pu && s.lower == pl)
            .map(|s| s.id);
        let initiate = match (&peer_upper, &peer_lower) {
            (_, Some(p)) | (Some(p), _) => {
                device_pos.get(&device).copied().unwrap_or(0)
                    < device_pos.get(&p.device).copied().unwrap_or(usize::MAX)
            }
            _ => false,
        };
        // Trade-offs satisfy the lower module's declared up-pipe dependency
        // (e.g. the GRE module's "performance trade-offs to be specified").
        let tradeoffs: Vec<TradeoffChoice> = nm
            .abstraction_of(&lower)
            .filter(|a| !a.up_dependencies.is_empty())
            .map(|_| goal.tradeoffs.clone())
            .unwrap_or_default();

        let spec = PipeSpec {
            pipe: slot.id,
            upper,
            lower,
            peer_upper,
            peer_lower,
            peer_pipe,
            tradeoffs,
            initiate,
        };
        scripts[device_pos[&device]]
            .primitives
            .push(Primitive::CreatePipe(spec));
    }

    // 3b. CreateSwitch primitives (step order).
    for (i, step) in steps.iter().enumerate() {
        let in_slot = &slots[i];
        let out_slot = &slots[i + 1];
        let device = step.module.device;
        let idx = device_pos[&device];
        // The first and last steps are the goal's own end modules, facing
        // the (unmanaged) customer (every path starts at `goal.from` and ends
        // at `goal.to`): they need no switch rule, matching Figure 7(b).
        if i == 0 || i + 1 == steps.len() {
            continue;
        }
        let is_first_device = device == devices[0];
        if is_edge_rule(step) {
            // Forward and reverse rules with the traffic class and gateway
            // (Figure 7(b) commands 3 and 4).
            let (customer_pipe, core_pipe) = if is_first_device {
                (in_slot, out_slot)
            } else {
                (out_slot, in_slot)
            };
            let (dst_class, gateway, local_class) = if is_first_device {
                (&goal.dst_class, &goal.src_gateway, &goal.src_class)
            } else {
                (&goal.src_class, &goal.dst_gateway, &goal.dst_class)
            };
            // Each name travels with the value the goal resolves it to (the
            // one protocol-specific thing the NM holds, §III-C); these two
            // rules are the only primitives that carry any of it.
            let resolved = |name: &String| ResolvedName {
                name: name.clone(),
                value: goal.resolved.get(name).cloned().unwrap_or_default(),
            };
            let fwd = SwitchSpec {
                module: step.module,
                in_pipe: customer_pipe.id,
                out_pipe: core_pipe.id,
                dst_class: Some(resolved(dst_class)),
                gateway: None,
                local_prefix: None,
            };
            // The reverse rule needs the local site's prefix so the module can
            // install the return route towards the customer gateway.
            let rev = SwitchSpec {
                module: step.module,
                in_pipe: core_pipe.id,
                out_pipe: customer_pipe.id,
                dst_class: None,
                gateway: Some(resolved(gateway)),
                local_prefix: goal.resolved.get(local_class).cloned(),
            };
            scripts[idx].primitives.push(Primitive::CreateSwitch(fwd));
            scripts[idx].primitives.push(Primitive::CreateSwitch(rev));
        } else {
            let spec = SwitchSpec {
                module: step.module,
                in_pipe: in_slot.id,
                out_pipe: out_slot.id,
                dst_class: None,
                gateway: None,
                local_prefix: None,
            };
            scripts[idx].primitives.push(Primitive::CreateSwitch(spec));
        }
    }
    debug_assert!(
        (scripts.iter().zip(&lengths)).all(|(s, &length)| s.primitives.len() == length),
        "a script's length is counted before it is built"
    );

    ScriptSet { scripts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ModuleId, ModuleKind};
    use crate::primitives::FilterSpec;

    fn module(kind: ModuleKind, id: u32, device: u64) -> ModuleRef {
        ModuleRef::new(kind, ModuleId(id), DeviceId::from_raw(device))
    }

    /// A hand-built two-step path exercises the degenerate cases (no peers,
    /// single device).
    #[test]
    fn empty_and_tiny_paths_do_not_panic() {
        let nm = NetworkManager::new();
        let goal =
            ConnectivityGoal::vpn(module(ModuleKind::Eth, 1, 1), module(ModuleKind::Eth, 2, 2));
        let empty = ModulePath { steps: vec![] };
        assert_eq!(nm.generate_scripts(&empty, &goal).scripts.len(), 0);

        let path = ModulePath {
            steps: vec![
                PathStep {
                    module: module(ModuleKind::Eth, 1, 1),
                    switch: SwitchKind::PhyUp,
                    entered: Entry::Phys,
                    header: 1,
                    depth: 2,
                },
                PathStep {
                    module: module(ModuleKind::Ip, 3, 1),
                    switch: SwitchKind::DownDown,
                    entered: Entry::Below,
                    header: 0,
                    depth: 1,
                },
                PathStep {
                    module: module(ModuleKind::Eth, 2, 1),
                    switch: SwitchKind::UpPhy,
                    entered: Entry::Above,
                    header: 2,
                    depth: 1,
                },
            ],
        };
        let set = nm.generate_scripts(&path, &goal);
        assert_eq!(set.scripts.len(), 1);
        // Two up-down pipes; the edge IP module gets the two classified
        // switch rules; the edge ETH modules get none.
        let prims = &set.scripts[0].primitives;
        let count = |f: fn(&Primitive) -> bool| prims.iter().filter(|p| f(p)).count();
        assert_eq!(count(|p| matches!(p, Primitive::CreatePipe(_))), 2);
        assert_eq!(count(|p| matches!(p, Primitive::CreateSwitch(_))), 2);

        // The view: one line per primitive in primitive order, under one
        // header per device.  The device never announced, so its alias is
        // its id.
        let lines = set.scripts[0].render(&nm);
        assert_eq!(lines.len(), prims.len());
        for (line, p) in lines.iter().zip(prims) {
            assert_eq!(line, &render_primitive(&nm, p));
        }
        let text = set.render(&nm);
        assert_eq!(text.lines().count(), 1 + prims.len());
        assert!(text.starts_with("# ---- Router dev:"), "{text}");
        assert!(text.contains("dst:C1-S2"));
    }

    /// All six `Primitive` variants render — the three switch forms and the
    /// three `delete` targets included — in the notation of Table I and
    /// Figure 7(b).
    #[test]
    fn every_primitive_variant_renders() {
        let mut nm = NetworkManager::new();
        for (raw, name) in [(1, "RouterA"), (2, "RouterB")] {
            nm.device_names.insert(DeviceId::from_raw(raw), name.into());
        }
        let (ip, gre) = (module(ModuleKind::Ip, 3, 1), module(ModuleKind::Gre, 5, 1));
        let (peer_ip, peer_gre) = (module(ModuleKind::Ip, 3, 2), module(ModuleKind::Gre, 5, 2));
        // The text shows names, never values (Figure 7(b)).
        let named = |name: &str| ResolvedName {
            name: name.to_string(),
            value: "192.0.2.1".to_string(),
        };
        let switch = |dst_class: Option<&str>, gateway: Option<&str>| {
            Primitive::CreateSwitch(SwitchSpec {
                module: ip,
                in_pipe: PipeId(0),
                out_pipe: PipeId(1),
                dst_class: dst_class.map(named),
                gateway: gateway.map(named),
                local_prefix: None,
            })
        };
        let pipe = |peers: bool, tradeoffs: Vec<TradeoffChoice>| {
            Primitive::CreatePipe(PipeSpec {
                pipe: PipeId(1),
                upper: ip,
                lower: gre,
                peer_upper: peers.then_some(peer_ip),
                peer_lower: peers.then_some(peer_gre),
                peer_pipe: peers.then_some(PipeId(2)),
                tradeoffs,
                initiate: true,
            })
        };
        let cases = [
            (Primitive::ShowPotential, "showPotential ()"),
            (Primitive::ShowActual, "showActual ()"),
            (
                pipe(false, vec![]),
                "P1 = create (pipe, <IP,A,m3>, <GRE,A,m5>, None, None, None)",
            ),
            (
                pipe(
                    true,
                    vec![
                        TradeoffChoice::InOrderDelivery,
                        TradeoffChoice::LowErrorRate,
                        TradeoffChoice::LowDelay,
                    ],
                ),
                "P1 = create (pipe, <IP,A,m3>, <GRE,A,m5>, <IP,B,m3>, <GRE,B,m5>, \
                 trade-off: in-order delivery, trade-off: error-rate, trade-off: low-delay)",
            ),
            (
                switch(Some("C1-S2"), None),
                "create (switch, <IP,A,m3>, [P0, dst:C1-S2 => P1])",
            ),
            (
                switch(None, Some("S1-gateway")),
                "create (switch, <IP,A,m3>, [P0 => P1, S1-gateway])",
            ),
            (switch(None, None), "create (switch, <IP,A,m3>, P0, P1)"),
            (
                Primitive::CreateFilter(FilterSpec {
                    module: ip,
                    from: gre,
                    to: peer_gre,
                }),
                "create (filter, <IP,A,m3>, <GRE,A,m5>, <GRE,B,m5>)",
            ),
            (
                Primitive::Delete(ComponentRef::Pipe(PipeId(7))),
                "delete (pipe, P7)",
            ),
            (
                Primitive::Delete(ComponentRef::SwitchRule(ip, PipeId(0), PipeId(1))),
                "delete (switch, <IP,A,m3>, P0, P1)",
            ),
            (
                Primitive::Delete(ComponentRef::Filter(ip, gre, peer_gre)),
                "delete (filter, <IP,A,m3>, <GRE,A,m5>, <GRE,B,m5>)",
            ),
        ];
        for (primitive, expected) in &cases {
            assert_eq!(&render_primitive(&nm, primitive), expected);
        }

        // A teardown mirror renders like any other script.
        let script = DeviceScript {
            device: DeviceId::from_raw(1),
            primitives: cases.iter().map(|(p, _)| p.clone()).collect(),
        };
        let teardown = DeviceScript {
            device: script.device,
            primitives: deletes(&script.primitives),
        };
        assert_eq!(teardown.render(&nm).len(), teardown.primitives.len());
        assert!(teardown
            .render(&nm)
            .iter()
            .all(|l| l.starts_with("delete (")));

        // One name per component: what the set claims is what its teardown
        // deletes — the pipe, the switch rule and the filter, each once; the
        // reads and the script's own deletes claim nothing.
        let deleted: BTreeSet<_> = teardown
            .primitives
            .iter()
            .filter_map(Primitive::component)
            .map(|c| (teardown.device, c))
            .collect();
        let set = ScriptSet {
            scripts: vec![script],
        };
        assert_eq!(set.components(), deleted);
        assert_eq!(deleted.len(), 3);
    }
}
