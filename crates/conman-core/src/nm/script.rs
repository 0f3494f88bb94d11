//! CONMan script generation: translating a chosen module-level path into the
//! per-device `create (pipe, ...)` / `create (switch, ...)` primitives of
//! Figures 7(b), 8(b) and 9(b).
//!
//! The NM generates these scripts algorithmically, with no protocol-specific
//! knowledge beyond the address prefixes and gateways the human manager's
//! high-level goal names (which the paper explicitly allows).

use super::pathfinder::{Entry, ModulePath};
use super::{ConnectivityGoal, NetworkManager};
use crate::abstraction::SwitchKind;
use crate::ids::{ModuleKind, ModuleRef, PipeId};
use crate::primitives::{PipeSpec, Primitive, SwitchSpec, TradeoffChoice};
use netsim::device::DeviceId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The CONMan primitives for one device, plus a human-readable rendering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceScript {
    /// The device the script configures.
    pub device: DeviceId,
    /// Device alias used in the rendering ("A", "B", ...).
    pub device_alias: String,
    /// The primitives in execution order.
    pub primitives: Vec<Primitive>,
    /// Paper-style textual rendering of each primitive.
    pub rendered: Vec<String>,
}

/// The scripts for every device along a path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ScriptSet {
    /// Per-device scripts, in path order.
    pub scripts: Vec<DeviceScript>,
    /// Total number of up-down pipes created.
    pub pipe_count: usize,
}

impl ScriptSet {
    /// All rendered lines, concatenated with per-device headers.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.scripts {
            out.push_str(&format!("# ---- Router {} ----\n", s.device_alias));
            for line in &s.rendered {
                out.push_str(line);
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
    /// reference).  This is the single source of teardown scripts — the
    /// transactional withdraw path, self-healing and mid-commit rollback all
    /// derive their deletes here.
    pub fn teardown(&self) -> Vec<(netsim::device::DeviceId, Vec<Primitive>)> {
        self.scripts
            .iter()
            .rev()
            .map(|ds| (ds.device, Self::teardown_of(ds)))
            .collect()
    }

    /// The delete primitives undoing one device's script.
    pub fn teardown_of(ds: &DeviceScript) -> Vec<Primitive> {
        use crate::primitives::ComponentRef;
        let mut deletes = Vec::new();
        for p in ds.primitives.iter().rev() {
            match p {
                Primitive::CreateSwitch(spec) => deletes.push(Primitive::Delete(
                    ComponentRef::SwitchRule(spec.module.clone(), spec.in_pipe, spec.out_pipe),
                )),
                Primitive::CreatePipe(spec) => {
                    deletes.push(Primitive::Delete(ComponentRef::Pipe(spec.pipe)));
                }
                Primitive::CreateFilter(spec) => deletes.push(Primitive::Delete(
                    ComponentRef::Filter(spec.module.clone(), spec.from.clone(), spec.to.clone()),
                )),
                _ => {}
            }
        }
        deletes
    }
}

/// Number of pipe-id slots `generate` assigns for `path`: one per step
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

/// Generate the scripts realising `path` for `goal`, numbering pipes from 0
/// (the paper's numbering — correct when only one goal exists).
pub fn generate(nm: &NetworkManager, path: &ModulePath, goal: &ConnectivityGoal) -> ScriptSet {
    generate_with_base(nm, path, goal, 0)
}

/// Generate the scripts realising `path` for `goal`, numbering pipes from
/// `pipe_base`.  Concurrent goals must execute in disjoint pipe-id blocks:
/// pipe ids key per-device blackboard attributes, module pipe state and
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
    let pipe_count = slots.iter().filter(|s| !s.physical).count();

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
    // Two initial headers either way: customer ETH + customer IP for L3
    // goals, customer ETH + the provider's own ETH hand-off for L2 goals.
    let num_initial_headers = 2;
    let is_edge_ip = |idx: usize| -> bool {
        !goal.l2_only
            && steps[idx].module.kind == ModuleKind::Ip
            && steps[idx].header < num_initial_headers
            && steps[idx].switch == SwitchKind::DownDown
    };

    let mut scripts: Vec<DeviceScript> = devices
        .iter()
        .map(|d| DeviceScript {
            device: *d,
            device_alias: nm.device_alias(*d),
            primitives: Vec::new(),
            rendered: Vec::new(),
        })
        .collect();
    let script_index: BTreeMap<DeviceId, usize> =
        devices.iter().enumerate().map(|(i, d)| (*d, i)).collect();

    let render_module = |m: &ModuleRef| -> String {
        format!("<{},{},{}>", m.kind, nm.device_alias(m.device), m.module)
    };

    // 3a. CreatePipe primitives (slot order).
    for slot in slots.iter().filter(|s| !s.physical) {
        let (ui, li) = (slot.upper.unwrap(), slot.lower.unwrap());
        let upper = steps[ui].module.clone();
        let lower = steps[li].module.clone();
        let device = upper.device;

        // Peers: pair the lower module first (its header defines the pipe's
        // far end), then take the module adjacent to that peer handling the
        // upper module's header.
        let peer_lower_idx = counterpart(li);
        let (peer_upper, peer_lower) = match peer_lower_idx {
            Some(pl) => {
                let pu = near_on_same_device(pl, steps[ui].header);
                (
                    pu.map(|i| steps[i].module.clone()),
                    Some(steps[pl].module.clone()),
                )
            }
            None => (None, None),
        };
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
            upper: upper.clone(),
            lower: lower.clone(),
            peer_upper: peer_upper.clone(),
            peer_lower: peer_lower.clone(),
            tradeoffs: tradeoffs.clone(),
            initiate,
            resolved: goal.resolved.clone(),
        };
        let mut args = vec![
            render_module(&upper),
            render_module(&lower),
            peer_upper
                .as_ref()
                .map(&render_module)
                .unwrap_or_else(|| "None".into()),
            peer_lower
                .as_ref()
                .map(&render_module)
                .unwrap_or_else(|| "None".into()),
        ];
        if tradeoffs.is_empty() {
            args.push("None".into());
        } else {
            for t in &tradeoffs {
                args.push(match t {
                    TradeoffChoice::InOrderDelivery => "trade-off: in-order delivery".into(),
                    TradeoffChoice::LowErrorRate => "trade-off: error-rate".into(),
                    TradeoffChoice::LowDelay => "trade-off: low-delay".into(),
                });
            }
        }
        let line = format!("{} = create (pipe, {})", slot.id, args.join(", "));
        let idx = script_index[&device];
        scripts[idx].primitives.push(Primitive::CreatePipe(spec));
        scripts[idx].rendered.push(line);
    }

    // 3b. CreateSwitch primitives (step order).
    for (i, step) in steps.iter().enumerate() {
        let in_slot = &slots[i];
        let out_slot = &slots[i + 1];
        let device = step.module.device;
        let idx = script_index[&device];
        // The edge ETH modules facing the (unmanaged) customer need no switch
        // rule, matching Figure 7(b).
        let touches_unmanaged_phys = i == 0 || i + 1 == steps.len();
        if step.module.kind == ModuleKind::Eth && touches_unmanaged_phys {
            continue;
        }
        let is_first_device = device == devices[0];
        if is_edge_ip(i) {
            // Forward and reverse rules with the traffic class and gateway
            // (Figure 7(b) commands 3 and 4).
            let (customer_pipe, core_pipe) = if is_first_device {
                (in_slot, out_slot)
            } else {
                (out_slot, in_slot)
            };
            let (dst_class, gateway, local_class) = if is_first_device {
                (
                    goal.dst_class.clone(),
                    goal.src_gateway.clone(),
                    goal.src_class.clone(),
                )
            } else {
                (
                    goal.src_class.clone(),
                    goal.dst_gateway.clone(),
                    goal.dst_class.clone(),
                )
            };
            // The reverse rule needs the local site's prefix so the module can
            // install the return route towards the customer gateway; the NM
            // already tracks this resolution (dependency maintenance).
            let mut rev_resolved = goal.resolved.clone();
            if let Some(prefix) = goal.resolved.get(&local_class) {
                rev_resolved.insert("gateway-prefix".to_string(), prefix.clone());
            }
            let fwd = SwitchSpec {
                module: step.module.clone(),
                in_pipe: customer_pipe.id,
                out_pipe: core_pipe.id,
                dst_class: Some(dst_class.clone()),
                gateway: None,
                resolved: goal.resolved.clone(),
            };
            let rev = SwitchSpec {
                module: step.module.clone(),
                in_pipe: core_pipe.id,
                out_pipe: customer_pipe.id,
                dst_class: None,
                gateway: Some(gateway.clone()),
                resolved: rev_resolved,
            };
            scripts[idx].rendered.push(format!(
                "create (switch, {}, [{}, dst:{} => {}])",
                render_module(&step.module),
                customer_pipe.id,
                dst_class,
                core_pipe.id
            ));
            scripts[idx].rendered.push(format!(
                "create (switch, {}, [{} => {}, {}])",
                render_module(&step.module),
                core_pipe.id,
                customer_pipe.id,
                gateway
            ));
            scripts[idx].primitives.push(Primitive::CreateSwitch(fwd));
            scripts[idx].primitives.push(Primitive::CreateSwitch(rev));
        } else {
            let spec = SwitchSpec {
                module: step.module.clone(),
                in_pipe: in_slot.id,
                out_pipe: out_slot.id,
                dst_class: None,
                gateway: None,
                resolved: goal.resolved.clone(),
            };
            scripts[idx].rendered.push(format!(
                "create (switch, {}, {}, {})",
                render_module(&step.module),
                in_slot.id,
                out_slot.id
            ));
            scripts[idx].primitives.push(Primitive::CreateSwitch(spec));
        }
    }

    ScriptSet {
        scripts,
        pipe_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nm::pathfinder::PathStep;

    /// A hand-built two-step path exercises the degenerate cases (no peers,
    /// single device).
    #[test]
    fn empty_and_tiny_paths_do_not_panic() {
        let nm = NetworkManager::new(DeviceId::from_raw(1));
        let goal = ConnectivityGoal::vpn(
            ModuleRef::new(
                ModuleKind::Eth,
                crate::ids::ModuleId(1),
                DeviceId::from_raw(1),
            ),
            ModuleRef::new(
                ModuleKind::Eth,
                crate::ids::ModuleId(2),
                DeviceId::from_raw(2),
            ),
        );
        let empty = ModulePath { steps: vec![] };
        assert_eq!(generate(&nm, &empty, &goal).scripts.len(), 0);

        let d = DeviceId::from_raw(1);
        let path = ModulePath {
            steps: vec![
                PathStep {
                    module: ModuleRef::new(ModuleKind::Eth, crate::ids::ModuleId(1), d),
                    switch: SwitchKind::PhyUp,
                    entered: Entry::Phys,
                    header: 1,
                    depth: 2,
                },
                PathStep {
                    module: ModuleRef::new(ModuleKind::Ip, crate::ids::ModuleId(3), d),
                    switch: SwitchKind::DownDown,
                    entered: Entry::Below,
                    header: 0,
                    depth: 1,
                },
                PathStep {
                    module: ModuleRef::new(ModuleKind::Eth, crate::ids::ModuleId(2), d),
                    switch: SwitchKind::UpPhy,
                    entered: Entry::Above,
                    header: 2,
                    depth: 1,
                },
            ],
        };
        let set = generate(&nm, &path, &goal);
        assert_eq!(set.scripts.len(), 1);
        assert_eq!(set.pipe_count, 2);
        // The edge IP module gets the two classified switch rules; the edge
        // ETH modules get none.
        let prims = &set.scripts[0].primitives;
        let switches = prims
            .iter()
            .filter(|p| matches!(p, Primitive::CreateSwitch(_)))
            .count();
        assert_eq!(switches, 2);
        assert!(set.render().contains("dst:C1-S2"));
    }
}
