//! What a module's unit tests need around it: one device's worth of context
//! and short-hands for the specs the NM would send.

use conman_core::ids::{ModuleId, ModuleKind, ModuleRef, PipeId};
use conman_core::module::{Blackboard, ModuleCtx};
use conman_core::primitives::{PipeSpec, SwitchSpec};
use netsim::config::DeviceConfig;
use netsim::device::DeviceId;
use netsim::stats::DeviceStats;

/// The device a module under test lives on.
pub(crate) struct Rig {
    pub config: DeviceConfig,
    pub stats: DeviceStats,
    pub blackboard: Blackboard,
}

impl Rig {
    pub(crate) fn new() -> Self {
        Rig {
            config: DeviceConfig::new(),
            stats: DeviceStats::default(),
            blackboard: Blackboard::new(),
        }
    }

    pub(crate) fn ctx(&mut self) -> ModuleCtx<'_> {
        ModuleCtx {
            config: &mut self.config,
            stats: &self.stats,
            blackboard: &mut self.blackboard,
        }
    }

    /// What the ETH module does when a pipe lands on it.
    pub(crate) fn publish_port(&mut self, pipe: u32, port: u32) {
        self.blackboard
            .publish(PipeId(pipe), |facts| facts.port = Some(port));
    }

    /// The data-plane configuration, rendered for before/after comparison.
    pub(crate) fn config_json(&self) -> String {
        serde_json::to_string(&self.config).expect("a device configuration serialises")
    }
}

/// Module `id` of `kind` on device `device`.
pub(crate) fn module(kind: ModuleKind, id: u32, device: u64) -> ModuleRef {
    ModuleRef::new(kind, ModuleId(id), DeviceId::from_raw(device))
}

/// A pipe between `upper` and `lower` with no peers; callers set the rest.
pub(crate) fn pipe(id: u32, upper: &ModuleRef, lower: &ModuleRef) -> PipeSpec {
    PipeSpec {
        pipe: PipeId(id),
        upper: upper.clone(),
        lower: lower.clone(),
        peer_upper: None,
        peer_lower: None,
        tradeoffs: vec![],
        initiate: false,
    }
}

/// An unclassified switch rule of `module` between two pipes.
pub(crate) fn switch(module: &ModuleRef, in_pipe: u32, out_pipe: u32) -> SwitchSpec {
    SwitchSpec {
        module: module.clone(),
        in_pipe: PipeId(in_pipe),
        out_pipe: PipeId(out_pipe),
        dst_class: None,
        gateway: None,
        local_prefix: None,
    }
}
